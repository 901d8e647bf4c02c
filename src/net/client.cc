/**
 * @file
 * net::Client implementation; see client.hh for the design.
 */

#include "net/client.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

namespace hotpath::net
{

namespace
{

/** Wait for `events` on `fd`, at most `timeout_ms`. Returns false on
 *  timeout or poll error. */
bool
waitFor(int fd, short events, std::uint64_t timeout_ms)
{
    pollfd pfd{fd, events, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    return ready > 0;
}

/** SplitMix64 finalizer: the retry-jitter hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Client::Client(ClientConfig config) : cfg(std::move(config)) {}

bool
Client::connect()
{
    for (std::uint32_t attempt = 0; attempt < cfg.connectAttempts;
         ++attempt) {
        if (attempt > 0) {
            ++counters.connectRetries;
            const std::uint32_t exponent =
                attempt - 1 < cfg.retryMaxExponent
                    ? attempt - 1
                    : cfg.retryMaxExponent;
            // Equal jitter: sleep in [delay/2, delay]. Keeping at
            // least half the exponential delay preserves the worst
            // case total (a client never outlasts a slow-binding
            // server by less than before), while the hashed fraction
            // spreads a fleet's reconnect attempts apart.
            const std::uint64_t delay = cfg.retryBaseMs << exponent;
            const std::uint64_t half = delay / 2;
            const std::uint64_t jitter =
                half == 0 ? 0
                          : mix64(cfg.retryJitterSeed ^ attempt) %
                                (half + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay - half + jitter));
        }
        fd = connectTcp(cfg.host, cfg.port);
        if (fd.valid())
            return true;
    }
    return false;
}

bool
Client::sendFrame(const std::uint8_t *data, std::size_t size)
{
    if (!fd.valid())
        return false;
    std::size_t off = 0;
    while (off < size) {
        const ssize_t wrote = ::send(fd.get(), data + off,
                                     size - off, MSG_NOSIGNAL);
        if (wrote > 0) {
            off += static_cast<std::size_t>(wrote);
            counters.bytesOut += static_cast<std::uint64_t>(wrote);
            continue;
        }
        if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!waitFor(fd.get(), POLLOUT, cfg.responseTimeoutMs)) {
                close();
                return false;
            }
            continue;
        }
        if (wrote < 0 && errno == EINTR)
            continue;
        close();
        return false;
    }
    ++counters.framesSent;
    return true;
}

bool
Client::sendEvents(std::uint64_t session, std::uint64_t sequence,
                   const PathEvent *events, std::size_t count)
{
    encodeScratch.clear();
    wire::appendEventFrame(encodeScratch, session, sequence, events,
                           count);
    return sendFrame(encodeScratch.data(), encodeScratch.size());
}

int
Client::decodeReplies(std::vector<PredictionReply> &replies)
{
    int appended = 0;
    wire::DecodedFrame frame;
    const wire::ScanResult scan = wire::scanFrames(
        in.data(), in.size(), inScan,
        [&](const wire::FrameHeader &, std::size_t off, std::size_t) {
            if (wire::decodeFrame(in.data(), in.size(), off, frame) !=
                wire::DecodeStatus::Ok)
                return wire::FrameVerdict::Corrupt;
            if (frame.header.kind == wire::FrameKind::Predictions) {
                PredictionReply reply;
                reply.session = frame.header.session;
                reply.sequence = frame.header.sequence;
                reply.predictions = std::move(frame.predictions);
                frame.predictions.clear();
                replies.push_back(std::move(reply));
                ++counters.responsesReceived;
                ++appended;
            } else if (frame.header.kind ==
                       wire::FrameKind::SessionState) {
                // Migration traffic: the answer to an export
                // request. Surfaced with isState set so the router
                // can tell snapshots from prediction replies.
                PredictionReply reply;
                reply.session = frame.header.session;
                reply.sequence = frame.header.sequence;
                reply.isState = true;
                reply.state = std::move(frame.state);
                frame.state = wire::SessionState{};
                replies.push_back(std::move(reply));
                ++counters.responsesReceived;
                ++appended;
            }
            // Other frame kinds from a server would be a protocol
            // surprise; skip them quietly.
            return wire::FrameVerdict::Next;
        });
    counters.resyncs += scan.resyncs;
    counters.resyncBytesSkipped += scan.bytesSkipped;
    in.erase(in.begin(),
             in.begin() + static_cast<std::ptrdiff_t>(scan.consumed));
    return appended;
}

int
Client::poll(std::vector<PredictionReply> &replies,
             std::uint64_t timeout_ms)
{
    // Replies a call() absorbed while waiting for its own match are
    // delivered first, in arrival order.
    if (!stash.empty()) {
        const int held = static_cast<int>(stash.size());
        for (auto &reply : stash)
            replies.push_back(std::move(reply));
        stash.clear();
        return held;
    }
    return pollSocket(replies, timeout_ms);
}

int
Client::pollSocket(std::vector<PredictionReply> &replies,
                   std::uint64_t timeout_ms)
{
    if (!fd.valid())
        return -1;

    // Serve from already-buffered bytes before touching the socket.
    int appended = decodeReplies(replies);
    if (appended > 0)
        return appended;

    if (!waitFor(fd.get(), POLLIN, timeout_ms))
        return 0;

    std::uint8_t chunk[wire::kReadChunkBytes];
    while (true) {
        const ssize_t got = ::read(fd.get(), chunk, sizeof(chunk));
        if (got > 0) {
            in.insert(in.end(), chunk,
                      chunk + static_cast<std::size_t>(got));
            counters.bytesIn += static_cast<std::uint64_t>(got);
            if (static_cast<std::size_t>(got) < sizeof(chunk))
                break;
            continue;
        }
        if (got == 0) {
            close(); // server went away; decode what we have
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        close();
        return -1;
    }
    appended = decodeReplies(replies);
    if (appended == 0 && !fd.valid())
        return -1;
    return appended;
}

bool
Client::awaitResponses(std::size_t count,
                       std::vector<PredictionReply> &replies)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(cfg.responseTimeoutMs);
    std::size_t received = 0;
    while (received < count) {
        const auto now = Clock::now();
        if (now >= deadline)
            return false;
        const auto leftMs =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count();
        const int got = poll(
            replies, static_cast<std::uint64_t>(leftMs));
        if (got < 0)
            return false;
        received += static_cast<std::size_t>(got);
    }
    return true;
}

bool
Client::call(std::uint64_t session, std::uint64_t sequence,
             const PathEvent *events, std::size_t count,
             PredictionReply &reply)
{
    if (!sendEvents(session, sequence, events, count))
        return false;

    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(cfg.responseTimeoutMs);
    std::vector<PredictionReply> batch;
    while (Clock::now() < deadline) {
        const auto leftMs =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        batch.clear();
        // Read the socket directly: serving the stash here would
        // hand back the replies this loop just stashed and spin
        // without ever reaching ours.
        const int got = pollSocket(
            batch,
            static_cast<std::uint64_t>(leftMs > 0 ? leftMs : 0));
        if (got < 0)
            return false;
        bool matched = false;
        for (auto &candidate : batch) {
            if (!matched && candidate.session == session &&
                candidate.sequence == sequence) {
                reply = std::move(candidate);
                matched = true;
                continue;
            }
            // A pipelined reply that arrived alongside ours belongs
            // to a later poll()/awaitResponses(); keep it.
            stash.push_back(std::move(candidate));
        }
        if (matched)
            return true;
    }
    return false;
}

} // namespace hotpath::net
