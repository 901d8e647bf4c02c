/**
 * @file
 * The `serve` and `cluster` workloads: an open-loop load generator
 * on one thread drives the TCP serving stack over loopback.
 *
 *  - serve:   net::Server (1 reactor) over an engine with 2 workers.
 *  - cluster: cluster::Router over 2 backends, each a net::Server
 *             (1 reactor) over a serial engine; backend 1's ring
 *             weight flips between 1000 and 500 permille every
 *             kFlipFrames frames, so sessions migrate out and back as
 *             SessionState snapshots.
 *
 * The generator multiplexes 4 connections x 16 sessions. Its whole
 * send schedule (Poisson arrivals, frame sizes, sessions) is fixed
 * from the seed before the run. Every latency is timed from the
 * frame's due time, not from when it was actually sent, so a stall
 * of the generator or the server counts against every frame it
 * delays; how late the generator itself ran is reported separately.
 */

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <random>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "cluster/hash_ring.hh"
#include "cluster/router.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kConnections = 4;
constexpr std::size_t kSessionsPerConn = 16;
constexpr std::size_t kSessions = kConnections * kSessionsPerConn;
constexpr std::size_t kSmallEvents = 64;
constexpr std::size_t kLargeEvents = 512;
/** Share of frames that carry kLargeEvents events. */
constexpr double kLargeShare = 0.10;
/** The calibrated streams: one per SPEC benchmark, as on `ingest`.
 *  Session s replays stream s mod 9 cyclically, from its own offset. */
constexpr std::size_t kStreams = 9;
constexpr double kFlowScale = 1e-4;
/**
 * Latency limit a ladder step must meet: p99 from due time to the
 * CRC-verified reply. It sits well above the ms-scale read-stage tail
 * seen at light load, so it bounds queueing, not that tail.
 */
constexpr double kLatencyLimitUs = 20000.0;
/** Ladder: rate k is hold x kLadderStep^k, k = 1..kLadderSteps. */
constexpr double kLadderStep = 1.07;
constexpr int kLadderSteps = 20;
/** Phase lengths as shares of --seconds. */
constexpr double kWarmupShare = 0.02;
constexpr double kHoldShare = 0.07;
constexpr double kStepShare = 0.006;
/** Fresh stacks an untraced run holds on, one after the other. */
constexpr int kStacks = 5;
/** A ladder step stops sending once this many seconds of its rate
 *  are unanswered (twice the latency limit's worth). */
constexpr double kAbortBacklogS = 0.04;
/** Unanswered frames beyond which a send first waits for room. */
constexpr std::uint64_t kBacklogWriteCheck = 256;
constexpr std::uint64_t kSendWaitNs = 1'000'000'000ull;
constexpr std::uint64_t kPumpNs = 50'000;
/** Hold-phase share of each of the two holds of a traced run. */
constexpr double kTracedHoldShare = 0.3;
/** Frames routed between two weight flips on `cluster`. */
constexpr std::uint64_t kFlipFrames = 8000;
/** Stage-span stride of the traced stack. */
constexpr std::uint64_t kSpanEvery = 16;
/** Generator spans are kept for 1 frame in this many per session. */
constexpr std::uint64_t kSpanSampleSeq = 16;
/** How long a phase may wait for its last replies. */
constexpr std::uint64_t kDrainTimeoutNs = 30'000'000'000ull;
/** Latency recorded for a frame that was never answered. */
constexpr double kUnansweredUs = 1e9;
/** Fewest frames a latency window holds; see windowQuantiles. */
constexpr double kMinWindowFrames = 1000.0;
/** Rank, among the windows of all holds, of the window whose
 *  percentile is reported: the figure one window in ten meets. */
constexpr double kHoldWindowRank = 0.10;
/** Rank of the window a ladder step's p99 is taken from. */
constexpr double kStepWindowRank = 0.25;
/** Serial and threaded in-process passes over the warm-up and hold
 *  frames on each stack; the best pass of each over all stacks is
 *  reported (README.md, "Statistics"). */
constexpr int kReplayPasses = 2;
/** Frames of the prefix the traced layer probes replay. */
constexpr std::size_t kProbeFrames = 40000;
/** Phase indices: warm-up, hold, then the ladder steps. */
constexpr std::size_t kWarmupPhase = 0;
constexpr std::size_t kHoldPhase = 1;

/**
 * Offered rate of the hold phase, frames per second: a fixed share of
 * the rate where the stack stops meeting the latency limit on a
 * 4-vCPU host (serve: half of ~180 k/s; cluster: ~40% of 100-130 k/s).
 */
double
holdRate(bool cluster)
{
    return cluster ? 40000.0 : 80000.0;
}

/** One open-loop phase of the schedule. */
struct Phase
{
    double rate = 0.0;
    std::size_t first = 0;
    std::size_t last = 0; // one past
    bool encoded = false;
    /** FrameSet buffers [bufferFirst, bufferLast) hold its bytes. */
    std::size_t bufferFirst = 0;
    std::size_t bufferLast = 0;
};

/**
 * Everything the generator sends, fixed from the seed before the run:
 * due times, sessions and frame sizes of every phase. Frame bytes are
 * encoded a phase at a time (encodePhase), so ladder steps that are
 * never reached cost no memory.
 */
struct Schedule
{
    std::vector<std::vector<PathEvent>> streams;
    std::vector<std::uint64_t> sessionIds;
    FrameSet frames;
    /** Due time of frame i, ns after its phase starts. */
    std::vector<std::uint64_t> dueNs;
    /** Connection each frame is sent on. */
    std::vector<std::uint8_t> conn;
    /** Stream and offset frame i's events start at. */
    std::vector<std::uint8_t> stream;
    std::vector<std::uint32_t> cursor;
    std::vector<Phase> phases;
    /** Frame index of (session, sequence). */
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
        bySession;

    void encodePhase(std::size_t p);

    /** Drop a phase's bytes once the reference has replayed them. */
    void
    releasePhase(std::size_t p)
    {
        for (std::size_t b = phases[p].bufferFirst;
             b < phases[p].bufferLast; ++b)
            frames.buffers[b].reset();
    }
};

/**
 * Session ids: connections 0-2 carry ids 1..48; connection 3 carries
 * 16 ids the router's ring places on backend 0 at both weights, so a
 * traced cluster run can send them straight to backend 0 and compare
 * (the routing hop's cost). A mirror of the router's ring decides.
 */
std::vector<std::uint64_t>
sessionIds()
{
    cluster::HashRing full(cluster::HashRingConfig{});
    full.addNode(0);
    full.addNode(1);
    cluster::HashRing half = full;
    half.setNodeWeight(1, cluster::HashRingConfig{}.virtualNodes / 2);
    std::vector<std::uint64_t> ids;
    for (std::uint64_t id = 1; ids.size() < kSessions - kSessionsPerConn;
         ++id)
        ids.push_back(id);
    for (std::uint64_t id = 1001; ids.size() < kSessions; ++id)
        if (full.ownerOf(id) == 0 && half.ownerOf(id) == 0)
            ids.push_back(id);
    return ids;
}

/**
 * Build the schedule: Poisson arrivals at each phase's rate (phases
 * given as {rate, seconds}), a uniformly drawn session per frame, 10%
 * large frames.
 */
Schedule
buildSchedule(std::uint64_t seed,
              const std::vector<std::pair<double, double>> &phases)
{
    Schedule sch;
    sch.sessionIds = sessionIds();
    sch.streams.resize(kStreams);
    forEachCalibratedStream(seed, kStreams, kFlowScale, availableCpus(),
                            [&](std::size_t s, std::vector<PathEvent> &e) {
                                sch.streams[s] = std::move(e);
                            });

    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
    std::uniform_int_distribution<std::size_t> pickSession(0,
                                                           kSessions - 1);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<std::size_t> cursor(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s)
        cursor[s] = (s / kStreams) * sch.streams[s % kStreams].size() /
                    (kSessions / kStreams + 1);
    std::vector<std::uint64_t> sequence(kSessions, 0);

    for (const auto &[rate, seconds] : phases) {
        Phase phase;
        phase.rate = rate;
        phase.first = sch.frames.frames.size();
        const double horizon = seconds * 1e9;
        std::exponential_distribution<double> gap(rate * 1e-9);
        for (double t = gap(rng); t < horizon; t += gap(rng)) {
            const std::size_t s = pickSession(rng);
            const std::size_t n =
                unit(rng) < kLargeShare ? kLargeEvents : kSmallEvents;
            const std::size_t streamSize =
                sch.streams[s % kStreams].size();
            FrameSet::Frame f;
            f.events = static_cast<std::uint32_t>(n);
            f.session = sch.sessionIds[s];
            f.sequence = sequence[s]++;
            sch.bySession[f.session].push_back(
                static_cast<std::uint32_t>(sch.frames.frames.size()));
            sch.frames.frames.push_back(f);
            sch.dueNs.push_back(static_cast<std::uint64_t>(t));
            sch.conn.push_back(
                static_cast<std::uint8_t>(s / kSessionsPerConn));
            sch.stream.push_back(static_cast<std::uint8_t>(s % kStreams));
            sch.cursor.push_back(static_cast<std::uint32_t>(cursor[s]));
            cursor[s] = (cursor[s] + n) % streamSize;
        }
        phase.last = sch.frames.frames.size();
        sch.phases.push_back(phase);
    }
    return sch;
}

void
Schedule::encodePhase(std::size_t p)
{
    Phase &phase = phases[p];
    if (phase.encoded)
        return;
    phase.encoded = true;
    // Contiguous chunks of the phase, one buffer each, encoded in
    // parallel: every frame's stream offset is already fixed.
    const std::size_t n = phase.last - phase.first;
    const std::size_t chunks = std::max<std::size_t>(
        1, std::min(availableCpus(), n / 1024));
    const std::size_t firstBuffer = frames.buffers.size();
    std::vector<std::shared_ptr<std::vector<std::uint8_t>>> out(chunks);
    std::vector<std::uint64_t> events(chunks, 0);
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < chunks; ++c)
        pool.emplace_back([&, c] {
            auto buffer = std::make_shared<std::vector<std::uint8_t>>();
            std::vector<PathEvent> batch;
            std::vector<std::uint8_t> scratch;
            const std::size_t lo = phase.first + n * c / chunks;
            const std::size_t hi = phase.first + n * (c + 1) / chunks;
            for (std::size_t i = lo; i < hi; ++i) {
                FrameSet::Frame &f = frames.frames[i];
                const std::vector<PathEvent> &src = streams[stream[i]];
                batch.clear();
                for (std::size_t k = 0, at = cursor[i]; k < f.events;
                     ++k) {
                    batch.push_back(src[at]);
                    at = at + 1 == src.size() ? 0 : at + 1;
                }
                // Encode each frame on its own, then append it: the
                // encoder reserves exactly, which would regrow a
                // shared buffer on every frame.
                scratch.clear();
                wire::appendEventFrame(scratch, f.session, f.sequence,
                                       batch.data(), batch.size());
                f.buffer = static_cast<std::uint32_t>(firstBuffer + c);
                f.offset = static_cast<std::uint32_t>(buffer->size());
                f.length = static_cast<std::uint32_t>(scratch.size());
                buffer->insert(buffer->end(), scratch.begin(),
                               scratch.end());
                events[c] += f.events;
            }
            out[c] = std::move(buffer);
        });
    for (std::thread &t : pool)
        t.join();
    for (std::size_t c = 0; c < chunks; ++c) {
        frames.events += events[c];
        frames.bytes += out[c]->size();
        frames.buffers.push_back(std::move(out[c]));
    }
    phase.bufferFirst = firstBuffer;
    phase.bufferLast = frames.buffers.size();
}

/** The serving stack under test, started on loopback ports. */
struct Stack
{
    bool cluster = false;
    bool stopped = false;
    std::vector<std::unique_ptr<engine::Engine>> engines;
    std::vector<std::unique_ptr<net::Server>> servers;
    std::unique_ptr<cluster::Router> router;

    /** Port the generator's routed connections use. */
    std::uint16_t
    frontPort() const
    {
        return cluster ? router->port() : servers[0]->port();
    }

    bool
    start(bool with_cluster, std::uint64_t span_every)
    {
        cluster = with_cluster;
        const std::size_t backends = cluster ? 2 : 1;
        cluster::RouterConfig routerCfg;
        for (std::size_t b = 0; b < backends; ++b) {
            engines.push_back(std::make_unique<engine::Engine>(
                engineConfig(cluster ? 0 : 2)));
            net::ServerConfig cfg;
            cfg.reactorThreads = 1;
            cfg.spanSampleEvery = span_every;
            servers.push_back(
                std::make_unique<net::Server>(*engines.back(), cfg));
            if (!servers.back()->start())
                return false;
            routerCfg.backends.push_back(
                {"127.0.0.1", servers.back()->port()});
        }
        if (cluster) {
            router = std::make_unique<cluster::Router>(routerCfg);
            if (!router->start())
                return false;
        }
        return true;
    }

    void
    stop()
    {
        if (stopped)
            return;
        stopped = true;
        if (router)
            router->stop();
        for (auto &server : servers)
            server->stop();
        for (auto &eng : engines)
            eng->shutdown();
    }

    ~Stack() { stop(); }
};

/** What one phase of the generator measured. */
struct PhaseResult
{
    /** Latency (us) of every frame sent, in due order; an unanswered
     *  frame has kUnansweredUs, above any limit. */
    std::vector<double> latencyUs;
    std::uint64_t sent = 0;
    std::uint64_t answered = 0;
    /** Frames sent but not yet answered when the last was sent. */
    std::uint64_t backlogAtEnd = 0;
    double achievedRate = 0.0;
    /** Index (in latencyUs) of the first frame sent after each
     *  backend weight flip. */
    std::vector<std::size_t> flips;
};

/** Resets the calling thread's timer slack when it goes away. */
struct TimerSlack
{
    TimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }
    ~TimerSlack() { ::prctl(PR_SET_TIMERSLACK, 0UL, 0, 0, 0); }
    TimerSlack(const TimerSlack &) = delete;
    TimerSlack &operator=(const TimerSlack &) = delete;
};

/** The single-threaded open-loop generator. */
class Generator
{
  public:
    Generator(const Schedule &schedule, SpanLog *span_log)
        : sch(schedule), spans(span_log),
          answeredAt(schedule.frames.frames.size(), 0),
          phaseBase(schedule.frames.frames.size(), 0)
    {
    }

    /** Connect connection c to `port`. */
    bool
    connect(std::size_t c, std::uint16_t port)
    {
        net::ClientConfig cfg;
        cfg.port = port;
        clients[c] = std::make_unique<net::Client>(cfg);
        return clients[c]->connect();
    }

    /**
     * Run phase p open loop, then wait for its replies. `router`
     * (cluster only) gets a weight flip every kFlipFrames frames.
     */
    PhaseResult
    run(std::size_t p, cluster::Router *router,
        std::uint64_t abort_backlog = 0)
    {
        TimerSlack slack;
        const Phase &phase = sch.phases[p];
        std::size_t last = phase.last;
        PhaseResult res;
        fds.resize(kConnections);
        for (std::size_t c = 0; c < kConnections; ++c)
            fds[c] = {clients[c]->socketFd(), POLLIN, 0};
        outstanding = 0;
        lastReply = 0;

        const std::uint64_t base = nowNs();
        std::uint64_t firstSend = 0;
        std::size_t i = phase.first;
        std::uint64_t drainDeadline = 0;
        while (true) {
            std::uint64_t now = nowNs();
            while (i < last && base + sch.dueNs[i] <= now) {
                if (outstanding > kBacklogWriteCheck)
                    awaitWritable(sch.conn[i]);
                if (sendOne(i, base, router))
                    res.flips.push_back(i + 1 - phase.first);
                if (firstSend == 0)
                    firstSend = base + sch.dueNs[i];
                ++i;
                ++outstanding;
                now = nowNs();
                if (i == last)
                    res.backlogAtEnd = outstanding;
                if (abort_backlog != 0 && outstanding > abort_backlog) {
                    // Far past saturation: stop sending this phase.
                    res.backlogAtEnd = outstanding;
                    last = i;
                }
            }
            if (i == last) {
                if (outstanding == 0)
                    break;
                if (drainDeadline == 0)
                    drainDeadline = now + kDrainTimeoutNs;
                if (now >= drainDeadline)
                    break;
            }
            const std::uint64_t until =
                i < last ? base + sch.dueNs[i] : drainDeadline;
            pump(until > now ? until - now : 0);
        }
        res.sent = i - phase.first;
        for (std::size_t k = phase.first; k < i; ++k) {
            double us = kUnansweredUs;
            if (answeredAt[k] != 0) {
                ++res.answered;
                us = static_cast<double>(answeredAt[k] -
                                         (phaseBase[k] + sch.dueNs[k])) *
                     1e-3;
            }
            res.latencyUs.push_back(us);
            connLatencyUs[sch.conn[k]].push_back(us);
        }
        if (lastReply > firstSend && res.answered > 0)
            res.achievedRate = static_cast<double>(res.answered) /
                               (static_cast<double>(lastReply - firstSend) *
                                1e-9);
        sentUpTo = i;
        return res;
    }

    /** One past the last frame sent. */
    std::size_t sentUpTo = 0;
    /** Frames sent in all phases run so far. */
    std::uint64_t sentTotal = 0;
    DigestMap digests;
    std::uint64_t duplicates = 0;
    std::uint64_t strays = 0;
    std::vector<double> lagUs;
    std::uint64_t sendNs = 0;
    std::uint64_t pollNs = 0;
    std::uint64_t replies = 0;
    std::uint64_t sendFailures = 0;
    /** Latency (us) of every frame sent, by connection. */
    std::vector<double> connLatencyUs[kConnections];
    std::unique_ptr<net::Client> clients[kConnections];

  private:
    /** Wait up to `wait_ns` for replies and take in whatever came. */
    void
    pump(std::uint64_t wait_ns)
    {
        timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                    static_cast<long>(wait_ns % 1'000'000'000ull)};
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            return;
        for (std::size_t c = 0; c < kConnections; ++c) {
            if (fds[c].revents == 0)
                continue;
            const std::uint64_t got = receive(c);
            outstanding -= std::min(outstanding, got);
        }
    }

    /**
     * With a deep backlog, wait until connection c can take a frame,
     * reading replies meanwhile: a send that blocks while the stack
     * waits for its replies to be read would stall both (for at most
     * kSendWaitNs; the send then blocks as usual).
     */
    void
    awaitWritable(std::size_t c)
    {
        const std::uint64_t deadline = nowNs() + kSendWaitNs;
        pollfd out{clients[c]->socketFd(), POLLOUT, 0};
        while (::poll(&out, 1, 0) == 0 && nowNs() < deadline)
            pump(kPumpNs);
    }

    /** Send frame i; true when a weight flip followed it. */
    bool
    sendOne(std::size_t i, std::uint64_t base, cluster::Router *router)
    {
        const FrameSet::Frame &f = sch.frames.frames[i];
        const std::uint64_t due = base + sch.dueNs[i];
        phaseBase[i] = base;
        const std::uint64_t t0 = nowNs();
        if (!clients[sch.conn[i]]->sendFrame(sch.frames.data(f),
                                             f.length))
            ++sendFailures;
        const std::uint64_t t1 = nowNs();
        sendNs += t1 - t0;
        lagUs.push_back(static_cast<double>(t0 - due) * 1e-3);
        if (spans != nullptr && f.sequence % kSpanSampleSeq == 0)
            spans->add("net.Client::sendFrame", f.session, f.sequence, t0,
                       t1);
        ++sentTotal;
        if (router == nullptr || sentTotal % kFlipFrames != 0)
            return false;
        flipHalf = !flipHalf;
        router->setBackendWeights({{1, flipHalf ? 500u : 1000u}});
        return true;
    }

    std::uint64_t
    receive(std::size_t c)
    {
        batch.clear();
        const std::uint64_t t0 = nowNs();
        clients[c]->poll(batch, 0);
        const std::uint64_t t1 = nowNs();
        pollNs += t1 - t0;
        std::int64_t pollSpan = -1;
        std::uint64_t matched = 0;
        for (const net::PredictionReply &reply : batch) {
            const auto it = sch.bySession.find(reply.session);
            if (reply.isState || it == sch.bySession.end() ||
                reply.sequence >= it->second.size()) {
                ++strays;
                continue;
            }
            const std::uint32_t idx = it->second[reply.sequence];
            if (answeredAt[idx] != 0 || phaseBase[idx] == 0) {
                ++duplicates;
                continue;
            }
            answeredAt[idx] = t1;
            ++matched;
            ++replies;
            lastReply = t1;
            Digest &d = digests[reply.session];
            d.sum += replyHash(reply.session, reply.sequence,
                               reply.predictions.data(),
                               reply.predictions.size());
            ++d.frames;
            if (spans != nullptr && reply.sequence % kSpanSampleSeq == 0) {
                if (pollSpan < 0)
                    pollSpan = spans->add("net.Client::poll", 0, 0, t0, t1);
                spans->add("reply", reply.session, reply.sequence, t1, t1,
                           pollSpan);
            }
        }
        return matched;
    }

    const Schedule &sch;
    SpanLog *spans;
    std::vector<std::uint64_t> answeredAt;
    std::vector<std::uint64_t> phaseBase;
    std::vector<net::PredictionReply> batch;
    bool flipHalf = false;
    std::vector<pollfd> fds;
    /** Frames of the current phase sent and not yet answered. */
    std::uint64_t outstanding = 0;
    std::uint64_t lastReply = 0;
};

/** A started stack, its generator and the schedule it runs. The
 *  generator refers to the schedule, so both live on the heap. */
struct Setup
{
    std::unique_ptr<Schedule> schedule;
    std::unique_ptr<Stack> stack;
    std::unique_ptr<Generator> gen;
};

/**
 * Set-up: synthesis, schedule, encoding of the warm-up and hold
 * phases, and stack start-up. In a traced cluster run connection 3
 * goes straight to backend 0.
 */
bool
makeSetup(Setup &setup, std::uint64_t seed,
          const std::vector<std::pair<double, double>> &phases,
          bool cluster, std::uint64_t span_every, bool direct_probe,
          SpanLog *spans)
{
    setup.schedule =
        std::make_unique<Schedule>(buildSchedule(seed, phases));
    setup.schedule->encodePhase(kWarmupPhase);
    setup.schedule->encodePhase(kHoldPhase);
    setup.stack = std::make_unique<Stack>();
    if (!setup.stack->start(cluster, span_every))
        return false;
    setup.gen = std::make_unique<Generator>(*setup.schedule, spans);
    for (std::size_t c = 0; c < kConnections; ++c) {
        const bool direct = direct_probe && c == kConnections - 1;
        const std::uint16_t port = direct ? setup.stack->servers[0]->port()
                                          : setup.stack->frontPort();
        if (!setup.gen->connect(c, port))
            return false;
    }
    return true;
}

double
pct(std::vector<double> v, double q)
{
    return quantile(v, q);
}

/** The q-quantile of latencyUs[first, first + n). */
double
rangeQuantile(const PhaseResult &res, std::size_t first, std::size_t n,
              double q)
{
    const auto from =
        res.latencyUs.begin() + static_cast<std::ptrdiff_t>(first);
    std::vector<double> values(from, from + static_cast<std::ptrdiff_t>(n));
    return quantile(values, q);
}

/**
 * Append the q-quantile of each run of consecutive frames (in due
 * order) to `out`. A window holds at least 12 frames beyond its
 * q-quantile and at least kMinWindowFrames frames; the ragged tail is
 * left out. A phase shorter than one window counts as one window.
 * Reported figures are a low rank over such windows: a stall spoils
 * the windows it falls in, not the figure. On a host whose other
 * tenants stall it now and then, the median window is too often a
 * spoilt one.
 */
void
windowQuantiles(const PhaseResult &res, double q, std::vector<double> &out)
{
    const auto window = static_cast<std::size_t>(
        std::max(kMinWindowFrames, std::ceil(12.0 / (1.0 - q))));
    const std::size_t n = res.latencyUs.size();
    if (n < window) {
        out.push_back(pct(res.latencyUs, q));
        return;
    }
    for (std::size_t i = 0; i + window <= n; i += window)
        out.push_back(rangeQuantile(res, i, window, q));
}

/**
 * Append the q-quantile of each window of kFlipFrames frames centred
 * on a backend weight flip to `out`. Flips are kFlipFrames apart, so
 * these windows tile the phase and each holds exactly one migration,
 * whose stall is then the tail every window sees. Windows that would
 * reach past the phase are left out; a phase that holds none counts
 * as one window.
 */
void
flipWindowQuantiles(const PhaseResult &res, double q,
                    std::vector<double> &out)
{
    const std::size_t half = kFlipFrames / 2;
    const std::size_t before = out.size();
    for (const std::size_t f : res.flips)
        if (f >= half && f + half <= res.latencyUs.size())
            out.push_back(rangeQuantile(res, f - half, 2 * half, q));
    if (out.size() == before)
        out.push_back(pct(res.latencyUs, q));
}

/** The figure the `rank` share of one phase's windows meet. */
double
windowedQuantile(const PhaseResult &res, double q, double rank)
{
    std::vector<double> windows;
    windowQuantiles(res, q, windows);
    return quantile(windows, rank);
}

/** Frame conservation on the stack after the generator finished. */
void
checkConservation(Setup &setup, RunOutcome &out)
{
    Generator &gen = *setup.gen;
    const std::uint64_t sent = gen.sentTotal;
    std::uint64_t answered = 0;
    for (const auto &[session, d] : gen.digests)
        answered += d.frames;
    out.attempted += sent;
    out.failed += sent - std::min(sent, answered);
    if (answered != sent)
        fail(out, "frames unanswered: sent " + std::to_string(sent) +
                      ", answered " + std::to_string(answered));
    if (gen.duplicates != 0 || gen.strays != 0 || gen.sendFailures != 0)
        fail(out, "duplicate, stray or unsent frames");
    std::uint64_t dropped = 0;
    for (const auto &server : setup.stack->servers)
        dropped += server->stats().responsesDropped;
    if (setup.stack->router) {
        const cluster::RouterStats rs = setup.stack->router->stats();
        if (rs.inFlightTotal != 0 || rs.parkedFrames != 0 ||
            rs.responsesDropped != 0 || rs.responsesSynthesized != 0)
            fail(out, "router ledger not settled: in-flight " +
                          std::to_string(rs.inFlightTotal) + ", parked " +
                          std::to_string(rs.parkedFrames) + ", dropped " +
                          std::to_string(rs.responsesDropped) +
                          ", synthesized " +
                          std::to_string(rs.responsesSynthesized));
    }
    if (dropped != 0)
        fail(out, "server dropped " + std::to_string(dropped) +
                      " responses");
}

/** Warm-up and hold at the hold rate, then (untraced) the ladder. */
std::vector<std::pair<double, double>>
phasesFor(bool cluster, double seconds, bool trace)
{
    const double hold = holdRate(cluster);
    std::vector<std::pair<double, double>> phases = {
        {hold, kWarmupShare * seconds},
        {hold, (trace ? kTracedHoldShare : kHoldShare) * seconds}};
    if (!trace) {
        double rate = hold;
        for (int k = 0; k < kLadderSteps; ++k) {
            rate *= kLadderStep;
            phases.push_back({rate, kStepShare * seconds});
        }
    }
    return phases;
}

void
reportStages(const net::Server &server, Report &report)
{
    const telemetry::SpanRecorder &spans = server.spanRecorder();
    for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
        const auto stage = static_cast<telemetry::Stage>(s);
        const telemetry::HistogramSnapshot h = spans.stageSnapshot(stage);
        const std::string base =
            std::string("stage.") + telemetry::stageName(stage);
        report.set(base + "_p50_us", h.percentile(0.50) * 1e-3);
        report.set(base + "_p99_us", h.percentile(0.99) * 1e-3);
    }
}

/** Engine- and net-layer stats of the served stack. */
void
reportStackLayers(Setup &setup, telemetry::MetricRegistry &registry,
                  Report &report)
{
    Stack &stack = *setup.stack;
    std::uint64_t busy = 0, idle = 0, waits = 0, decoded = 0,
                  batches = 0;
    std::size_t highWater = 0;
    for (const auto &eng : stack.engines) {
        const engine::EngineStats st = eng->stats();
        for (std::size_t w = 0; w < st.workerBusyNs.size(); ++w) {
            busy += st.workerBusyNs[w];
            idle += st.workerIdleNs[w];
        }
        for (std::size_t hw : st.queueHighWater)
            highWater = std::max(highWater, hw);
        waits += st.backpressureWaits;
        decoded += st.framesDecoded;
        batches += st.batches;
    }
    if (busy + idle > 0)
        report.set("engine.worker_busy_frac",
                   static_cast<double>(busy) /
                       static_cast<double>(busy + idle));
    else
        report.notApplicable("engine.worker_busy_frac");
    report.set("engine.backpressure_waits", static_cast<double>(waits));
    report.set("engine.queue_high_water_max",
               static_cast<double>(highWater));
    if (batches > 0)
        report.set("engine.frames_per_batch",
                   static_cast<double>(decoded) /
                       static_cast<double>(batches));
    else
        report.notApplicable("engine.frames_per_batch");
    const telemetry::HistogramSnapshot lockWait =
        registry.histogram("engine.table.lock.wait.ns").snapshot();
    report.set("engine.lock_wait_ns_per_frame",
               decoded > 0 ? static_cast<double>(lockWait.sum) /
                                 static_cast<double>(decoded)
                           : 0.0);

    std::uint64_t pauses = 0, dropped = 0, bytesIn = 0, framesIn = 0,
                  maxFrames = 0;
    for (const auto &server : stack.servers) {
        const net::NetStats ns = server->stats();
        pauses += ns.readPauses;
        dropped += ns.responsesDropped;
        bytesIn += ns.bytesIn;
        framesIn += ns.framesIn;
        maxFrames = std::max(maxFrames, ns.framesIn);
    }
    report.set("net.read_pauses", static_cast<double>(pauses));
    report.set("net.responses_dropped", static_cast<double>(dropped));
    report.set("net.bytes_per_frame",
               framesIn > 0 ? static_cast<double>(bytesIn) /
                                  static_cast<double>(framesIn)
                            : 0.0);
    Generator &gen = *setup.gen;
    const auto usPer = [](std::uint64_t ns, std::uint64_t n) {
        return static_cast<double>(ns) * 1e-3 /
               static_cast<double>(std::max<std::uint64_t>(n, 1));
    };
    report.set("net.send_us_per_frame", usPer(gen.sendNs, gen.sentTotal));
    report.set("net.poll_us_per_reply", usPer(gen.pollNs, gen.replies));
    report.set("loadgen.lag_p99_us", pct(gen.lagUs, 0.99));

    if (!stack.router) {
        reportStages(*stack.servers[0], report);
        for (const char *name :
             {"cluster.hop_p50_us", "cluster.sessions_migrated",
              "cluster.migration_bytes", "cluster.frames_replayed",
              "cluster.backend_skew"})
            report.notApplicable(name);
        return;
    }
    // Backend 0 serves the direct probe connection too; its stage
    // spans describe both routed and direct frames.
    reportStages(*stack.servers[0], report);
    const cluster::RouterStats rs = stack.router->stats();
    report.set("cluster.sessions_migrated",
               static_cast<double>(rs.sessionsMigrated));
    report.set("cluster.migration_bytes",
               static_cast<double>(rs.migrationBytes));
    report.set("cluster.frames_replayed",
               static_cast<double>(rs.framesReplayed));
    report.set("cluster.backend_skew",
               static_cast<double>(maxFrames) /
                   (static_cast<double>(framesIn) /
                    static_cast<double>(stack.servers.size())));
    std::vector<double> routed;
    for (std::size_t c = 0; c + 1 < kConnections; ++c)
        routed.insert(routed.end(), gen.connLatencyUs[c].begin(),
                      gen.connLatencyUs[c].end());
    report.set("cluster.hop_p50_us",
               pct(routed, 0.5) -
                   pct(gen.connLatencyUs[kConnections - 1], 0.5));
}

/** Flip one bit of the reference (--tamper-reference). */
void
tamper(Replayer &reference, const Options &opt)
{
    if (opt.tamperReference && !reference.digests.empty())
        reference.digests.begin()->second.sum ^= 1;
}

/** The served replies must match the serial reference's outcomes. */
void
checkServed(const Replayer &reference, const DigestMap &served,
            RunOutcome &out)
{
    if (!digestsMatch(reference.digests, served, "served replies"))
        fail(out, "served predictions differ from the serial reference");
}

/**
 * The ladder on a stack that has held: a step meets the limit when
 * every frame was answered, its p99 (windowed, as latency_p99_us) is
 * within the limit, and the backlog left when its last frame was sent
 * is no more than the limit's worth of frames. A step is cut short
 * once the backlog passes kAbortBacklogS of its rate. Two misses in a
 * row end the ladder. Returns the achieved rate of the highest step
 * met; every frame sent is fed to `reference`.
 */
double
climbLadder(Setup &setup, Replayer &reference, double seconds)
{
    Schedule &sch = *setup.schedule;
    cluster::Router *router = setup.stack->router.get();
    double sustained = 0.0;
    int misses = 0;
    for (std::size_t p = kHoldPhase + 1;
         p < sch.phases.size() && misses < 2; ++p) {
        sch.encodePhase(p);
        const double rate = sch.phases[p].rate;
        const std::size_t lagFrom = setup.gen->lagUs.size();
        const PhaseResult step = setup.gen->run(
            p, router, static_cast<std::uint64_t>(rate * kAbortBacklogS));
        const double stepP99 = windowedQuantile(step, 0.99, kStepWindowRank);
        const bool ok =
            step.answered == step.sent &&
            step.sent == sch.phases[p].last - sch.phases[p].first &&
            stepP99 <= kLatencyLimitUs &&
            static_cast<double>(step.backlogAtEnd) <=
                rate * kLatencyLimitUs * 1e-6;
        std::vector<double> lag(setup.gen->lagUs.begin() +
                                    static_cast<std::ptrdiff_t>(lagFrom),
                                setup.gen->lagUs.end());
        std::printf("  ladder %.0f frames/s: achieved %.0f, windowed p99 "
                    "%.1f us, backlog at end %llu, lag p99 %.1f us -> %s\n",
                    rate, step.achievedRate, stepP99,
                    static_cast<unsigned long long>(step.backlogAtEnd),
                    pct(lag, 0.99), ok ? "meets the limit" : "misses");
        misses = ok ? 0 : misses + 1;
        if (ok)
            sustained = step.achievedRate;
        reference.feed(sch.frames, sch.phases[p].first,
                       sch.phases[p].first + step.sent);
        sch.releasePhase(p);
    }
    std::printf("  sustained %.0f frames/s (%.2f s steps)\n", sustained,
                kStepShare * seconds);
    return sustained;
}

} // namespace

RunOutcome
runServe(const Options &opt, Report &report, SpanLog &spans, bool cluster)
{
    RunOutcome out;
    const char *name = cluster ? "cluster" : "serve";
    const double hold = holdRate(cluster);

    if (opt.trace) {
        // Untraced then traced stack on the same schedule (warm-up and
        // hold only): the traced one gives the per-layer numbers, the
        // pair gives the tracing overhead.
        const auto phases = phasesFor(cluster, opt.seconds, true);
        DigestMap plainDigests;
        double plainP50 = 0.0;
        {
            Setup plain;
            if (!makeSetup(plain, opt.seed, phases, cluster, 0, false,
                           nullptr)) {
                fail(out, "stack start-up failed");
                return out;
            }
            plain.gen->run(kWarmupPhase, plain.stack->router.get());
            PhaseResult res =
                plain.gen->run(kHoldPhase, plain.stack->router.get());
            plain.stack->stop();
            checkConservation(plain, out);
            plainP50 = windowedQuantile(res, 0.5, kHoldWindowRank);
            plainDigests = plain.gen->digests;
        }

        telemetry::TelemetrySession telemetry;
        Setup traced;
        if (!makeSetup(traced, opt.seed, phases, cluster, kSpanEvery,
                       cluster, &spans)) {
            fail(out, "traced stack start-up failed");
            return out;
        }
        traced.gen->run(kWarmupPhase, traced.stack->router.get());
        PhaseResult res =
            traced.gen->run(kHoldPhase, traced.stack->router.get());
        traced.stack->stop();
        checkConservation(traced, out);
        report.set("trace.overhead_frac",
                   windowedQuantile(res, 0.5, kHoldWindowRank) / plainP50 -
                       1.0);
        reportStackLayers(traced, telemetry.registry(), report);

        Replayer reference(0);
        const double refSeconds = reference.feed(
            traced.schedule->frames, 0, traced.gen->sentUpTo);
        tamper(reference, opt);
        checkServed(reference, traced.gen->digests, out);
        if (!digestsMatch(reference.digests, plainDigests,
                          "untraced served replies"))
            fail(out, "untraced served predictions differ");
        probeLayers(traced.schedule->frames,
                    std::min(kProbeFrames, traced.gen->sentUpTo),
                    reference.engine(), nullptr, report, spans, out);
        const double serialNs = refSeconds * 1e9 /
                                static_cast<double>(reference.events);
        report.set("engine.route_ns_per_event",
                   serialNs - report.get("wire.decode_ns_per_event") -
                       report.get("session.apply_ns_per_event"));
        report.notApplicable("ledger.residual_frac");
        return out;
    }

    // Untraced: kStacks fresh stacks in turn, each set up, warmed up,
    // held at the hold rate and then driven up the ladder. Latency
    // percentiles are taken over the windows of all holds together,
    // the sustained rate is the best stack's (see README.md).
    const auto phases = phasesFor(cluster, opt.seconds, false);
    std::vector<double> setupS;
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> p999;
    std::vector<double> sustained;
    std::vector<double> serialEps;
    std::vector<double> threadedEps;
    for (int k = 0; k < kStacks; ++k) {
        Setup setup;
        const std::uint64_t t0 = nowNs();
        if (!makeSetup(setup, opt.seed, phases, cluster, 0, false,
                       nullptr)) {
            fail(out, "stack start-up failed");
            return out;
        }
        setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        Schedule &sch = *setup.schedule;
        if (k == 0)
            std::printf("%s: %zu sessions on %zu connections, %d stacks "
                        "each holding %.0f frames/s for %zu frames after "
                        "a %zu-frame warm-up, then climbing the ladder\n",
                        name, kSessions, kConnections, kStacks, hold,
                        sch.phases[kHoldPhase].last -
                            sch.phases[kHoldPhase].first,
                        sch.phases[kWarmupPhase].last -
                            sch.phases[kWarmupPhase].first);
        cluster::Router *router = setup.stack->router.get();
        setup.gen->run(kWarmupPhase, router);
        const PhaseResult holdRes = setup.gen->run(kHoldPhase, router);
        // On `cluster` each p999 window holds one migration.
        std::vector<double> stackP999;
        if (cluster)
            flipWindowQuantiles(holdRes, 0.999, stackP999);
        else
            windowQuantiles(holdRes, 0.999, stackP999);
        windowQuantiles(holdRes, 0.50, p50);
        windowQuantiles(holdRes, 0.99, p99);
        p999.insert(p999.end(), stackP999.begin(), stackP999.end());
        const std::vector<double> &all = holdRes.latencyUs;
        std::printf("stack %d hold: windowed p50 %.1f us, p99 %.1f us, "
                    "p999 %.1f us; whole phase p99 %.1f us, p999 %.1f "
                    "us, max %.1f us; generator lag p99 %.1f us\n",
                    k, windowedQuantile(holdRes, 0.50, kHoldWindowRank),
                    windowedQuantile(holdRes, 0.99, kHoldWindowRank),
                    quantile(stackP999, kHoldWindowRank), pct(all, 0.99),
                    pct(all, 0.999), pct(all, 1.0),
                    pct(setup.gen->lagUs, 0.99));

        // The correctness reference: a serial engine fed the frames
        // this stack was sent, phase by phase; a phase's bytes are
        // freed once the reference has them.
        Replayer reference(0);
        reference.feed(sch.frames, 0, sch.phases[kHoldPhase].last);
        tamper(reference, opt);
        // In-process throughput on this workload's frames: the warm-up
        // and hold frames, alternately through a serial and a threaded
        // engine; the best pass of each over all stacks.
        const std::size_t timed = sch.phases[kHoldPhase].last;
        for (int r = 0; r < kReplayPasses; ++r) {
            const Replay serial = replay(sch.frames, timed, 0);
            const Replay threaded = replay(sch.frames, timed, 3);
            if (!digestsMatch(serial.digests, threaded.digests,
                              "threaded replay"))
                fail(out, "threaded replay differs from the serial one");
            serialEps.push_back(serial.eventsPerSecond());
            threadedEps.push_back(threaded.eventsPerSecond());
        }
        sch.releasePhase(kWarmupPhase);
        sch.releasePhase(kHoldPhase);
        sustained.push_back(climbLadder(setup, reference, opt.seconds));
        setup.stack->stop();
        checkConservation(setup, out);
        checkServed(reference, setup.gen->digests, out);
    }
    report.set("setup_s", median(setupS));
    report.set("latency_p50_us", quantile(p50, kHoldWindowRank));
    report.set("latency_p99_us", quantile(p99, kHoldWindowRank));
    report.set("latency_p999_us", quantile(p999, kHoldWindowRank));
    report.set("sustained_frames_per_s", best(sustained, true));
    report.set("serial_events_per_s", best(serialEps, true));
    report.set("threaded_events_per_s", best(threadedEps, true));
    return out;
}

} // namespace perfbench
