/**
 * @file
 * Fault-injection and resilience tests: the injector's determinism
 * contract (same seed, same fault schedule), wire-format resync after
 * corruption (at most the quarantined frame is lost), session error
 * budgets with exponential re-admission backoff, allocation-failure
 * gating, delayed-frame redelivery, the degradation policy's
 * enter/exit discipline, and load shedding under sustained overload.
 *
 * Everything except the threaded overload tests runs the engine in
 * serial mode, where the injection schedule is a pure function of
 * the fault seed and the submission order - so every count asserted
 * here is exact, not a bound. The threaded shedding tests hold the
 * worker inside a completion callback, which makes their queue state
 * (and so their counts) exact too.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamo/flush.hh"
#include "engine/engine.hh"
#include "engine/wire_format.hh"
#include "sim/trace_log.hh"
#include "support/fault_injector.hh"
#include "support/random.hh"

using namespace hotpath;
using namespace hotpath::engine;

namespace
{

/** Loop-heavy event frames for one session (exact same shape the
 *  engine determinism tests use). */
std::vector<std::vector<std::uint8_t>>
makeFrames(std::uint64_t session, std::size_t frames,
           std::size_t events_per_frame, std::uint64_t first_sequence = 0)
{
    std::vector<std::vector<std::uint8_t>> out;
    std::uint64_t sequence = first_sequence;
    for (std::size_t f = 0; f < frames; ++f) {
        std::vector<PathEvent> events;
        for (std::size_t i = 0; i < events_per_frame; ++i) {
            const std::uint32_t loop =
                static_cast<std::uint32_t>((f * events_per_frame + i) % 8);
            PathEvent event;
            event.path = loop * 10;
            event.head = loop;
            event.blocks = 4 + loop;
            event.branches = 3 + loop;
            event.instructions = 30 + 5 * loop;
            events.push_back(event);
        }
        std::vector<std::uint8_t> frame;
        wire::appendEventFrame(frame, session, sequence++, events);
        out.push_back(std::move(frame));
    }
    return out;
}

/** A frame whose header parses but whose CRC fails (decode-time
 *  corruption, attributable to its session). */
std::vector<std::uint8_t>
corruptCrc(std::vector<std::uint8_t> frame)
{
    frame.back() ^= 0xFF;
    return frame;
}

/**
 * Records every completion of a one-worker engine and holds the
 * worker inside the callback of sequence 0 until release(), so the
 * frames submitted meanwhile meet a queue nobody drains.
 */
class HeldWorker
{
  public:
    explicit HeldWorker(Engine &eng)
    {
        eng.setFrameCallback([this](const FrameOutcome &outcome) {
            std::unique_lock<std::mutex> lock(mu);
            outcomes.emplace_back(outcome.sequence, outcome.applied);
            if (outcome.sequence != 0)
                return;
            held = true;
            cv.notify_all();
            cv.wait(lock, [this] { return released; });
        });
    }

    void
    waitHeld()
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return held; });
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            released = true;
        }
        cv.notify_all();
    }

    /** (sequence, applied) per completion, in completion order. */
    std::vector<std::pair<std::uint64_t, bool>>
    completions()
    {
        std::lock_guard<std::mutex> lock(mu);
        return outcomes;
    }

  private:
    std::mutex mu;
    std::condition_variable cv;
    bool held = false;
    bool released = false;
    std::vector<std::pair<std::uint64_t, bool>> outcomes;
};

} // namespace

// FaultInjector ----------------------------------------------------

TEST(FaultInjector, SameSeedSameSchedule)
{
    fault::FaultPlan plan;
    plan.seed = 12345;
    plan.site(fault::Site::WireBitFlip).probability = 0.3;
    plan.site(fault::Site::FrameDrop).everyN = 5;

    fault::FaultInjector a(plan);
    fault::FaultInjector b(plan);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t auxA = 0;
        std::uint64_t auxB = 0;
        ASSERT_EQ(a.shouldInject(fault::Site::WireBitFlip, &auxA),
                  b.shouldInject(fault::Site::WireBitFlip, &auxB));
        ASSERT_EQ(auxA, auxB);
        ASSERT_EQ(a.shouldInject(fault::Site::FrameDrop),
                  b.shouldInject(fault::Site::FrameDrop));
    }
    ASSERT_EQ(a.counters(fault::Site::WireBitFlip).injected,
              b.counters(fault::Site::WireBitFlip).injected);
    ASSERT_GT(a.counters(fault::Site::WireBitFlip).injected, 0u);

    // A different seed produces a different probabilistic schedule.
    fault::FaultPlan reseeded = plan;
    reseeded.seed = 54321;
    fault::FaultInjector a2(plan);
    fault::FaultInjector c(reseeded);
    bool any_difference = false;
    for (int i = 0; i < 1000; ++i)
        any_difference |=
            a2.shouldInject(fault::Site::WireBitFlip) !=
            c.shouldInject(fault::Site::WireBitFlip);
    ASSERT_TRUE(any_difference);
}

TEST(FaultInjector, EveryNFiresExactly)
{
    fault::FaultPlan plan;
    plan.site(fault::Site::WireTruncate).everyN = 7;
    fault::FaultInjector injector(plan);
    for (std::uint64_t n = 1; n <= 70; ++n)
        ASSERT_EQ(injector.shouldInject(fault::Site::WireTruncate),
                  n % 7 == 0)
            << "opportunity " << n;
    ASSERT_EQ(injector.counters(fault::Site::WireTruncate).opportunities,
              70u);
    ASSERT_EQ(injector.counters(fault::Site::WireTruncate).injected,
              10u);
    ASSERT_EQ(injector.totalInjected(), 10u);
}

TEST(FaultInjector, UnarmedPlanNeverFires)
{
    fault::FaultPlan plan;
    ASSERT_FALSE(plan.enabled());
    fault::FaultInjector injector(plan);
    for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
        const auto site = static_cast<fault::Site>(s);
        ASSERT_FALSE(injector.armed(site));
        for (int i = 0; i < 100; ++i)
            ASSERT_FALSE(injector.shouldInject(site));
        // Unarmed sites do not even pay the opportunity counter.
        ASSERT_EQ(injector.counters(site).opportunities, 0u);
    }
}

// Wire-format resync -----------------------------------------------

namespace
{

/** What scanning one stream handed on and skipped. */
struct ScanLog
{
    /** (stream offset, length) of every frame handed on. */
    std::vector<std::pair<std::size_t, std::size_t>> frames;
    std::uint64_t resyncs = 0;
    std::uint64_t skipped = 0;
    /** Bytes still held back when the stream ended. */
    std::size_t pending = 0;

    bool
    operator==(const ScanLog &o) const
    {
        return frames == o.frames && resyncs == o.resyncs &&
               skipped == o.skipped && pending == o.pending;
    }
};

/** How the reader under test treats the frames it is shown. */
struct Reader
{
    /** Decode each frame and call it corrupt when that fails (the
     *  client's discipline); otherwise take every header that
     *  parses (the server's and router's). */
    bool decode = false;
    /** Stop after every n-th frame and resume at once (a paused
     *  server connection); 0 = never. */
    std::size_t stopEvery = 0;
};

/**
 * Feed `stream` to wire::scanFrames in reads that end at each of
 * `cuts` (ascending) and then at the end, keeping the unconsumed
 * bytes between reads as the socket readers do. `onTaken` sees each
 * frame handed on.
 */
template <typename Taken>
ScanLog
scanInReads(const std::vector<std::uint8_t> &stream,
            const std::vector<std::size_t> &cuts, Reader reader,
            Taken &&onTaken)
{
    ScanLog log;
    wire::ScanState state;
    std::vector<std::uint8_t> pending;
    std::size_t base = 0; // stream offset of pending[0]
    std::size_t fed = 0;
    const auto feed = [&](std::size_t to) {
        pending.insert(pending.end(),
                       stream.begin() + static_cast<std::ptrdiff_t>(fed),
                       stream.begin() + static_cast<std::ptrdiff_t>(to));
        fed = to;
        bool stopped = true;
        while (stopped) {
            stopped = false;
            const wire::ScanResult result = wire::scanFrames(
                pending.data(), pending.size(), state,
                [&](const wire::FrameHeader &, std::size_t off,
                    std::size_t len) {
                    if (reader.decode) {
                        std::size_t at = off;
                        wire::DecodedFrame frame;
                        if (wire::decodeFrame(pending.data(),
                                              pending.size(), at,
                                              frame) !=
                            wire::DecodeStatus::Ok)
                            return wire::FrameVerdict::Corrupt;
                        onTaken(frame);
                    }
                    log.frames.emplace_back(base + off, len);
                    if (reader.stopEvery != 0 &&
                        log.frames.size() % reader.stopEvery == 0) {
                        stopped = true;
                        return wire::FrameVerdict::Stop;
                    }
                    return wire::FrameVerdict::Next;
                });
            log.resyncs += result.resyncs;
            log.skipped += result.bytesSkipped;
            pending.erase(pending.begin(),
                          pending.begin() + static_cast<std::ptrdiff_t>(
                                                result.consumed));
            base += result.consumed;
        }
    };
    for (const std::size_t cut : cuts)
        feed(cut);
    feed(stream.size());
    log.pending = pending.size();
    return log;
}

ScanLog
scanInReads(const std::vector<std::uint8_t> &stream,
            const std::vector<std::size_t> &cuts, Reader reader)
{
    return scanInReads(stream, cuts, reader,
                       [](const wire::DecodedFrame &) {});
}

/** A byte stream of frames and damage. */
struct DamagedStream
{
    std::vector<std::uint8_t> bytes;
    /** (offset, length) of every frame left intact, ascending. */
    std::vector<std::pair<std::size_t, std::size_t>> intact;
};

void
appendIntact(DamagedStream &stream, const std::vector<std::uint8_t> &frame)
{
    stream.intact.emplace_back(stream.bytes.size(), frame.size());
    stream.bytes.insert(stream.bytes.end(), frame.begin(), frame.end());
}

/** Line noise that looks like the start of a frame: random bytes,
 *  then the magic, a valid kind and header varints whose payload
 *  length may reach over the frames that follow (or, rarely, one
 *  varint that never ends). */
void
appendFakeHeader(std::vector<std::uint8_t> &out, Rng &rng)
{
    for (std::uint64_t n = rng.nextBounded(24); n > 0; --n)
        out.push_back(static_cast<std::uint8_t>(rng.nextBounded(256)));
    out.push_back('H');
    out.push_back('F');
    out.push_back(static_cast<std::uint8_t>(1 + rng.nextBounded(4)));
    if (rng.nextBool(0.1)) {
        out.insert(out.end(), 11, 0x80);
        return;
    }
    for (int field = 0; field < 3; ++field)
        wire::appendVarint(out, rng.nextBounded(300));
    wire::appendVarint(out, rng.nextBounded(400));
}

DamagedStream
makeDamagedStream(Rng &rng)
{
    DamagedStream stream;
    const std::uint64_t pieces = 4 + rng.nextBounded(8);
    for (std::uint64_t p = 0; p < pieces; ++p) {
        std::vector<PathEvent> events(1 + rng.nextBounded(12));
        for (PathEvent &event : events) {
            event.path = static_cast<std::uint32_t>(rng.nextBounded(64));
            event.head = static_cast<std::uint32_t>(rng.nextBounded(16));
            event.blocks = 1 + static_cast<std::uint32_t>(rng.nextBounded(8));
            event.branches = static_cast<std::uint32_t>(rng.nextBounded(8));
            event.instructions =
                static_cast<std::uint32_t>(rng.nextBounded(100));
        }
        std::vector<std::uint8_t> frame;
        wire::appendEventFrame(frame, 1 + rng.nextBounded(4), p, events);
        switch (rng.nextBounded(5)) {
        case 0: // bit flip
            frame[rng.nextBounded(frame.size())] ^=
                static_cast<std::uint8_t>(1u << rng.nextBounded(8));
            stream.bytes.insert(stream.bytes.end(), frame.begin(),
                                frame.end());
            break;
        case 1: // cut short
            frame.resize(1 + rng.nextBounded(frame.size() - 1));
            stream.bytes.insert(stream.bytes.end(), frame.begin(),
                                frame.end());
            break;
        case 2: // garbage in front of an intact frame
            appendFakeHeader(stream.bytes, rng);
            appendIntact(stream, frame);
            break;
        default:
            appendIntact(stream, frame);
            break;
        }
    }
    return stream;
}

/** The damage that lost frames to the way TCP split the bytes:
 *  [frame0][0x00][7-byte fake header whose length covers frame1]
 *  [frame1..3]. */
DamagedStream
makeFakeHeaderOverFrames()
{
    const auto frames = makeFrames(/*session=*/1, /*frames=*/4,
                                   /*events_per_frame=*/8);
    DamagedStream stream;
    appendIntact(stream, frames[0]);
    stream.bytes.push_back(0x00);
    const std::uint8_t fake[] = {
        'H', 'F', 1, 1, 0, 1,
        static_cast<std::uint8_t>(frames[1].size())};
    stream.bytes.insert(stream.bytes.end(), std::begin(fake),
                        std::end(fake));
    for (std::size_t f = 1; f < frames.size(); ++f)
        appendIntact(stream, frames[f]);
    return stream;
}

/** `n` ascending cut points strictly inside [1, size). */
std::vector<std::size_t>
randomCuts(Rng &rng, std::size_t size, std::size_t n)
{
    std::vector<std::size_t> cuts;
    for (std::size_t i = 0; i < n && size > 1; ++i)
        cuts.push_back(1 + rng.nextBounded(size - 1));
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

} // namespace

TEST(WireResync, FrameBoundarySkipsCorruption)
{
    const auto frames = makeFrames(/*session=*/9, /*frames=*/4,
                                   /*events_per_frame=*/32);
    std::vector<std::uint8_t> buffer;
    std::vector<std::size_t> starts;
    for (const auto &frame : frames) {
        starts.push_back(buffer.size());
        buffer.insert(buffer.end(), frame.begin(), frame.end());
    }

    // Clean buffer: every frame start is found from just before it.
    bool complete = false;
    for (std::size_t f = 0; f < starts.size(); ++f) {
        ASSERT_EQ(wire::findFrameBoundary(
                      buffer.data(), buffer.size(),
                      f == 0 ? 0 : starts[f - 1] + 1, &complete),
                  starts[f]);
        ASSERT_TRUE(complete);
    }

    // Corrupt frame 1's payload: scanning from inside it lands on
    // frame 2, never on a fabricated boundary inside the damage.
    buffer[starts[1] + 10] ^= 0x40;
    ASSERT_EQ(wire::findFrameBoundary(buffer.data(), buffer.size(),
                                      starts[1], &complete),
              starts[2]);
    ASSERT_TRUE(complete);

    // No frame after the last one: the rest is garbage.
    ASSERT_EQ(wire::findFrameBoundary(buffer.data(), buffer.size(),
                                      starts.back() + 1, &complete),
              buffer.size());
    ASSERT_FALSE(complete);
}

TEST(WireResync, ScanIsIndependentOfHowTheStreamIsSplit)
{
    // Seeded streams of bit flips, cut-short frames and fake headers
    // (stream 0 is the fixed fake-header-over-frames case). Fed
    // whole, split at every offset, and in random multi-read
    // chunkings, each reader must hand on the same frames, skip the
    // same bytes and count the same resyncs. A decoding reader must
    // also hand on exactly the intact frames (nothing fabricated,
    // nothing lost) except those held behind a frame still arriving.
    const Reader readers[] = {
        {false, 0}, {false, 3}, {true, 0}, {true, 2}};
    Rng rng(0x5ca9f4a3e5ull);
    std::size_t chunkings = 0;
    for (int s = 0; s < 60; ++s) {
        const DamagedStream stream =
            s == 0 ? makeFakeHeaderOverFrames() : makeDamagedStream(rng);
        const std::vector<std::uint8_t> &bytes = stream.bytes;
        for (const Reader reader : readers) {
            const ScanLog whole = scanInReads(bytes, {}, reader);
            if (reader.decode) {
                std::vector<std::pair<std::size_t, std::size_t>> expect;
                for (const auto &frame : stream.intact)
                    if (frame.first < bytes.size() - whole.pending)
                        expect.push_back(frame);
                ASSERT_EQ(whole.frames, expect) << "stream " << s;
            }
            for (std::size_t cut = 1; cut < bytes.size(); ++cut)
                ASSERT_TRUE(scanInReads(bytes, {cut}, reader) == whole)
                    << "stream " << s << " split at " << cut;
            for (int c = 0; c < 8; ++c, ++chunkings) {
                const auto cuts =
                    randomCuts(rng, bytes.size(), 1 + rng.nextBounded(40));
                ASSERT_TRUE(scanInReads(bytes, cuts, reader) == whole)
                    << "stream " << s << " chunking " << c;
            }
        }
    }
    EXPECT_GE(chunkings, 200u);
}

TEST(WireResync, ResilientTraceLogDecodeLosesOnlyQuarantinedFrame)
{
    TraceLog log;
    for (std::uint32_t i = 0; i < 1000; ++i)
        log.append(i % 17);
    const std::vector<std::uint8_t> bytes =
        wire::encodeTraceLog(log, /*session=*/3, /*frame_events=*/100);
    std::vector<std::size_t> starts;
    std::vector<std::size_t> payloads;
    for (std::size_t off = 0; off < bytes.size();) {
        starts.push_back(off);
        wire::DecodedFrame frame;
        ASSERT_EQ(wire::decodeFrame(bytes.data(), bytes.size(), off,
                                    frame),
                  wire::DecodeStatus::Ok);
        std::size_t cur = starts.back() + 3;
        std::uint64_t field = 0;
        for (int f = 0; f < 4; ++f)
            ASSERT_TRUE(wire::readVarint(bytes.data(), bytes.size(), cur,
                                         field));
        payloads.push_back(cur);
    }
    ASSERT_EQ(starts.size(), 10u);
    starts.push_back(bytes.size());

    // Flip one bit of frame f's magic, kind, payload or CRC. (Header
    // varints are left alone: a length that grows past the end of
    // the stream is indistinguishable from a frame still arriving.)
    Rng rng(0x7e57ull);
    const Reader decoding{true, 0};
    for (std::size_t f = 0; f + 1 < starts.size(); ++f) {
        for (int trial = 0; trial < 6; ++trial) {
            const std::size_t span = 3 + starts[f + 1] - payloads[f];
            std::size_t at = rng.nextBounded(span);
            at = at < 3 ? starts[f] + at : payloads[f] + at - 3;
            std::vector<std::uint8_t> damaged = bytes;
            damaged[at] ^= static_cast<std::uint8_t>(
                1u << rng.nextBounded(8));

            const auto cuts = randomCuts(rng, damaged.size(),
                                         rng.nextBounded(30));
            TraceLog out;
            const ScanLog scan = scanInReads(
                damaged, cuts, decoding,
                [&](const wire::DecodedFrame &frame) {
                    out.appendAll(frame.blocks);
                });
            ASSERT_EQ(scan.frames.size(), 9u) << "frame " << f;
            EXPECT_EQ(scan.resyncs, 1u);
            EXPECT_EQ(scan.skipped, starts[f + 1] - starts[f]);
            EXPECT_EQ(scan.pending, 0u);
            std::vector<BlockId> expect = log.sequence();
            expect.erase(expect.begin() + static_cast<std::ptrdiff_t>(
                                              100 * f),
                         expect.begin() + static_cast<std::ptrdiff_t>(
                                              100 * (f + 1)));
            ASSERT_EQ(out.sequence(), expect) << "frame " << f;

            // The plain decoder stops at the damage (its contract).
            TraceLog strict;
            ASSERT_NE(wire::decodeTraceLog(damaged.data(),
                                           damaged.size(), strict),
                      wire::DecodeStatus::Ok);
        }
    }
}

TEST(EngineResilience, SubmitBufferResyncsAfterCorruptHeader)
{
    // An event stream cut by the scanner and fed to an engine: destroy
    // frame 2's magic and only its 64 events go missing.
    const auto frames = makeFrames(/*session=*/5, /*frames=*/6,
                                   /*events_per_frame=*/64);
    std::vector<std::uint8_t> buffer;
    std::size_t lost = 0;
    for (std::size_t f = 0; f < frames.size(); ++f) {
        if (f == 2)
            lost = frames[f].size();
        buffer.insert(buffer.end(), frames[f].begin(), frames[f].end());
    }
    buffer[frames[0].size() + frames[1].size()] = 0x00;

    EngineConfig config;
    config.workerThreads = 0;
    Engine eng(config);
    wire::ScanState state;
    const wire::ScanResult scan = wire::scanFrames(
        buffer.data(), buffer.size(), state,
        [&](const wire::FrameHeader &, std::size_t off, std::size_t len) {
            EXPECT_TRUE(eng.submit(std::vector<std::uint8_t>(
                buffer.begin() + static_cast<std::ptrdiff_t>(off),
                buffer.begin() + static_cast<std::ptrdiff_t>(off + len))));
            return wire::FrameVerdict::Next;
        });
    eng.drain();
    EXPECT_EQ(scan.consumed, buffer.size());
    EXPECT_EQ(scan.resyncs, 1u);
    EXPECT_EQ(scan.bytesSkipped, lost);
    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesSubmitted, 5u);
    EXPECT_EQ(stats.framesDecoded, 5u);
    EXPECT_EQ(stats.framesRejected, 0u);
    EXPECT_EQ(stats.eventsProcessed, 5u * 64u);
}

TEST(WireResync, OverlongHeaderVarintIsCorruptNotTruncated)
{
    // A header varint that runs past 10 bytes can never complete, so
    // it must not hold the rest of the stream back as "still
    // arriving".
    std::vector<std::uint8_t> bytes = {'H', 'F', 1};
    bytes.insert(bytes.end(), 11, 0x80);
    const std::size_t fake = bytes.size();
    const auto frames = makeFrames(/*session=*/2, /*frames=*/1,
                                   /*events_per_frame=*/4);
    bytes.insert(bytes.end(), frames[0].begin(), frames[0].end());

    wire::FrameHeader header;
    std::size_t frame_end = 0;
    EXPECT_EQ(wire::peekFrameHeader(bytes.data(), bytes.size(), 0,
                                    header, frame_end),
              wire::DecodeStatus::BadLength);
    const ScanLog scan = scanInReads(bytes, {}, Reader{});
    ASSERT_EQ(scan.frames.size(), 1u);
    EXPECT_EQ(scan.frames[0].first, fake);
    EXPECT_EQ(scan.resyncs, 1u);
    EXPECT_EQ(scan.skipped, fake);
    EXPECT_EQ(scan.pending, 0u);
}

// Error budget and re-admission backoff ----------------------------

TEST(EngineResilience, BackoffReadmissionTiming)
{
    EngineConfig config;
    config.workerThreads = 0;
    config.sessions.session.errorBudget = 2;
    config.sessions.session.backoffBaseFrames = 4;

    Engine eng(config);
    const std::uint64_t id = 1;
    std::uint64_t sequence = 0;
    const auto good = [&](std::size_t n) {
        for (const auto &frame :
             makeFrames(id, n, /*events_per_frame=*/16, sequence))
            ASSERT_TRUE(eng.submit(frame));
        sequence += n;
    };
    const auto bad = [&](std::size_t n) {
        for (const auto &frame :
             makeFrames(id, n, /*events_per_frame=*/16, sequence))
            eng.submit(corruptCrc(frame));
        sequence += n;
    };

    good(5); // healthy traffic
    bad(2);  // exhausts the budget: poison #1, backoff = 4 frames
    good(4); // all dropped in backoff; the 4th re-admits
    good(3); // applied again
    bad(2);  // poison #2: backoff doubles to 8 frames
    good(8); // dropped; the 8th re-admits
    good(2); // applied
    eng.drain();

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesSubmitted, 26u);
    EXPECT_EQ(stats.framesRejected, 4u);
    EXPECT_EQ(stats.rejects.badCrc, 4u);
    EXPECT_EQ(stats.framesDecoded, 22u);
    EXPECT_EQ(stats.fault.sessionsPoisoned, 2u);
    EXPECT_EQ(stats.fault.sessionsRebuilt, 2u);
    EXPECT_EQ(stats.fault.sessionsReadmitted, 2u);
    EXPECT_EQ(stats.fault.backoffDroppedFrames, 12u);
    EXPECT_EQ(stats.fault.framesApplied, 10u);
    // Conservation: nothing lost silently.
    EXPECT_EQ(stats.framesSubmitted,
              stats.framesRejected + stats.framesDecoded);
    EXPECT_EQ(stats.framesDecoded,
              stats.fault.framesApplied +
                  stats.fault.backoffDroppedFrames +
                  stats.fault.allocDroppedFrames);
}

// Allocation-failure gating ----------------------------------------

TEST(EngineResilience, AllocFailureDropsFramesVisibly)
{
    EngineConfig config;
    config.workerThreads = 0;
    config.faults.seed = 11;
    config.faults.site(fault::Site::AllocFail).everyN = 2;

    Engine eng(config);
    // Ten sessions, two frames each. Creation opportunities run
    // 1, 2, 3, ... and every even one fails: session 1 creates on
    // its first frame; each later session loses its first frame to
    // the injected failure and creates on its second.
    for (std::uint64_t id = 1; id <= 10; ++id)
        for (const auto &frame : makeFrames(id, 2, 8))
            ASSERT_TRUE(eng.submit(frame));
    eng.drain();

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesDecoded, 20u);
    EXPECT_EQ(stats.fault.injectedAllocFails, 9u);
    EXPECT_EQ(stats.fault.allocDroppedFrames, 9u);
    EXPECT_EQ(stats.fault.framesApplied, 11u);
    EXPECT_EQ(stats.sessionsCreated, 10u);
    EXPECT_EQ(stats.framesDecoded,
              stats.fault.framesApplied +
                  stats.fault.backoffDroppedFrames +
                  stats.fault.allocDroppedFrames);
}

// Delayed frames ---------------------------------------------------

TEST(EngineResilience, DelayedFramesAllDeliveredByDrain)
{
    EngineConfig config;
    config.workerThreads = 0;
    config.delayWindowFrames = 5;
    config.faults.seed = 23;
    config.faults.site(fault::Site::FrameDelay).everyN = 3;

    Engine eng(config);
    for (const auto &frame : makeFrames(/*session=*/4, 30, 8))
        ASSERT_TRUE(eng.submit(frame));
    eng.drain();

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesSubmitted, 30u);
    EXPECT_EQ(stats.fault.injectedDelays, 10u);
    EXPECT_EQ(stats.fault.delayedDelivered, 10u);
    // Every frame - delayed or not - was eventually decoded and
    // applied; the damage is reordering, visible as sequence gaps.
    EXPECT_EQ(stats.framesDecoded, 30u);
    EXPECT_EQ(stats.fault.framesApplied, 30u);
    std::uint64_t gaps = 0;
    ASSERT_TRUE(eng.withSessionStats(4, [&](const Session &session) {
        gaps = session.stats().sequenceGaps;
    }));
    EXPECT_GT(gaps, 0u);
}

// Degradation policy -----------------------------------------------

TEST(DegradationPolicy, EntersAndExitsDeterministically)
{
    DegradationPolicyConfig config;
    config.spike.windowEvents = 4;
    config.spike.spikeFloor = 2;
    config.spike.spikeFactor = 1.0;
    config.spike.smoothing = 0.5;
    config.spike.warmupWindows = 1;
    config.degradedWindows = 2;

    DegradationPolicy policy(config);
    const auto feedWindow = [&](bool pressure) {
        DegradationMode mode = policy.mode();
        for (std::uint64_t i = 0; i < config.spike.windowEvents; ++i)
            mode = policy.onEvent(pressure);
        return mode;
    };

    ASSERT_EQ(policy.mode(), DegradationMode::Normal);
    // Warmup window: even full pressure cannot trigger yet.
    ASSERT_EQ(feedWindow(true), DegradationMode::Normal);
    // First live window of sustained pressure: spike, degrade.
    ASSERT_EQ(feedWindow(true), DegradationMode::Degraded);
    ASSERT_EQ(policy.degradedEntries(), 1u);
    // Pressure persists: stays degraded.
    ASSERT_EQ(feedWindow(true), DegradationMode::Degraded);
    // Two quiet windows: recovery.
    ASSERT_EQ(feedWindow(false), DegradationMode::Degraded);
    ASSERT_EQ(feedWindow(false), DegradationMode::Normal);
    // Post-recovery warmup window is spike-blind (settle()
    // discipline), then the detector is live again.
    ASSERT_EQ(feedWindow(true), DegradationMode::Normal);
    ASSERT_EQ(feedWindow(true), DegradationMode::Degraded);
    ASSERT_EQ(policy.degradedEntries(), 2u);
}

// Load shedding + worker stalls (threaded; bounds, not exact counts)

TEST(EngineResilience, LoadShedPreservesHitRateWithinBounds)
{
    const std::size_t kFrames = 400;
    const std::size_t kEventsPerFrame = 32;

    // Overloaded threaded run: one worker, a tiny queue, injected
    // worker stalls (released by the watchdog) and drop-oldest
    // shedding under a fast-reacting degradation policy.
    EngineConfig config;
    config.workerThreads = 1;
    config.queueCapacityFrames = 4;
    config.maxBatchFrames = 2;
    config.overloadPolicy = OverloadPolicy::DropOldest;
    config.degradation.spike.windowEvents = 8;
    config.degradation.spike.spikeFloor = 2;
    config.degradation.spike.spikeFactor = 1.0;
    config.degradation.spike.smoothing = 0.5;
    config.degradation.spike.warmupWindows = 1;
    config.degradation.degradedWindows = 2;
    config.faults.seed = 31;
    config.faults.site(fault::Site::WorkerStall).everyN = 4;
    config.watchdogIntervalMs = 2;

    EngineStats stats;
    double shed_hit_rate = 0.0;
    {
        Engine eng(config);
        for (const auto &frame :
             makeFrames(/*session=*/8, kFrames, kEventsPerFrame))
            ASSERT_TRUE(eng.submit(frame));
        eng.drain();
        std::uint64_t cached = 0;
        std::uint64_t events = 0;
        ASSERT_TRUE(
            eng.withSessionStats(8, [&](const Session &session) {
                cached = session.stats().cachedEvents;
                events = session.stats().eventsProcessed;
            }));
        ASSERT_GT(events, 0u);
        shed_hit_rate =
            static_cast<double>(cached) / static_cast<double>(events);
        eng.shutdown();
        stats = eng.stats();
    }

    // Conservation holds whatever the thread timing did.
    EXPECT_EQ(stats.framesSubmitted,
              stats.framesRejected + stats.fault.injectedDrops +
                  stats.fault.shedFrames + stats.framesDecoded);
    EXPECT_EQ(stats.framesDecoded,
              stats.fault.framesApplied +
                  stats.fault.backoffDroppedFrames +
                  stats.fault.allocDroppedFrames);
    // Injected stalls were all released (watchdog or shutdown), or
    // the test would have hung at drain().
    EXPECT_LE(stats.fault.workersUnstalled,
              stats.fault.workersStalled);

    // Every frame in this traffic is identical (events cycle i % 8
    // within each frame) and a single session keeps FIFO order, so
    // the session's hit rate is a pure function of how many frames
    // were applied - regardless of *which* frames shedding dropped.
    // A clean serial run fed exactly that many frames must therefore
    // reproduce the shed run's hit rate exactly: shedding degrades
    // coverage (fewer events), never prediction quality.
    const std::uint64_t applied = stats.fault.framesApplied;
    ASSERT_GT(applied, 0u);
    EngineConfig reference;
    reference.workerThreads = 0;
    Engine ref(reference);
    for (const auto &frame : makeFrames(
             /*session=*/8, static_cast<std::size_t>(applied),
             kEventsPerFrame))
        ASSERT_TRUE(ref.submit(frame));
    ref.drain();
    double reference_hit_rate = 0.0;
    ASSERT_TRUE(ref.withSessionStats(8, [&](const Session &session) {
        reference_hit_rate =
            static_cast<double>(session.stats().cachedEvents) /
            static_cast<double>(session.stats().eventsProcessed);
    }));
    EXPECT_NEAR(shed_hit_rate, reference_hit_rate, 1e-12);
}

TEST(EngineResilience, ForcedDropOldestShedsOldestFramesInOrder)
{
    constexpr std::size_t kCapacity = 4;
    constexpr std::size_t kLater = 12;
    EngineConfig config;
    config.workerThreads = 1;
    config.queueCapacityFrames = kCapacity;
    config.maxBatchFrames = 1;
    config.overloadPolicy = OverloadPolicy::DropOldest;
    const auto frames = makeFrames(/*session=*/8, kLater + 1, 4);

    Engine eng(config);
    HeldWorker worker(eng);
    ASSERT_TRUE(eng.submit(frames[0]));
    worker.waitHeld();
    // The ring is empty and undrained: frames 1..kCapacity fill it,
    // and each later frame sheds the oldest queued one, on this
    // thread, before it is admitted.
    eng.setForcedShedding(true);
    for (std::size_t i = 1; i <= kLater; ++i)
        ASSERT_TRUE(eng.submit(frames[i]));
    worker.release();
    eng.drain();
    eng.shutdown();

    std::vector<std::pair<std::uint64_t, bool>> expected;
    expected.emplace_back(0, true);
    for (std::uint64_t seq = 1; seq <= kLater - kCapacity; ++seq)
        expected.emplace_back(seq, false);
    for (std::uint64_t seq = kLater - kCapacity + 1; seq <= kLater;
         ++seq)
        expected.emplace_back(seq, true);
    EXPECT_EQ(worker.completions(), expected);

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.fault.shedFrames, kLater - kCapacity);
    EXPECT_EQ(stats.backpressureWaits, 0u);
    EXPECT_EQ(stats.framesSubmitted,
              stats.framesRejected + stats.fault.injectedDrops +
                  stats.fault.shedFrames + stats.framesDecoded);
    EXPECT_EQ(stats.framesDecoded,
              stats.fault.framesApplied +
                  stats.fault.backoffDroppedFrames +
                  stats.fault.allocDroppedFrames);
    EXPECT_EQ(stats.fault.framesApplied, kCapacity + 1);
}

TEST(EngineResilience, ForcedSheddingUnderBlockShedsNothing)
{
    constexpr std::size_t kLater = 12;
    EngineConfig config;
    config.workerThreads = 1;
    config.queueCapacityFrames = 4;
    config.maxBatchFrames = 1;
    config.overloadPolicy = OverloadPolicy::Block;
    const auto frames = makeFrames(/*session=*/8, kLater + 1, 4);

    Engine eng(config);
    HeldWorker worker(eng);
    ASSERT_TRUE(eng.submit(frames[0]));
    worker.waitHeld();
    eng.setForcedShedding(true);
    std::thread producer([&] {
        for (std::size_t i = 1; i <= kLater; ++i)
            eng.submit(frames[i]);
    });
    // The producer parks on the full ring instead of shedding.
    while (eng.stats().backpressureWaits == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    worker.release();
    producer.join();
    eng.drain();
    eng.shutdown();

    std::vector<std::pair<std::uint64_t, bool>> expected;
    for (std::uint64_t seq = 0; seq <= kLater; ++seq)
        expected.emplace_back(seq, true);
    EXPECT_EQ(worker.completions(), expected);
    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.fault.shedFrames, 0u);
    EXPECT_EQ(stats.fault.framesApplied, kLater + 1);
    EXPECT_GE(stats.backpressureWaits, 1u);
}
