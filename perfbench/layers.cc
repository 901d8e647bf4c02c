/**
 * @file
 * Per-layer probes, measured from outside: each layer's public
 * functions are timed on the workload's own frames, and each layer's
 * public stats are read after the run. Nothing here reaches inside
 * src/.
 */

#include <algorithm>
#include <iostream>
#include <map>

#include "bench.hh"
#include "engine/session.hh"

namespace perfbench
{

namespace
{

/** Keeps timed results observable so no call is optimised away. */
volatile std::uint64_t sink = 0;

/** Runs of each timing loop; the best is kept. */
constexpr int kRepeats = 3;

} // namespace

void
probeLayers(const FrameSet &frames, std::size_t count,
            const engine::Engine &resident, const DigestMap *reference,
            Report &report, SpanLog &spans, RunOutcome &out)
{
    std::uint64_t bytes = 0;
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < count; ++i) {
        bytes += frames.frames[i].length;
        events += frames.frames[i].events;
    }
    if (count == 0 || events == 0) {
        fail(out, "layer probe has no frames");
        return;
    }

    // Each timing loop runs kRepeats times and keeps its best run, as
    // the end-to-end passes do: other tenants only ever slow a loop.
    std::uint64_t acc = 0;
    std::uint64_t crcNs = ~std::uint64_t{0};
    std::uint64_t peekNs = ~std::uint64_t{0};
    std::uint64_t decodeNs = ~std::uint64_t{0};
    std::uint64_t applyNs = ~std::uint64_t{0};
    std::uint64_t encodeNs = ~std::uint64_t{0};
    const engine::SessionConfig sessionConfig =
        engineConfig(0).sessions.session;
    std::vector<std::vector<wire::PredictionRecord>> preds(count);
    std::vector<std::uint8_t> reply;
    reply.reserve(1 << 16);
    wire::DecodedFrame decoded;
    for (int rep = 0; rep < kRepeats; ++rep) {
        // wire: CRC over every frame's bytes, then header peeks, each
        // timed as one loop so clock reads do not dominate small calls.
        std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < count; ++i) {
            const FrameSet::Frame &f = frames.frames[i];
            acc ^= wire::crc32(frames.data(f), f.length);
        }
        crcNs = std::min(crcNs, nowNs() - t0);

        t0 = nowNs();
        for (std::size_t i = 0; i < count; ++i) {
            const FrameSet::Frame &f = frames.frames[i];
            wire::FrameHeader header;
            std::size_t end = 0;
            if (wire::peekFrameHeader(frames.data(f), f.length, 0, header,
                                      end) != wire::DecodeStatus::Ok)
                acc = ~acc;
            acc += header.session + end;
        }
        peekNs = std::min(peekNs, nowNs() - t0);

        // wire decode + Session::apply, replayed frame by frame into
        // fresh sessions with the engine's session config. On the
        // first run, one parent span per frame with the two calls as
        // its children.
        std::map<std::uint64_t, std::unique_ptr<engine::Session>>
            sessions;
        DigestMap digests;
        std::uint64_t decodeSum = 0;
        std::uint64_t applySum = 0;
        for (std::size_t i = 0; i < count; ++i) {
            const FrameSet::Frame &f = frames.frames[i];
            auto &session = sessions[f.session];
            if (!session)
                session = std::make_unique<engine::Session>(
                    f.session, sessionConfig);
            preds[i].clear();
            const std::uint64_t a = nowNs();
            std::size_t off = 0;
            const wire::DecodeStatus status = wire::decodeFrame(
                frames.data(f), f.length, off, decoded);
            const std::uint64_t b = nowNs();
            if (status != wire::DecodeStatus::Ok) {
                fail(out, std::string("probe decode failed: ") +
                              wire::decodeStatusName(status));
                return;
            }
            session->apply(decoded, &preds[i]);
            const std::uint64_t c = nowNs();
            decodeSum += b - a;
            applySum += c - b;
            if (rep == 0) {
                const std::int64_t parent =
                    spans.add("frame", f.session, f.sequence, a, c);
                spans.add("wire.decodeFrame", f.session, f.sequence, a,
                          b, parent);
                spans.add("session.apply", f.session, f.sequence, b, c,
                          parent);
            }
            Digest &d = digests[f.session];
            d.sum += replyHash(f.session, f.sequence, preds[i].data(),
                               preds[i].size());
            ++d.frames;
        }
        decodeNs = std::min(decodeNs, decodeSum);
        applyNs = std::min(applyNs, applySum);
        if (rep == 0 && reference != nullptr &&
            !digestsMatch(*reference, digests, "decode+apply probe"))
            fail(out, "Session::apply replay differs from the engine");

        // wire: reply encode with each frame's own predictions.
        t0 = nowNs();
        for (std::size_t i = 0; i < count; ++i) {
            const FrameSet::Frame &f = frames.frames[i];
            reply.clear();
            wire::appendPredictionFrame(reply, f.session, f.sequence,
                                        preds[i].data(), preds[i].size());
            acc += reply.size();
        }
        encodeNs = std::min(encodeNs, nowNs() - t0);
    }
    sink = sink + acc;

    const double n = static_cast<double>(count);
    const double ev = static_cast<double>(events);
    report.set("wire.crc_ns_per_byte",
               static_cast<double>(crcNs) / static_cast<double>(bytes));
    report.set("wire.decode_ns_per_event",
               static_cast<double>(decodeNs) / ev);
    report.set("wire.peek_ns_per_frame", static_cast<double>(peekNs) / n);
    report.set("wire.reply_encode_ns_per_frame",
               static_cast<double>(encodeNs) / n);
    report.set("wire.bytes_per_event", static_cast<double>(bytes) / ev);
    report.set("session.apply_ns_per_event",
               static_cast<double>(applyNs) / ev);

    // session: public stats of the sessions resident in the engine
    // that served the run.
    std::vector<std::uint64_t> ids;
    std::uint64_t cached = 0;
    std::uint64_t processed = 0;
    std::uint64_t counters = 0;
    resident.sessions().forEach([&](const engine::Session &s) {
        ids.push_back(s.id());
        cached += s.stats().cachedEvents;
        processed += s.stats().eventsProcessed;
        counters += s.countersAllocated();
    });
    if (ids.empty() || processed == 0) {
        fail(out, "no resident sessions after the run");
        return;
    }
    report.set("session.cached_event_frac",
               static_cast<double>(cached) /
                   static_cast<double>(processed));
    report.set("session.counters_per_session",
               static_cast<double>(counters) /
                   static_cast<double>(ids.size()));

    // session: snapshot export -> wire -> import of every resident
    // session. Snapshots are byte-canonical, so re-exporting from the
    // importer must give the same bytes.
    engine::Engine importer(engineConfig(0));
    std::uint64_t exportNs = 0;
    std::uint64_t importNs = 0;
    std::uint64_t snapshotBytes = 0;
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> again;
    for (std::uint64_t id : ids) {
        wire::SessionState state;
        const std::uint64_t a = nowNs();
        const bool found = resident.exportSession(id, state);
        const std::uint64_t b = nowNs();
        frame.clear();
        wire::appendSessionStateFrame(frame, id, 0, state);
        const std::uint64_t c = nowNs();
        importer.importSession(id, state);
        const std::uint64_t d = nowNs();
        exportNs += (b - a) + (c - b);
        importNs += d - c;
        snapshotBytes += frame.size();
        wire::SessionState copy;
        importer.exportSession(id, copy);
        again.clear();
        wire::appendSessionStateFrame(again, id, 0, copy);
        if (!found || again != frame) {
            fail(out, "session snapshot is not byte-identical after "
                      "export/import");
            break;
        }
    }
    importer.shutdown();
    const double sessionsN = static_cast<double>(ids.size());
    report.set("session.snapshot_bytes",
               static_cast<double>(snapshotBytes) / sessionsN);
    report.set("session.export_us",
               static_cast<double>(exportNs) * 1e-3 / sessionsN);
    report.set("session.import_us",
               static_cast<double>(importNs) * 1e-3 / sessionsN);
}

} // namespace perfbench
