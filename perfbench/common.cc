/**
 * @file
 * Shared benchmark helpers; see bench.hh.
 */

#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "workload/spec_profile.hh"
#include "workload/synthesis.hh"

namespace perfbench
{

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least q of the
    // samples at or below it.
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
best(const std::vector<double> &v, bool highest)
{
    if (v.empty())
        return 0.0;
    return highest ? *std::max_element(v.begin(), v.end())
                   : *std::min_element(v.begin(), v.end());
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"serial_events_per_s", "events/s"},
        {"threaded_events_per_s", "events/s"},
        {"latency_p50_us", "us"},
        {"latency_p99_us", "us"},
        {"latency_p999_us", "us"},
        {"sustained_frames_per_s", "frames/s"},
        {"peak_rss_mb", "MiB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            {"wire.crc_ns_per_byte", "ns/B"},
            {"wire.decode_ns_per_event", "ns/event"},
            {"wire.peek_ns_per_frame", "ns/frame"},
            {"wire.reply_encode_ns_per_frame", "ns/frame"},
            {"wire.bytes_per_event", "B/event"},
            {"session.apply_ns_per_event", "ns/event"},
            {"session.cached_event_frac", "ratio"},
            {"session.counters_per_session", "count"},
            {"session.snapshot_bytes", "B"},
            {"session.export_us", "us"},
            {"session.import_us", "us"},
            {"engine.route_ns_per_event", "ns/event"},
            {"engine.worker_busy_frac", "ratio"},
            {"engine.backpressure_waits", "count"},
            {"engine.queue_high_water_max", "frames"},
            {"engine.frames_per_batch", "frames"},
            {"engine.lock_wait_ns_per_frame", "ns/frame"},
        };
        static const char *const stageNames[] = {
            "stage.read_p50_us",        "stage.read_p99_us",
            "stage.queue_wait_p50_us",  "stage.queue_wait_p99_us",
            "stage.decode_p50_us",      "stage.decode_p99_us",
            "stage.predict_p50_us",     "stage.predict_p99_us",
            "stage.encode_p50_us",      "stage.encode_p99_us",
            "stage.write_flush_p50_us", "stage.write_flush_p99_us",
        };
        for (const char *name : stageNames)
            s.push_back({name, "us"});
        const std::vector<MetricSpec> rest = {
            {"net.send_us_per_frame", "us/frame"},
            {"net.poll_us_per_reply", "us/reply"},
            {"net.read_pauses", "count"},
            {"net.responses_dropped", "count"},
            {"net.bytes_per_frame", "B/frame"},
            {"cluster.hop_p50_us", "us"},
            {"cluster.sessions_migrated", "count"},
            {"cluster.migration_bytes", "B"},
            {"cluster.frames_replayed", "count"},
            {"cluster.backend_skew", "ratio"},
            {"loadgen.lag_p99_us", "us"},
            {"ledger.residual_frac", "ratio"},
            {"trace.overhead_frac", "ratio"},
        };
        s.insert(s.end(), rest.begin(), rest.end());
        return s;
    }();
    return specs;
}

void
Report::set(const std::string &name, double value)
{
    values[name] = value;
    na.erase(name);
}

void
Report::notApplicable(const std::string &name)
{
    values[name] = 0.0;
    na.insert(name);
}

double
Report::get(const std::string &name) const
{
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
}

namespace
{

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

} // namespace

void
Report::printText(bool trace) const
{
    for (const MetricSpec &m :
         trace ? perLayerMetrics() : endToEndMetrics()) {
        std::printf("  %-34s ", m.name);
        if (na.count(m.name) != 0 || values.count(m.name) == 0)
            std::printf("n/a (reported as 0)\n");
        else
            std::printf("%.6g %s\n", get(m.name), m.unit);
    }
}

std::string
Report::json(bool trace, bool correct, std::uint64_t attempted,
             std::uint64_t failed) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &m :
         trace ? perLayerMetrics() : endToEndMetrics()) {
        os << (first ? "" : ", ") << '"' << m.name
           << "\": {\"value\": " << formatNumber(get(m.name))
           << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

void
forEachCalibratedStream(
    std::uint64_t seed, std::size_t sessions, double flow_scale,
    std::size_t threads,
    const std::function<void(std::size_t, std::vector<PathEvent> &)>
        &fn)
{
    const std::vector<SpecTarget> &targets = specTargets();
    threads = std::max<std::size_t>(1, std::min(threads, sessions));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (std::size_t s = t; s < sessions; s += threads) {
                WorkloadConfig config;
                config.flowScale = flow_scale;
                config.seed = seed + s;
                CalibratedWorkload workload(targets[s % targets.size()],
                                            config);
                std::vector<PathEvent> stream =
                    workload.materializeStream();
                fn(s, stream);
            }
        });
    for (std::thread &t : pool)
        t.join();
}

std::size_t
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

namespace
{

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ull;
    return h ^ (h >> 31);
}

} // namespace

std::uint64_t
replyHash(std::uint64_t session, std::uint64_t sequence,
          const wire::PredictionRecord *records, std::size_t count)
{
    std::uint64_t h = mix(mix(0xcbf29ce484222325ull, session), sequence);
    h = mix(h, count);
    for (std::size_t i = 0; i < count; ++i)
        h = mix(mix(h, records[i].head), records[i].path);
    return h;
}

bool
digestsMatch(const DigestMap &reference, const DigestMap &got,
             const char *what)
{
    std::size_t bad = 0;
    for (const auto &[session, digest] : reference) {
        const auto it = got.find(session);
        if (it != got.end() && it->second == digest)
            continue;
        if (++bad <= 3)
            std::cerr << "perfbench: " << what << ": session " << session
                      << " digest differs from the serial reference ("
                      << (it == got.end() ? 0 : it->second.frames)
                      << " vs " << digest.frames << " frames)\n";
    }
    for (const auto &[session, digest] : got) {
        if (reference.count(session) == 0 && ++bad <= 3)
            std::cerr << "perfbench: " << what << ": session " << session
                      << " is not in the serial reference\n";
    }
    return bad == 0;
}

engine::EngineConfig
engineConfig(std::size_t workers)
{
    engine::EngineConfig config;
    config.workerThreads = workers;
    config.sessions.shardCount = 16;
    return config;
}

Replayer::Replayer(std::size_t workers, std::uint64_t span_every)
{
    engine::EngineConfig config = engineConfig(workers);
    config.spanSampleEvery = span_every;
    eng = std::make_unique<engine::Engine>(config);
    eng->setFrameCallback([this](const engine::FrameOutcome &o) {
        Digest &d = digests.at(o.session);
        d.sum += o.applied ? replyHash(o.session, o.sequence,
                                       o.predictions, o.predictionCount)
                           : 0x5eed;
        ++d.frames;
    });
}

Replayer::~Replayer()
{
    eng->shutdown();
}

double
Replayer::feed(const FrameSet &frames, std::size_t first,
               std::size_t last, const ReplayProbe &probe)
{
    // Every session's slot exists before its first frame is submitted
    // (the engine is drained, so no callback runs meanwhile): worker
    // threads then only write their own sessions' entries.
    for (std::size_t i = first; i < last; ++i) {
        digests[frames.frames[i].session];
        events += frames.frames[i].events;
    }
    const std::uint64_t start = nowNs();
    for (std::size_t i = first; i < last; ++i) {
        const FrameSet::Frame &f = frames.frames[i];
        if (probe.frameNs == nullptr && probe.spans == nullptr) {
            eng->submitShared(frames.buffers[f.buffer], f.offset,
                              f.length);
            continue;
        }
        const std::uint64_t t0 = nowNs();
        eng->submitShared(frames.buffers[f.buffer], f.offset, f.length);
        const std::uint64_t t1 = nowNs();
        if (probe.frameNs != nullptr)
            probe.frameNs->push_back(static_cast<double>(t1 - t0));
        if (probe.spans != nullptr)
            probe.spans->add("engine.submitShared", f.session, f.sequence,
                             t0, t1);
    }
    eng->drain();
    return static_cast<double>(nowNs() - start) * 1e-9;
}

Replay
replay(const FrameSet &frames, std::size_t count, std::size_t workers,
       const ReplayProbe &probe)
{
    Replayer replayer(workers);
    Replay result;
    result.seconds = replayer.feed(frames, 0, count, probe);
    result.events = replayer.events;
    result.stats = replayer.engine().stats();
    result.digests = std::move(replayer.digests);
    return result;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"session\":" << s.session
            << ",\"sequence\":" << s.sequence << ",\"start_ns\":"
            << s.startNs << ",\"end_ns\":" << s.endNs << "}\n";
    }
    return static_cast<bool>(out);
}

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

std::string
hostInfoJson(const Options &opt)
{
    const std::size_t nproc = availableCpus();
    const char *digest = std::getenv("HOTPATH_BENCH_SOURCE_DIGEST");
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("g++ ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::ostringstream os;
    os << "{\"workload\": \"" << jsonEscape(opt.workload)
       << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
       << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"nproc\": " << nproc
       << ", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ", \"cpu\": \""
       << jsonEscape(cpuModel()) << "\", \"compiler\": \""
       << jsonEscape(compiler) << "\", \"build_type\": \""
       << HOTPATH_BENCH_BUILD_TYPE << "\", \"git_commit\": \""
       << HOTPATH_BENCH_GIT_COMMIT << "\", \"source_digest\": \""
       << jsonEscape(digest != nullptr ? digest : "unknown") << "\"}";
    return os.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool
fail(RunOutcome &out, const std::string &message)
{
    std::cerr << "perfbench: CHECK FAILED: " << message << "\n";
    out.correct = false;
    return false;
}

} // namespace perfbench
