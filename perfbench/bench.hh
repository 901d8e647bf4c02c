/**
 * @file
 * Shared pieces of the repository benchmark: options, the metric
 * report, frame sets, per-session digests, the in-memory span log and
 * small statistics helpers. See README.md in this directory for what
 * each workload measures and why.
 */

#ifndef HOTPATH_PERFBENCH_BENCH_HH
#define HOTPATH_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "engine/wire_format.hh"
#include "paths/path_event.hh"

namespace perfbench
{

using namespace hotpath;

/** Command-line options (see main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one reference digest to show the check rejects it. */
    bool tamperReference = false;
};

/** Directory, under the working directory, for span logs. */
constexpr const char *kSpanDir = ".bench_out";

class SpanLog;

/** Monotonic nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Value at quantile q (0..1) of `v` (sorted in place); 0 if empty. */
double quantile(std::vector<double> &v, double q);

/** The highest (or lowest) value of `v`; 0 if empty. */
double best(const std::vector<double> &v, bool highest);

/** Median of `v` (sorted in place). */
inline double
median(std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Metrics a run produces, by name. Every workload reports every
 * name: the set is fixed by BENCHMARK.json, so a metric that does not
 * apply to a workload is reported as 0 and marked n/a in the text.
 */
class Report
{
  public:
    void set(const std::string &name, double value);
    void notApplicable(const std::string &name);
    double get(const std::string &name) const;

    /** Print "name = value unit" lines for the given metric list. */
    void printText(bool trace) const;
    /** The final JSON line. */
    std::string json(bool trace, bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const;

  private:
    std::map<std::string, double> values;
    std::set<std::string> na;
};

/** Name and unit of every metric, in BENCHMARK.json order. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};
const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

/**
 * A set of pre-encoded event frames. Frames live back to back in
 * shared buffers so engines take them by slice (submitShared) and the
 * generator sends them without copies.
 */
struct FrameSet
{
    struct Frame
    {
        std::uint32_t buffer = 0;
        std::uint32_t offset = 0;
        std::uint32_t length = 0;
        std::uint32_t events = 0;
        std::uint64_t session = 0;
        std::uint64_t sequence = 0;
    };
    std::vector<std::shared_ptr<const std::vector<std::uint8_t>>>
        buffers;
    std::vector<Frame> frames;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;

    const std::uint8_t *
    data(const Frame &f) const
    {
        return buffers[f.buffer]->data() + f.offset;
    }
};

/**
 * Synthesize calibrated SPEC event streams, one per session: session
 * i replays benchmark i mod 9 with synthesis seed `seed + i`. `fn(i,
 * stream)` is called once per session on one of up to `threads`
 * threads (sessions are split statically, so the streams do not
 * depend on the thread count); it must only touch session i's data.
 */
void forEachCalibratedStream(
    std::uint64_t seed, std::size_t sessions, double flow_scale,
    std::size_t threads,
    const std::function<void(std::size_t, std::vector<PathEvent> &)>
        &fn);

/** Threads set-up may use: every CPU this process may run on. */
std::size_t availableCpus();

/** 64-bit hash of one (session, sequence, predictions) reply. Summed
 *  per session it gives an order-independent digest that still pins
 *  every prediction of every frame. */
std::uint64_t replyHash(std::uint64_t session, std::uint64_t sequence,
                        const wire::PredictionRecord *records,
                        std::size_t count);

/** Per-session digest: sum of reply hashes and the reply count. */
struct Digest
{
    std::uint64_t sum = 0;
    std::uint64_t frames = 0;
    bool operator==(const Digest &) const = default;
};
using DigestMap = std::map<std::uint64_t, Digest>;

/**
 * Compare a measured digest map against the reference. Prints the
 * first few mismatches to stderr with `what` and returns false on any
 * difference (missing, extra or unequal sessions).
 */
bool digestsMatch(const DigestMap &reference, const DigestMap &got,
                  const char *what);

/**
 * Engine config every in-process pass and every backend uses, so the
 * serial reference and the served stack predict with the same
 * session parameters.
 */
engine::EngineConfig engineConfig(std::size_t workers);

/** Optional instrumentation of a pass fed to a Replayer. */
struct ReplayProbe
{
    /** Serial engine only: per-submit wall time (ns) is appended. */
    std::vector<double> *frameNs = nullptr;
    /** Serial engine only: a span per submit is recorded. */
    SpanLog *spans = nullptr;
};

/**
 * An in-process engine fed frames from one producer thread, with a
 * per-session digest of every frame outcome (through the engine's
 * frame callback). The callback holds `this`, so a Replayer stays
 * where it was built.
 */
class Replayer
{
  public:
    /** `workers` = 0 is the serial engine (frames processed in-line). */
    explicit Replayer(std::size_t workers, std::uint64_t span_every = 0);
    ~Replayer();
    Replayer(const Replayer &) = delete;
    Replayer &operator=(const Replayer &) = delete;

    /** Submit frames [first, last) in order, drain, and return the
     *  wall time from the first submit until drained. */
    double feed(const FrameSet &frames, std::size_t first,
                std::size_t last, const ReplayProbe &probe = {});

    engine::Engine &engine() { return *eng; }
    const engine::Engine &engine() const { return *eng; }

    DigestMap digests;
    std::uint64_t events = 0;

  private:
    std::unique_ptr<engine::Engine> eng;
};

/** What one in-process pass over a frame set produced. */
struct Replay
{
    /** Wall time from the first submit until the engine drained. */
    double seconds = 0.0;
    std::uint64_t events = 0;
    DigestMap digests;
    engine::EngineStats stats;

    double
    eventsPerSecond() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds
                             : 0.0;
    }
};

/** One pass over frames [0, count) through a fresh Replayer. */
Replay replay(const FrameSet &frames, std::size_t count,
              std::size_t workers, const ReplayProbe &probe = {});

/** One span: a timed call into a layer, tied to a frame's id. */
struct Span
{
    const char *name = "";
    std::uint64_t session = 0;
    std::uint64_t sequence = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the enclosing span, or -1. */
    std::int64_t parent = -1;
};

/** Spans kept in memory during a traced run, written out at exit. */
class SpanLog
{
  public:
    std::int64_t
    add(const char *name, std::uint64_t session,
        std::uint64_t sequence, std::uint64_t start, std::uint64_t end,
        std::int64_t parent = -1)
    {
        spans.push_back({name, session, sequence, start, end, parent});
        return static_cast<std::int64_t>(spans.size()) - 1;
    }
    std::size_t size() const { return spans.size(); }
    /** Write one JSON object per span; false if the file fails. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans;
};

/** Host and build identity, printed with every result. */
std::string hostInfoJson(const Options &opt);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** Result of one workload run. */
struct RunOutcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Fail the run (stderr message) and return false. */
bool fail(RunOutcome &out, const std::string &message);

// Workloads (ingest.cc, serve.cc) and layer probes (layers.cc) ------

RunOutcome runIngest(const Options &opt, Report &report,
                     SpanLog &spans);
RunOutcome runServe(const Options &opt, Report &report, SpanLog &spans,
                    bool cluster);

/**
 * Per-layer probes from outside, on a workload's own frames: wire
 * CRC / decode / peek / reply encode, Session::apply, the session
 * ledger counters, and snapshot export/import on every session
 * resident in `resident` after the run. Decode and apply calls are
 * recorded as spans under a per-frame parent span. When `reference`
 * is given, the replayed predictions must match it.
 */
void probeLayers(const FrameSet &frames, std::size_t count,
                 const engine::Engine &resident,
                 const DigestMap *reference, Report &report,
                 SpanLog &spans, RunOutcome &out);

} // namespace perfbench

#endif // HOTPATH_PERFBENCH_BENCH_HH
