/**
 * @file
 * The repository benchmark's entry point.
 *
 *   hotpath_bench --workload ingest|serve|cluster --seed N
 *                 --seconds S --trace 0|1 [--tamper-reference 1]
 *
 * Prints the host identity, then every metric by name and unit, and
 * as its last line one JSON object {correct, attempted, failed,
 * metrics}. With --trace 0 the metrics are the end-to-end ones; with
 * --trace 1 the run is traced and the metrics are the per-layer ones
 * (the span log goes to .bench_out/spans-<workload>-<seed>.jsonl
 * under the working directory). Exits 1
 * when a correctness check fails, 2 on bad arguments.
 * --tamper-reference flips one bit of the serial reference's digest,
 * which the correctness check must reject.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

int
usage(const char *why)
{
    std::cerr << "hotpath_bench: " << why
              << "\nusage: hotpath_bench --workload ingest|serve|cluster "
                 "--seed N --seconds S --trace 0|1 "
                 "[--tamper-reference 1]\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            error = "missing value for " + key;
            return false;
        }
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            opt.trace = std::strtoul(value.c_str(), &end, 10) != 0;
        } else if (key == "--tamper-reference") {
            opt.tamperReference =
                std::strtoul(value.c_str(), &end, 10) != 0;
        } else {
            error = "unknown argument " + key;
            return false;
        }
        if (end != nullptr && (*end != '\0' || value.empty())) {
            error = "bad value for " + key + ": " + value;
            return false;
        }
    }
    if (opt.workload != "ingest" && opt.workload != "serve" &&
        opt.workload != "cluster") {
        error = "unknown workload '" + opt.workload + "'";
        return false;
    }
    if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
        error = "--seconds must be in (0, 120]";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string error;
    if (!parseArgs(argc, argv, opt, error))
        return usage(error.c_str());

    std::printf("host: %s\n", hostInfoJson(opt).c_str());
    std::fflush(stdout);

    Report report;
    SpanLog spans;
    RunOutcome out;
    if (opt.workload == "ingest")
        out = runIngest(opt, report, spans);
    else
        out = runServe(opt, report, spans, opt.workload == "cluster");
    if (!opt.trace)
        report.set("peak_rss_mb", peakRssMb());

    if (opt.trace) {
        ::mkdir(kSpanDir, 0755);
        const std::string path = std::string(kSpanDir) + "/spans-" +
                                 opt.workload +
                                 "-" + std::to_string(opt.seed) +
                                 ".jsonl";
        if (spans.write(path))
            std::printf("span log: %zu spans in %s\n", spans.size(),
                        path.c_str());
        else
            std::fprintf(stderr, "hotpath_bench: cannot write %s\n",
                         path.c_str());
    }

    std::printf("%s metrics (%s):\n",
                opt.trace ? "per-layer" : "end-to-end",
                out.correct ? "all correctness checks passed"
                            : "INVALID: a correctness check failed");
    report.printText(opt.trace);
    // Failures are not an end-to-end metric (it would read 0): every
    // unanswered or mismatched frame fails the run's checks instead.
    std::printf("  %-34s %.6g (%llu of %llu frames)\n", "failed_frac",
                out.attempted > 0 ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    std::printf("%s\n", report
                            .json(opt.trace, out.correct,
                                  std::max<std::uint64_t>(out.attempted, 1),
                                  out.failed)
                            .c_str());
    return out.correct ? 0 : 1;
}
