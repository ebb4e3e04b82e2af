/**
 * @file
 * Shared helpers for the reproduction benches: fixed-width table
 * rendering and common system configurations.
 *
 * Every bench prints the rows/series of one paper table or figure;
 * EXPERIMENTS.md records paper-vs-measured for each.
 */

#ifndef HYPERTEE_BENCH_BENCH_UTIL_HH
#define HYPERTEE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/perf.hh"
#include "sim/shard.hh"
#include "sim/stats.hh"
#include "sim/stats_export.hh"
#include "sim/trace.hh"

namespace hypertee
{

/**
 * Cost of the host-kernel anonymous-page fault path (allocate, zero,
 * map) per page, in CS cycles: the "malloc" baseline of Figures 6
 * and 8(a).
 */
constexpr Cycles hostMallocCyclesPerPage = 3000;

inline void
benchHeader(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("reproduces: %s\n\n", paper_ref.c_str());
}

inline void
printRow(const std::vector<std::string> &cells, int width = 14)
{
    for (const auto &c : cells)
        std::printf("%-*s", width, c.c_str());
    std::printf("\n");
}

inline std::string
pct(double fraction, int decimals = 2)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals,
                  fraction * 100.0);
    return buf;
}

inline std::string
num(double v, int decimals = 2)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

/**
 * Configure a system's core as the Host-Native baseline: no bitmap
 * checking, no protection accounting (the "none of the security
 * mechanisms" scenario every overhead is measured against).
 */
inline void
makeHostNative(HyperTeeSystem &sys, unsigned core = 0)
{
    sys.core(core).mmu().setBitmapCheckEnabled(false);
    sys.core(core).hierarchy().setProtectionEnabled(false);
}

/** Standard single-core evaluation system. */
inline SystemParams
evalSystem(bool crypto_engine = true)
{
    SystemParams p;
    p.csMemSize = 512ULL * 1024 * 1024;
    p.csCoreCount = 1;
    p.ems.cryptoEnginePresent = crypto_engine;
    p.ems.pool.initialPages = 16384; // 64 MiB warm pool
    p.ems.pool.refillBatch = 4096;
    return p;
}

/**
 * Observability and parallelism flags shared by every bench:
 *   --trace=<path>             Chrome trace_event JSON of the run
 *   --trace-categories=<list>  comma list ("all" for everything)
 *   --stats-json=<path>        structured ShardStats export
 *   --smoke                    shortened run for CI smoke tests
 *   --jobs=<n>                 worker threads for sharded sweeps
 *                              (0 = all host cores); results are
 *                              byte-identical for every n
 *   --seed=<n>                 global seed the per-shard RNG streams
 *                              are split from
 *   --perf-json=<path>         host-performance record of the run
 *                              (events fired, wall seconds,
 *                              events/sec, peak RSS) consumed by
 *                              bench/perf_baseline
 * Values may also be given as a separate argument (`--jobs 8`).
 */
struct BenchOptions
{
    std::string tracePath;
    std::string traceCategories;
    std::string statsJsonPath;
    std::string perfJsonPath;
    std::string benchName; ///< basename of argv[0]
    bool smoke = false;
    unsigned jobs = 1;
    std::uint64_t seed = 42;
    bool ok = true; ///< false after an unrecognized argument
    /**
     * Whether events_fired is a pure function of the workload (true
     * for every table/figure bench). bench_micro clears it because
     * google-benchmark picks iteration counts adaptively, and
     * bench_report skips the exact events_fired determinism check
     * when it is false.
     */
    bool deterministicEvents = true;
    /** Started when options are parsed; read by writePerfJson. */
    perf::WallTimer wallTimer;
};

inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions opts;
    if (argc > 0 && argv[0] != nullptr) {
        std::string path = argv[0];
        std::size_t slash = path.find_last_of('/');
        opts.benchName = slash == std::string::npos
                             ? path
                             : path.substr(slash + 1);
    }
    std::string jobs_str, seed_str;
    int i = 1;
    // --flag=value in one argument or --flag value in two.
    auto value_of = [&](const std::string &arg, const char *flag,
                        std::string &out) {
        std::string prefix = std::string(flag) + "=";
        if (arg.rfind(prefix, 0) == 0) {
            out = arg.substr(prefix.size());
            return true;
        }
        if (arg == flag && i + 1 < argc) {
            out = argv[++i];
            return true;
        }
        return false;
    };
    auto parse_unsigned = [](const std::string &text,
                             std::uint64_t &out) {
        if (text.empty())
            return false;
        char *end = nullptr;
        out = std::strtoull(text.c_str(), &end, 10);
        return end != nullptr && *end == '\0';
    };
    for (; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            opts.smoke = true;
        } else if (value_of(arg, "--trace", opts.tracePath) ||
                   value_of(arg, "--trace-categories",
                            opts.traceCategories) ||
                   value_of(arg, "--stats-json", opts.statsJsonPath) ||
                   value_of(arg, "--perf-json", opts.perfJsonPath) ||
                   value_of(arg, "--jobs", jobs_str) ||
                   value_of(arg, "--seed", seed_str)) {
            // handled by value_of
        } else {
            std::fprintf(stderr,
                         "unknown option: %s\n"
                         "usage: %s [--trace=FILE] "
                         "[--trace-categories=LIST] "
                         "[--stats-json=FILE] [--perf-json=FILE] "
                         "[--smoke] [--jobs=N] [--seed=N]\n",
                         arg.c_str(), argv[0]);
            opts.ok = false;
            return opts;
        }
    }
    if (!jobs_str.empty()) {
        std::uint64_t jobs = 0;
        if (!parse_unsigned(jobs_str, jobs)) {
            std::fprintf(stderr, "bad --jobs value '%s'\n",
                         jobs_str.c_str());
            opts.ok = false;
            return opts;
        }
        opts.jobs = jobs == 0 ? defaultJobCount()
                              : static_cast<unsigned>(jobs);
    }
    if (!seed_str.empty() && !parse_unsigned(seed_str, opts.seed)) {
        std::fprintf(stderr, "bad --seed value '%s'\n",
                     seed_str.c_str());
        opts.ok = false;
        return opts;
    }
    if (!opts.tracePath.empty()) {
        auto &sink = TraceSink::global();
        sink.setEnabled(true);
        if (!opts.traceCategories.empty() &&
            !sink.enableCategories(opts.traceCategories)) {
            std::fprintf(stderr, "unknown trace category in '%s'\n",
                         opts.traceCategories.c_str());
            opts.ok = false;
        }
    }
    return opts;
}

/**
 * What one bench shard produces: the table rows it would have
 * printed in a sequential run, plus its mergeable stats.
 */
struct BenchShardResult
{
    std::vector<std::vector<std::string>> rows;
    ShardStats stats;
};

/**
 * Fan @p count independent shard bodies across opts.jobs workers,
 * then render rows and merge stats in shard-index order, so stdout
 * and the stats export are byte-identical for every --jobs value.
 * @return the merged stats, to be handed to finishBench by name.
 */
template <typename Fn>
inline ShardStats
runShardedBench(const BenchOptions &opts, std::size_t count,
                int row_width, Fn &&body)
{
    std::vector<BenchShardResult> results =
        shardMap<BenchShardResult>(
            count, opts.jobs, opts.seed,
            [&](ShardContext &ctx) { return body(ctx); });
    ShardStats merged;
    for (const BenchShardResult &r : results) {
        for (const auto &row : r.rows)
            printRow(row, row_width);
        merged.merge(r.stats);
    }
    return merged;
}

/**
 * Write the host-performance record for this run: how many simulated
 * events the process fired, over how much wall time, at what peak
 * RSS. bench/perf_baseline launches every bench with --perf-json and
 * folds these files into the committed BENCH_<date>.json trajectory.
 * The wall-clock denominator starts at parseBenchOptions(), so setup
 * cost is included uniformly for every bench.
 * @return false when the file cannot be written.
 */
inline bool
writePerfJson(const BenchOptions &opts)
{
    if (opts.perfJsonPath.empty())
        return true;
    double wall = opts.wallTimer.elapsedSeconds();
    std::uint64_t events = perf::totalEventsFired();
    double rate =
        wall > 0 ? static_cast<double>(events) / wall : 0.0;
    std::uint64_t insts = perf::totalInstsRetired();
    double inst_rate =
        wall > 0 ? static_cast<double>(insts) / wall : 0.0;
    std::ostringstream body;
    {
        JsonWriter w(body);
        w.beginObject();
        w.member("schema", "hypertee-bench-perf-v1");
        w.member("bench", opts.benchName);
        w.member("mode", opts.smoke ? "smoke" : "full");
        w.member("jobs", static_cast<std::uint64_t>(opts.jobs));
        w.member("events_fired", events);
        w.member("wall_seconds", wall);
        w.member("events_per_sec", rate);
        w.member("instructions", insts);
        w.member("insts_per_sec", inst_rate);
        w.member("peak_rss_kb", perf::peakRssKb());
        w.member("deterministic_events", opts.deterministicEvents);
        w.endObject();
    }
    body << '\n';
    std::ofstream out(opts.perfJsonPath);
    out << body.str();
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n",
                     opts.perfJsonPath.c_str());
        return false;
    }
    return true;
}

/**
 * Write the requested output files. The stats JSON is validated
 * before it hits the disk so a malformed export fails the bench (and
 * the CI smoke test) instead of poisoning downstream tooling.
 * @return a process exit code: 0 on success.
 */
inline int
finishBench(const BenchOptions &opts,
            const std::vector<NamedStats> &groups)
{
    int rc = 0;
    if (!opts.statsJsonPath.empty()) {
        std::ostringstream body;
        dumpStatsJson(body, groups);
        if (!jsonLooksValid(body.str())) {
            std::fprintf(stderr, "stats export is not valid JSON\n");
            rc = 1;
        } else {
            std::ofstream out(opts.statsJsonPath);
            out << body.str();
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             opts.statsJsonPath.c_str());
                rc = 1;
            }
        }
    }
    if (!opts.tracePath.empty()) {
        auto &sink = TraceSink::global();
        if (!sink.writeJsonFile(opts.tracePath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         opts.tracePath.c_str());
            rc = 1;
        }
        if (sink.dropped() > 0)
            std::fprintf(stderr,
                         "trace: %llu events dropped at capacity\n",
                         static_cast<unsigned long long>(
                             sink.dropped()));
    }
    if (!writePerfJson(opts))
        rc = 1;
    return rc;
}

} // namespace hypertee

#endif // HYPERTEE_BENCH_BENCH_UTIL_HH
