/**
 * @file
 * Figure 8(a): latency of enclave EALLOC vs host malloc for
 * allocation sizes from 128 KB to 2 MB, 1000 repetitions each.
 *
 * Each allocation size is one shard with its own system and enclave
 * (so the pool state seen by a size does not depend on the sizes
 * before it), fanned across --jobs workers; the merged output is
 * byte-identical for any job count.
 *
 * Paper: enclave allocation costs 6.3%-49.7% more than host malloc,
 * dominated by the CS->EMS primitive round trip and the weaker EMS
 * core.
 */

#include "bench/bench_util.hh"
#include "bench/fig8a_alloc.hh"

using namespace hypertee;

namespace
{

BenchShardResult
runSize(Addr kb, int reps)
{
    Addr pages = (kb * 1024) >> pageShift;

    // Host malloc model: per-page OS fault+zero+map work, measured
    // for the same page count.
    Tick host_total = 0;
    for (int i = 0; i < reps; ++i)
        host_total += Tick(pages) * hostMallocCyclesPerPage * 400;

    const Tick enclave_total = runAllocSweep(pages, reps).allocTicks;

    BenchShardResult result;
    const std::string size_name = std::to_string(kb) + "KB";
    result.stats.scalar(size_name + "_host_ticks")
        .set(double(host_total));
    result.stats.scalar(size_name + "_ealloc_ticks")
        .set(double(enclave_total));

    double host_us = double(host_total) / 1e6 / reps;
    double enc_us = double(enclave_total) / 1e6 / reps;
    result.rows.push_back({size_name, num(host_us, 1), num(enc_us, 1),
                           pct(enc_us / host_us - 1.0, 1)});
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    logging_detail::setVerbose(false);
    BenchOptions opts = parseBenchOptions(argc, argv);
    if (!opts.ok)
        return 2;

    benchHeader("Figure 8(a): enclave memory allocation latency",
                "EALLOC vs host malloc, 128KB-2MB x1000");

    const int reps = opts.smoke ? fig8aSmokeReps : fig8aReps;

    printRow({"size", "malloc(us)", "ealloc(us)", "overhead"});
    ShardStats merged = runShardedBench(
        opts, fig8aSizesKb.size(), 14, [&](ShardContext &ctx) {
            return runSize(fig8aSizesKb[ctx.index], reps);
        });

    std::printf("\npaper: 6.3%% (2MB) .. 49.7%% (128KB) overhead; "
                "fixed round-trip cost amortizes with size\n");

    return finishBench(opts, {{"fig8a_alloc", &merged}});
}
