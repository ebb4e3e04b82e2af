/**
 * @file
 * Figure 10: bitmap-checking overhead on non-enclave applications
 * (SPEC CPU2017 integer profiles), Host-Bitmap vs Host-Native.
 *
 * Each profile is one shard (its own Host-Native and Host-Bitmap
 * systems), fanned across --jobs workers; the merged output is
 * byte-identical for any job count.
 *
 * Paper: 1.9% average; xalancbmk_r is the outlier at 4.6% because of
 * its 0.8% TLB miss rate (everything else <0.2%).
 */

#include "bench/bench_util.hh"
#include "workload/profiles.hh"
#include "workload/runner.hh"

using namespace hypertee;

namespace
{

BenchShardResult
runProfile(const WorkloadProfile &profile)
{
    HyperTeeSystem native_sys(evalSystem(true));
    makeHostNative(native_sys);
    WorkloadRunner native_runner(native_sys);
    RunStats native = native_runner.runHost(profile);

    HyperTeeSystem bitmap_sys(evalSystem(true));
    // Host-Bitmap: checking on, protection accounting off.
    bitmap_sys.core(0).hierarchy().setProtectionEnabled(false);
    WorkloadRunner bitmap_runner(bitmap_sys);
    RunStats bitmap = bitmap_runner.runHost(profile);

    double overhead =
        double(bitmap.ticks) / double(native.ticks) - 1.0;
    double miss_rate = double(bitmap.tlbMisses) /
                       double(bitmap.loads + bitmap.stores);

    BenchShardResult result;
    result.stats.scalar(profile.name + "_native_ticks")
        .set(double(native.ticks));
    result.stats.scalar(profile.name + "_bitmap_ticks")
        .set(double(bitmap.ticks));
    result.stats.scalar(profile.name + "_tlb_misses")
        .set(double(bitmap.tlbMisses));
    result.stats.scalar(profile.name + "_overhead").set(overhead);

    result.rows.push_back({profile.name, pct(miss_rate, 2),
                           num(double(native.ticks) / 1e9, 2),
                           num(double(bitmap.ticks) / 1e9, 2),
                           pct(overhead, 1)});
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

    benchHeader("Figure 10: enclave-memory-isolation overhead",
                "Host-Bitmap vs Host-Native on SPEC CPU2017 int "
                "profiles");

    auto suite = spec2017Profiles();
    if (opts.smoke) {
        // Every benchmark at a fiftieth of its instruction budget, so
        // the smoke run reaches every row, xalancbmk_r included.
        for (auto &profile : suite)
            profile.instructions /= 50;
    }

    printRow({"benchmark", "tlb-miss", "native(ms)", "bitmap(ms)",
              "overhead"});
    ShardStats merged = runShardedBench(
        opts, suite.size(), 14, [&](ShardContext &ctx) {
            return runProfile(suite[ctx.index]);
        });

    double sum = 0;
    for (const auto &profile : suite) {
        const Scalar *s =
            merged.findScalar(profile.name + "_overhead");
        sum += s ? s->value() : 0.0;
    }
    printRow({"Average", "", "", "",
              pct(sum / double(suite.size()), 1)});
    std::printf("\npaper: 1.9%% average, xalancbmk_r 4.6%% (TLB miss "
                "rate 0.8%% vs <0.2%% elsewhere)\n");

    return finishBench(opts, {{"fig10_bitmap", &merged}});
}
