/**
 * @file
 * Figure 11: TLB-flush overhead on enclaves at increasing context-
 * switch frequency (100 Hz baseline to 4x) and miniz working sets of
 * 2-32 MB.
 *
 * Each working-set size is an independent shard (its no-switch base
 * run plus every switch rate, since the overheads are relative to
 * that base), so the sweep fans sizes across --jobs workers with
 * byte-identical output for any job count; --stats-json carries the
 * raw per-rate tick counts, TLB misses, and the flush and
 * invalidation counts of the dTLB and the STLB.
 *
 * Paper: at most 1.81% overhead (32 MB at 400 Hz). Flushes from
 * bitmap updates are rare (16.72 per billion instructions), so the
 * switch-driven flushes dominate and still barely matter.
 */

#include "bench/bench_util.hh"
#include "workload/profiles.hh"
#include "workload/runner.hh"

using namespace hypertee;

namespace
{

BenchShardResult
runSize(Addr mb, const std::vector<double> &rates_hz, bool smoke)
{
    WorkloadProfile profile = minizProfile(Addr(mb) << 20);
    profile.instructions = smoke ? 2'000'000 : 8'000'000;

    BenchShardResult result;
    const std::string prefix = std::to_string(mb) + "MB";
    // One fresh system per rate; @p name is "base" or "<hz>hz".
    auto fresh_ticks = [&](double hz, const std::string &name) {
        SystemParams p = evalSystem(true);
        p.csMemSize = 1024ULL << 20;
        p.ems.pool.initialPages = 40000;
        HyperTeeSystem sys(p);
        WorkloadRunner runner(sys);
        const RunStats run = runner.runSwitching(profile, hz);

        Mmu &mmu = sys.core(0).mmu();
        auto stat = [&](const char *metric, double value) {
            result.stats.scalar(prefix + "." + name + metric).set(value);
        };
        stat("_ticks", double(run.ticks));
        stat("_tlb_misses", double(run.tlbMisses));
        stat("_dtlb_flushes", double(mmu.tlb().flushes()));
        stat("_dtlb_invalidations", double(mmu.tlb().invalidations()));
        stat("_stlb_flushes", double(mmu.stlb().flushes()));
        stat("_stlb_invalidations", double(mmu.stlb().invalidations()));
        return run.ticks;
    };

    Tick base = fresh_ticks(0, "base");
    std::vector<std::string> row = {prefix};
    for (double hz : rates_hz) {
        Tick t = fresh_ticks(hz, num(hz, 0) + "hz");
        row.push_back(pct(double(t) / double(base) - 1.0, 2));
    }
    result.rows.push_back(std::move(row));
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    if (!opts.ok)
        return 2;
    logging_detail::setVerbose(false);
    benchHeader("Figure 11: TLB-flush overhead vs switch frequency",
                "miniz in enclave, 2-32MB working sets, 100-400Hz "
                "context-switch rates");

    std::vector<unsigned> sizes_mb = {2u, 8u, 32u};
    std::vector<double> rates_hz = {100.0, 150.0, 200.0, 400.0};
    if (opts.smoke) {
        sizes_mb = {2u, 8u};
        rates_hz = {100.0, 400.0};
    }

    std::vector<std::string> header = {"size"};
    for (double hz : rates_hz)
        header.push_back(num(hz, 0) + "Hz");
    printRow(header);

    ShardStats merged = runShardedBench(
        opts, sizes_mb.size(), 14, [&](ShardContext &ctx) {
            return runSize(sizes_mb[ctx.index], rates_hz,
                           opts.smoke);
        });

    std::printf("\npaper: <=1.81%% (32MB at 400Hz); overhead grows "
                "with both size and switch rate but stays marginal\n");
    return finishBench(opts, {{"fig11_tlbflush", &merged}});
}
