/**
 * @file
 * Figure 6: efficiency of resolving concurrent primitive requests
 * from N CS cores on k EMS cores.
 *
 * Workload (per the paper): enclave-creation primitives plus 16384
 * dynamic 2 MB allocations, issued concurrently by all CS cores in a
 * closed loop. The baseline latency is the p99 of the same requests
 * served in non-enclave mode (local malloc on the CS core). Each
 * curve row reports the fraction of enclave-mode requests resolved
 * within x times that baseline.
 *
 * Each curve runs the one EMS scheduler (FleetTrafficSim) with
 * batches of one, the EMCall gate's obfuscation jitter and a scripted
 * closed-loop client per CS core. Every curve is an independent
 * simulation (its own scheduler, EventQueue and seeds), so the sweep
 * fans curves across --jobs worker shards; the merged output is
 * byte-identical for any job count.
 *
 * Paper conclusions the output should reproduce: 1 in-order EMS core
 * suffices for <=4 CS cores; 2 in-order for 16; 2 OoO for 32/64
 * (matching the 4-core OoO curve closely).
 */

#include "bench/bench_util.hh"
#include "emcall/emcall.hh"
#include "ems/cost_model.hh"
#include "workload/traffic.hh"

using namespace hypertee;

namespace
{

struct EmsConfig
{
    const char *name;
    unsigned cores;
    EmsCostParams cost;
};

struct CurveSpec
{
    unsigned csCores;
    EmsConfig ems;
};

BenchShardResult
runCurve(const CurveSpec &spec, const ShardContext &ctx)
{
    const unsigned cs_cores = spec.csCores;
    const EmsConfig &ems = spec.ems;
    const std::uint64_t total_allocs = 16384;
    // EMS-side service: each CS core's ECREATE (80 pages), then its
    // 2 MB EALLOCs (512 pages).
    const EmsCostModel cost(ems.cost);
    const Tick create_service = cost.pageServiceTime(PrimitiveOp::ECreate, 80);
    const Tick alloc_service = cost.pageServiceTime(PrimitiveOp::EAlloc, 512);

    // CS cores compute between allocations (an allocation-heavy but
    // not allocation-only workload): 10 ms + U[0, 20 ms], ~20 ms on
    // average, which also staggers their starts.
    FleetTrafficParams params;
    params.mode = FleetLoadMode::ClosedLoop;
    params.clients = cs_cores;
    params.requests = std::uint64_t(cs_cores) *
                      (total_allocs / cs_cores + 1);
    params.thinkTime = 10'000'000'000ULL;
    params.thinkJitter = 20'000'000'000ULL;
    params.emsCores = ems.cores;
    params.queueCapacity = cs_cores;
    params.batchMax = 1;
    params.batchOverhead = 0;
    params.jitterMax = EmCallParams{}.pollJitterMax;
    params.seed = shardSeed(ctx.seed, 0);

    // Per-request service variance (EMS cache state, pool refills):
    // +/-25% uniform, from one stream per CS core.
    std::vector<Random> noise;
    for (unsigned c = 0; c < cs_cores; ++c)
        noise.emplace_back(shardSeed(ctx.seed, 1000 + c));

    // One exported latency distribution per curve, so --stats-json
    // carries the p50/p90/p99 behind every SLO row.
    const std::string curve =
        std::to_string(cs_cores) + "xCS_" + ems.name;
    BenchShardResult result;
    FleetTrafficSim sim(
        params,
        std::make_unique<ScriptedSource>(
            std::vector<std::string>(cs_cores, "primitive"),
            [&](std::uint32_t c, std::uint64_t i) {
                Tick base = i == 0 ? create_service : alloc_service;
                return base * noise[c].between(75, 125) / 100;
            }),
        curve, result.stats);
    sim.run();
    fatalIf(sim.rejected() != 0, curve, ": ", sim.rejected(),
            " requests rejected by a queue sized for every CS core");
    Distribution &lat =
        result.stats.distribution(curve + ".primitive_latency");

    // Non-enclave baseline: the CS core maps the 512 pages itself, at
    // hostMallocCyclesPerPage of OS fault+zero+map work each (400
    // ticks per cycle at 2.5 GHz).
    double baseline = double(Tick(512) * hostMallocCyclesPerPage * 400);
    std::vector<std::string> row = {std::to_string(cs_cores) + "xCS",
                                    ems.name};
    for (double x : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0})
        row.push_back(pct(lat.fractionAtOrBelow(x * baseline), 1));
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

    benchHeader("Figure 6: concurrent primitive SLO curves",
                "fraction of 16384 concurrent 2MB EALLOCs resolved "
                "within x times the non-enclave p99 baseline");

    EmsConfig one_weak = {"1xInO", 1, emsWeakCost()};
    EmsConfig two_weak = {"2xInO", 2, emsWeakCost()};
    EmsConfig two_med = {"2xOoO", 2, emsMediumCost()};
    EmsConfig four_med = {"4xOoO", 4, emsMediumCost()};

    std::vector<CurveSpec> curves = {
        // High-end embedded: 4 CS cores.
        {4, one_weak},
        {4, two_weak},
    };
    if (!opts.smoke) {
        // Desktop: 16 CS cores.
        curves.push_back({16, one_weak});
        curves.push_back({16, two_weak});
        curves.push_back({16, two_med});
        // High-performance: 32 and 64 CS cores.
        curves.push_back({32, two_weak});
        curves.push_back({32, two_med});
        curves.push_back({32, four_med});
        curves.push_back({64, two_med});
        curves.push_back({64, four_med});
    }

    printRow({"CS", "EMS", "1x", "2x", "4x", "8x", "16x", "32x",
              "64x"},
             12);
    ShardStats merged = runShardedBench(
        opts, curves.size(), 12,
        [&](ShardContext &ctx) {
            return runCurve(curves[ctx.index], ctx);
        });

    std::printf("\npaper: a single in-order EMS core suffices for 4 "
                "CS cores; dual in-order for 16; dual OoO tracks the "
                "quad-OoO curve for 32/64.\n");
    return finishBench(opts, {{"fig6_slo", &merged}});
}
