/**
 * @file
 * Fleet-scale EMS SLO: latency/goodput/rejection vs offered load.
 *
 * A front-end traffic generator (open-loop Poisson, bursty MMPP, and
 * closed-loop with think time) drives create/attest/seal/unseal/
 * destroy churn across a pool of >= 1024 concurrent enclaves; the
 * system under test is the EMS scheduler — bounded admission queue,
 * request batching, and the free-page pool's high/low watermark
 * maintenance. Each sweep point prints one row per operation class
 * with p50/p99/p999 latency and the rejection rate, i.e. the knee
 * curve of the management plane.
 *
 * Every sweep point is an independent simulation with seeds split
 * from --seed, so the sweep fans across --jobs worker shards and the
 * merged output is byte-identical for any job count.
 */

#include "bench/bench_util.hh"

#include "workload/traffic.hh"

using namespace hypertee;

namespace
{

constexpr double ticksPerUs = 1e6;

BenchShardResult
runScenario(const FleetScenario &scenario)
{
    BenchShardResult result;
    FleetTrafficSim sim(scenario.params, scenario.name, result.stats);
    sim.run();

    for (std::size_t i = 0; i < fleetOpCount; ++i) {
        const char *op = fleetOpName(static_cast<FleetOp>(i));
        Distribution &lat = result.stats.distribution(
            scenario.name + "." + op + "_latency");
        double offered =
            result.stats.scalar(scenario.name + "." + op + "_offered")
                .value();
        double rejected =
            result.stats
                .scalar(scenario.name + "." + op + "_rejected")
                .value();
        std::vector<std::string> row = {
            scenario.name,
            op,
            num(offered, 0),
            num(offered > 0 ? 100.0 * rejected / offered : 0.0, 2),
            num(lat.quantile(0.5) / ticksPerUs, 1),
            num(lat.quantile(0.99) / ticksPerUs, 1),
            num(lat.quantile(0.999) / ticksPerUs, 1),
        };
        result.rows.push_back(std::move(row));
    }
    double live =
        result.stats.scalar(scenario.name + ".peak_live_enclaves").value();
    std::vector<std::string> summary = {
        scenario.name,
        "all",
        num(double(sim.offered()), 0),
        num(sim.offered() > 0
                ? 100.0 * double(sim.rejected()) / double(sim.offered())
                : 0.0,
            2),
        num(sim.goodputPerSec() / 1000.0, 1) + "k/s",
        "live=" + num(live, 0),
        "q=" + num(double(sim.peakQueueDepth()), 0),
    };
    result.rows.push_back(std::move(summary));
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    if (!opts.ok)
        return 2;

    benchHeader("Fleet-scale EMS SLO under open/closed-loop load",
                "knee curve of the decoupled management plane: "
                "per-class p50/p99/p999, goodput and rejection rate "
                "vs offered load across >=1024 live enclaves");

    std::vector<FleetScenario> scenarios =
        fleetSloScenarios(opts.smoke, opts.seed);

    printRow({"scenario", "op", "offered", "rej%", "p50us", "p99us",
              "p999us"},
             13);
    ShardStats merged = runShardedBench(
        opts, scenarios.size(), 13, [&](ShardContext &ctx) {
            return runScenario(scenarios[ctx.index]);
        });

    std::printf("\npaper: the decoupled EMS sustains thousands of "
                "concurrent enclaves; latency stays flat until the "
                "offered load crosses the EMS-core service capacity, "
                "then the admission queue bounds the tail by "
                "shedding load.\n");
    return finishBench(opts, {{"fleet_slo", &merged}});
}
