/**
 * @file
 * Figure 7: enclave performance overhead under the three EMS core
 * configurations of Table III.
 *
 * Every (benchmark, EMS config) cell is an independent simulation,
 * so the sweep shards per benchmark across --jobs workers; each
 * shard runs its Host-Native baseline plus the three enclave
 * configurations and the merged output is byte-identical for any
 * job count.
 *
 * Paper: weak 5.7%, medium 2.0%, strong 1.9% average overhead on
 * RV8 + wolfSSL (medium beats weak by 3.7%, strong adds only 0.1%).
 */

#include "bench/bench_util.hh"
#include "ems/cost_model.hh"
#include "workload/profiles.hh"
#include "workload/runner.hh"

using namespace hypertee;

namespace
{

struct ConfigSpec
{
    const char *name;
    EmsCostParams cost;
};

double
overheadFor(const WorkloadProfile &profile, const EmsCostParams &cost)
{
    SystemParams host_params = evalSystem(true);
    HyperTeeSystem host_sys(host_params);
    makeHostNative(host_sys);
    WorkloadRunner host_runner(host_sys);
    RunStats host = host_runner.runHost(profile);

    SystemParams enc_params = evalSystem(true);
    enc_params.ems.cost = cost;
    HyperTeeSystem enc_sys(enc_params);
    WorkloadRunner enc_runner(enc_sys);
    EnclaveRunResult r = enc_runner.runEnclave(profile);

    return double(r.stats.ticks) / double(host.ticks) - 1.0;
}

BenchShardResult
runProfile(const WorkloadProfile &profile,
           const std::vector<ConfigSpec> &configs)
{
    BenchShardResult result;
    std::vector<std::string> row = {profile.name};
    for (const ConfigSpec &cfg : configs) {
        double ov = overheadFor(profile, cfg.cost);
        result.stats
            .scalar(profile.name + std::string("_") + cfg.name +
                    "_overhead")
            .set(ov);
        row.push_back(pct(ov, 1));
    }
    result.rows.push_back(std::move(row));
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

    benchHeader("Figure 7: overhead per EMS core configuration",
                "enclave runtime vs Host-Native for weak / medium / "
                "strong EMS cores");

    printRow({"benchmark", "weak", "medium", "strong"});

    std::vector<ConfigSpec> configs = {{"weak", emsWeakCost()},
                                       {"medium", emsMediumCost()},
                                       {"strong", emsStrongCost()}};

    auto suite = rv8Profiles();
    if (opts.smoke) {
        // Two benchmarks at a twentieth of the instruction budget:
        // enough to exercise every config and the sharded merge.
        suite.resize(2);
        for (auto &profile : suite)
            profile.instructions /= 20;
    }

    ShardStats merged = runShardedBench(
        opts, suite.size(), 14, [&](ShardContext &ctx) {
            return runProfile(suite[ctx.index], configs);
        });

    double n = double(suite.size());
    std::vector<std::string> avg_row = {"Average"};
    for (const ConfigSpec &cfg : configs) {
        double sum = 0;
        for (const auto &profile : suite) {
            const Scalar *s = merged.findScalar(
                profile.name + std::string("_") + cfg.name +
                "_overhead");
            sum += s ? s->value() : 0.0;
        }
        avg_row.push_back(pct(sum / n, 1));
    }
    printRow(avg_row);
    std::printf("\npaper: weak 5.7%%, medium 2.0%%, strong 1.9%%\n");

    return finishBench(opts, {{"fig7_ems_config", &merged}});
}
