/**
 * @file
 * Figure 8(b): MemStream latency under memory encryption and
 * integrity protection, working sets 4 MB - 64 MB.
 *
 * Each working-set size is an independent pair of simulations
 * (Host-Native and Enclave-M_encrypt), so the sweep fans sizes across
 * --jobs worker shards; the merged output is byte-identical for any
 * job count, and --stats-json carries the raw tick counts behind
 * every overhead cell.
 *
 * Paper: ~3.1% average latency overhead; MemStream's near-100%
 * cache-miss rate is the worst case for the protection engines.
 */

#include "bench/bench_util.hh"
#include "workload/profiles.hh"
#include "workload/runner.hh"

using namespace hypertee;

namespace
{

BenchShardResult
runSize(Addr mb, bool smoke)
{
    WorkloadProfile profile = memStreamProfile(Addr(mb) << 20);
    profile.instructions = smoke ? 1'500'000 : 6'000'000;

    SystemParams host_params = evalSystem(true);
    host_params.csMemSize = 1024ULL << 20;
    HyperTeeSystem host_sys(host_params);
    makeHostNative(host_sys);
    WorkloadRunner host_runner(host_sys);
    RunStats host = host_runner.runHost(profile);

    SystemParams enc_params = host_params;
    enc_params.ems.pool.initialPages = 40000;
    HyperTeeSystem enc_sys(enc_params);
    WorkloadRunner enc_runner(enc_sys);
    EnclaveRunResult enc =
        enc_runner.runEnclave(profile, 1, /*charge_primitives=*/false);

    double overhead =
        double(enc.stats.ticks) / double(host.ticks) - 1.0;

    BenchShardResult result;
    const std::string prefix = std::to_string(mb) + "MB";
    result.stats.scalar(prefix + ".native_ticks")
        .set(double(host.ticks));
    result.stats.scalar(prefix + ".encrypted_ticks")
        .set(double(enc.stats.ticks));
    result.rows.push_back({prefix, num(double(host.ticks) / 1e9, 2),
                           num(double(enc.stats.ticks) / 1e9, 2),
                           pct(overhead, 1)});
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
    benchHeader("Figure 8(b): MemStream under memory protection",
                "Enclave-M_encrypt vs Host-Native streaming latency, "
                "4MB-64MB");

    printRow({"size", "native(ms)", "encrypted(ms)", "overhead"});

    std::vector<unsigned> sizes_mb = {4u, 8u, 16u, 32u, 64u};
    if (opts.smoke)
        sizes_mb = {4u, 8u};
    ShardStats merged = runShardedBench(
        opts, sizes_mb.size(), 14, [&](ShardContext &ctx) {
            return runSize(sizes_mb[ctx.index], opts.smoke);
        });

    // The headline average is a cross-size aggregate, so it is
    // computed from the merged stats after the sharded sweep.
    double sum = 0;
    for (unsigned mb : sizes_mb) {
        const std::string prefix = std::to_string(mb) + "MB";
        double host =
            merged.scalar(prefix + ".native_ticks").value();
        double enc =
            merged.scalar(prefix + ".encrypted_ticks").value();
        sum += enc / host - 1.0;
    }
    printRow({"Average", "", "",
              pct(sum / double(sizes_mb.size()), 1)});

    std::printf("\npaper: 3.1%% average latency overhead\n");
    return finishBench(opts, {{"fig8b_memstream", &merged}});
}
