/**
 * @file
 * Figure 9: wolfSSL in an enclave with *all* memory management
 * mechanisms active: EMS allocation (EALLOC/EFREE for TLS session
 * state), memory encryption, and integrity.
 *
 * The Host-Native and Enclave-M_encrypt runs are independent
 * simulations, so they fan across --jobs worker shards; the overhead
 * row is assembled from the merged stats, and the output is
 * byte-identical for any job count.
 *
 * Paper: 0.9% overall overhead versus Host-Native. Allocation is
 * infrequent in real programs (a handful of session setups per
 * run), which is why the total stays below 1%.
 */

#include "bench/bench_util.hh"
#include "workload/profiles.hh"
#include "workload/runner.hh"

using namespace hypertee;

namespace
{

RunStats
runHostNative(const WorkloadProfile &profile)
{
    HyperTeeSystem host_sys(evalSystem(true));
    makeHostNative(host_sys);
    WorkloadRunner host_runner(host_sys);
    return host_runner.runHost(profile);
}

/**
 * Enclave run: same instruction stream, but the session buffers are
 * allocated and released through the EMS while running, and all
 * off-chip traffic pays encryption + integrity.
 */
RunStats
runEnclaveChurn(const WorkloadProfile &profile, int sessions)
{
    HyperTeeSystem enc_sys(evalSystem(true));
    EnclaveConfig cfg;
    cfg.heapPages = pagesFor(profile.workingSetBytes);
    EnclaveHandle enclave(enc_sys, 0, cfg, /*charge_core=*/false);
    enclave.addImage(Bytes(profile.imageBytes, 0x5c),
                     EnclaveLayout::codeBase, PteRead | PteExec);
    enclave.measure();
    enclave.enter();
    enclave.setChargeCore(true); // steady-state: charge the churn

    SyntheticWorkload stream(profile, EnclaveLayout::heapBase, 0, 1);
    Core &core = enc_sys.core(0);
    RunStats enc;
    std::uint64_t chunk = profile.instructions / sessions;
    const Addr session_va = EnclaveLayout::heapBase + (32 << 20);
    for (int s = 0; s < sessions; ++s) {
        Addr va = enclave.allocAt(session_va, 4);
        fatalIf(va == 0, "session EALLOC failed");
        RunStats part = core.run(stream, chunk);
        enc.add(part);
        enclave.free(va, 4);
    }
    return enc;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    if (!opts.ok)
        return 2;
    logging_detail::setVerbose(false);
    benchHeader("Figure 9: wolfSSL memory-management overhead",
                "Enclave-M_encrypt wolfSSL (with TLS-session "
                "EALLOC/EFREE churn) vs Host-Native");

    WorkloadProfile profile = wolfSslProfile();
    if (opts.smoke)
        profile.instructions /= 8;
    const int sessions = 4; ///< TLS session setups during the run

    // Shard 0 is the host baseline, shard 1 the enclave run; the
    // overhead needs both, so rows are printed from the merged stats.
    ShardStats merged = runShardedBench(
        opts, 2, 20, [&](ShardContext &ctx) {
            BenchShardResult result;
            RunStats run = ctx.index == 0
                               ? runHostNative(profile)
                               : runEnclaveChurn(profile, sessions);
            const std::string prefix =
                ctx.index == 0 ? "host_native" : "enclave_mencrypt";
            result.stats.scalar(prefix + ".ticks")
                .set(double(run.ticks));
            result.stats.scalar(prefix + ".instructions")
                .set(double(run.instructions));
            return result;
        });

    double host = merged.scalar("host_native.ticks").value();
    double enc = merged.scalar("enclave_mencrypt.ticks").value();
    double overhead = enc / host - 1.0;
    printRow({"scenario", "time(ms)", "overhead"}, 20);
    printRow({"Host-Native", num(host / 1e9, 2), "-"}, 20);
    printRow({"Enclave-M_encrypt", num(enc / 1e9, 2),
              pct(overhead, 2)},
             20);

    std::printf("\npaper: 0.9%% overhead for wolfSSL with all memory "
                "management mechanisms\n");
    return finishBench(opts, {{"fig9_wolfssl_mm", &merged}});
}
