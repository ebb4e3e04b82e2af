/**
 * @file
 * Table IV: execution time of enclave primitives as a percentage of
 * Host-Native execution, with and without the crypto engine.
 *
 * Paper values (Enclave-Noncrypto / Enclave-Crypto):
 *   average All Primitives 10.4% -> 2.5%, EMEAS 7.8% -> 0.10%.
 *
 * With --trace the run emits one EMCALL span per primitive round
 * trip; with --stats-json the per-primitive latency distributions
 * (p50/p90/p99 across the rv8 suite) and each enclave run's ticks
 * and instructions are exported for regression tracking.
 */

#include "bench/bench_util.hh"
#include "workload/profiles.hh"
#include "workload/runner.hh"

using namespace hypertee;

int
main(int argc, char **argv)
{
    logging_detail::setVerbose(false);
    BenchOptions opts = parseBenchOptions(argc, argv);
    if (!opts.ok)
        return 2;

    benchHeader("Table IV: enclave primitive execution time",
                "primitive latency vs Host-Native runtime, "
                "Enclave-Noncrypto vs Enclave-Crypto");

    printRow({"benchmark", "noncrypto", "nc-EMEAS", "crypto",
              "c-EMEAS"});

    // One latency distribution per primitive phase, sampled once per
    // (profile, engine) enclave run. Units: ticks (ps).
    ShardStats prim_stats;
    Distribution &d_create = prim_stats.distribution("ecreate_latency");
    Distribution &d_add = prim_stats.distribution("eadd_latency");
    Distribution &d_meas = prim_stats.distribution("emeas_latency");
    Distribution &d_enter_exit =
        prim_stats.distribution("eenter_eexit_latency");
    Distribution &d_destroy =
        prim_stats.distribution("edestroy_latency");

    double sum_nc = 0, sum_nc_meas = 0, sum_c = 0, sum_c_meas = 0;
    auto suite = rv8Profiles();
    if (opts.smoke && suite.size() > 1)
        suite.resize(1);
    for (const auto &profile : suite) {
        // Host-Native baseline.
        HyperTeeSystem host_sys(evalSystem(true));
        makeHostNative(host_sys);
        WorkloadRunner host_runner(host_sys);
        RunStats host = host_runner.runHost(profile);

        auto enclave_frac = [&](bool engine, double &all,
                                double &meas) {
            HyperTeeSystem sys(evalSystem(engine));
            WorkloadRunner runner(sys);
            EnclaveRunResult r =
                runner.runEnclave(profile, 1,
                                  /*charge_primitives=*/false);
            all = double(r.totalPrimitiveLatency()) /
                  double(host.ticks);
            meas = double(r.measLatency) / double(host.ticks);
            d_create.sample(double(r.createLatency));
            d_add.sample(double(r.addLatency));
            d_meas.sample(double(r.measLatency));
            d_enter_exit.sample(double(r.enterExitLatency));
            d_destroy.sample(double(r.destroyLatency));
            const std::string prefix =
                profile.name + (engine ? ".crypto" : ".noncrypto");
            prim_stats.scalar(prefix + ".run_ticks")
                .set(double(r.stats.ticks));
            prim_stats.scalar(prefix + ".run_instructions")
                .set(double(r.stats.instructions));
        };

        double nc_all, nc_meas, c_all, c_meas;
        enclave_frac(false, nc_all, nc_meas);
        enclave_frac(true, c_all, c_meas);

        printRow({profile.name, pct(nc_all, 1), pct(nc_meas, 1),
                  pct(c_all, 1), pct(c_meas, 2)});
        sum_nc += nc_all;
        sum_nc_meas += nc_meas;
        sum_c += c_all;
        sum_c_meas += c_meas;
    }
    double n = double(suite.size());
    printRow({"Average", pct(sum_nc / n, 1), pct(sum_nc_meas / n, 1),
              pct(sum_c / n, 1), pct(sum_c_meas / n, 2)});
    std::printf("\npaper: Average 10.4%% / 7.8%% -> 2.5%% / 0.10%%\n");

    return finishBench(opts, {{"primitives", &prim_stats}});
}
