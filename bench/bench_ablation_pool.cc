/**
 * @file
 * Ablation: the enclave memory pool (Section IV-A).
 *
 * Runs the allocation-based controlled-channel attack against a
 * HyperTEE system with (a) the normal warm pool and (b) a degenerate
 * pool that forwards every allocation to the OS — i.e. HyperTEE
 * minus the concealment mechanism. Also reports the EALLOC latency
 * impact of the warm pool.
 */

#include "bench/ablation_pool.hh"
#include "bench/bench_util.hh"

using namespace hypertee;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    if (!opts.ok)
        return 2;
    logging_detail::setVerbose(false);
    benchHeader("Ablation: enclave memory pool",
                "allocation-channel leakage and EALLOC latency with "
                "and without the warm pool");

    printRow({"pool", "attack-acc", "ealloc(us)", "os-grants"}, 16);
    PoolResult warm = runWithPool(true, opts.smoke);
    PoolResult cold = runWithPool(false, opts.smoke);
    printRow({"warm (HyperTEE)", pct(warm.attack.accuracy(warm.secret), 0),
              num(warm.avgAllocUs(), 1), std::to_string(warm.osGrants)},
             16);
    printRow({"pass-through", pct(cold.attack.accuracy(cold.secret), 0),
              num(cold.avgAllocUs(), 1), std::to_string(cold.osGrants)},
             16);

    std::printf("\nexpected: pass-through leaks every bit (~100%%) "
                "through the OS grants of EALLOCs that find its pool "
                "empty, and the warm pool makes none; ealloc(us) is "
                "the same for both, because each probe EFREE refills "
                "the free list the next EALLOC draws from, so only the "
                "probe's first EALLOC reaches the OS.\n");
    return finishBench(opts, {});
}
