/**
 * @file
 * Ablation: the enclave memory pool (Section IV-A).
 *
 * Runs the allocation-based controlled-channel attack against a
 * HyperTEE system with (a) the normal warm pool and (b) a degenerate
 * pool that forwards every allocation to the OS — i.e. HyperTEE
 * minus the concealment mechanism. Also reports the EALLOC latency
 * impact of the warm pool. Per pool mode, --stats-json carries the
 * correctly recovered secret bits, the OS grants and the summed
 * EALLOC latency of the probe. The pass-through pool draws every
 * page from the OS, so this is also the run that exercises the
 * ownership table hardest.
 */

#include "attack/controlled_channel.hh"
#include "bench/bench_util.hh"

using namespace hypertee;

namespace
{

/**
 * Run the attack against HyperTeeOsView's measured one-page victim,
 * then repeated 4-page EALLOC/EFREE pairs, with the normal warm pool
 * (@p warm) or the pass-through pool, on a fresh system. Prints the
 * mode's row and adds its stats to @p stats.
 */
void
runWithPool(bool warm, bool smoke, ShardStats &stats)
{
    SystemParams p = HyperTeeOsView::defaultParams();
    if (warm) {
        p.ems.pool.refillBatch = 2048;
    } else {
        // Degenerate pool: every draw goes to the OS.
        p.ems.pool.initialPages = 0;
        p.ems.pool.refillBatch = 1;
        p.ems.pool.minThreshold = 0;
        p.ems.pool.maxThreshold = 0;
    }
    HyperTeeOsView view(p);
    HyperTeeSystem &sys = view.system();
    EnclaveHandle &victim = view.victim();

    const std::vector<bool> secret = randomSecret(smoke ? 32 : 128, 77);
    const std::uint64_t grants_before = sys.osPoolGrants();
    const AttackOutcome attack = allocationAttack(view, secret);
    view.hostContext();

    // Latency probe.
    victim.enter();
    const int reps = smoke ? 16 : 64;
    Tick alloc_ticks = 0;
    for (int i = 0; i < reps; ++i) {
        Addr va = victim.alloc(4);
        alloc_ticks += victim.lastLatency();
        victim.free(va, 4);
    }
    victim.exit();
    const std::uint64_t os_grants = sys.osPoolGrants() - grants_before;

    const std::string prefix = warm ? "warm" : "passthrough";
    stats.scalar(prefix + ".correct_bits")
        .set(double(attack.correctBits(secret)));
    stats.scalar(prefix + ".os_grants").set(double(os_grants));
    stats.scalar(prefix + ".ealloc_ticks").set(double(alloc_ticks));

    printRow({warm ? "warm (HyperTEE)" : "pass-through",
              pct(attack.accuracy(secret), 0),
              num(double(alloc_ticks) / 1e6 / reps, 1),
              std::to_string(os_grants)},
             16);
}

} // namespace

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
    ShardStats stats;
    runWithPool(true, opts.smoke, stats);
    runWithPool(false, opts.smoke, stats);

    std::printf("\nexpected: pass-through leaks every bit (~100%%) "
                "through the OS grants of EALLOCs that find its pool "
                "empty, and the warm pool makes none; ealloc(us) is "
                "the same for both, because each probe EFREE refills "
                "the free list the next EALLOC draws from, so only the "
                "probe's first EALLOC reaches the OS.\n");
    return finishBench(opts, {{"ablation_pool", &stats}});
}
