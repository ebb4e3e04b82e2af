/**
 * @file
 * The enclave-memory-pool ablation, shared by bench_ablation_pool and
 * its golden test so both run the same system, victim and loops: one
 * fresh system per pool mode, the allocation-channel attack against a
 * measured one-page victim, then repeated 4-page EALLOC/EFREE pairs.
 */

#ifndef HYPERTEE_BENCH_ABLATION_POOL_HH
#define HYPERTEE_BENCH_ABLATION_POOL_HH

#include <vector>

#include "attack/controlled_channel.hh"
#include "core/sdk.hh"

namespace hypertee
{

struct PoolResult
{
    std::vector<bool> secret;  ///< the victim's secret bits
    AttackOutcome attack;      ///< what the attacker-OS recovered
    Tick allocTicks = 0;       ///< summed EALLOC latency of the probe
    int allocReps = 0;         ///< EALLOC/EFREE pairs in the probe
    std::uint64_t osGrants = 0; ///< OS grants during attack and probe

    double
    avgAllocUs() const
    {
        return double(allocTicks) / 1e6 / allocReps;
    }
};

/**
 * Run the attack and the EALLOC latency probe with the normal warm
 * pool (@p warm) or a degenerate pool that forwards every allocation
 * to the OS, i.e. HyperTEE minus the concealment mechanism.
 */
inline PoolResult
runWithPool(bool warm, bool smoke)
{
    SystemParams p;
    p.csMemSize = 256ULL * 1024 * 1024;
    p.csCoreCount = 1;
    if (warm) {
        p.ems.pool.initialPages = 8192;
        p.ems.pool.refillBatch = 2048;
    } else {
        // Degenerate pool: every draw goes to the OS.
        p.ems.pool.initialPages = 0;
        p.ems.pool.refillBatch = 1;
        p.ems.pool.minThreshold = 0;
        p.ems.pool.maxThreshold = 0;
    }
    HyperTeeSystem sys(p);
    EnclaveHandle victim(sys, 0, EnclaveConfig{});
    victim.addImage(Bytes(pageSize, 0x42), EnclaveLayout::codeBase,
                    PteRead | PteExec);
    victim.measure();

    PoolResult out;
    out.secret = randomSecret(smoke ? 32 : 128, 77);
    std::uint64_t grants_before = sys.osPoolGrants();
    out.attack = allocationAttackHyperTee(sys, victim, out.secret, 78);

    // Latency probe.
    victim.enter();
    out.allocReps = smoke ? 16 : 64;
    for (int i = 0; i < out.allocReps; ++i) {
        Addr va = victim.alloc(4);
        out.allocTicks += victim.lastLatency();
        victim.free(va, 4);
    }
    victim.exit();

    out.osGrants = sys.osPoolGrants() - grants_before;
    return out;
}

} // namespace hypertee

#endif // HYPERTEE_BENCH_ABLATION_POOL_HH
