/**
 * @file
 * Table VI's HyperTEE row, shared by bench_table6_defense and its
 * golden test so both run the same system, victim and attacks: one
 * live system with a measured one-page victim, then the allocation,
 * page-table and swapping attacks against it in that order.
 */

#ifndef HYPERTEE_BENCH_TABLE6_HYPERTEE_HH
#define HYPERTEE_BENCH_TABLE6_HYPERTEE_HH

#include <vector>

#include "attack/controlled_channel.hh"
#include "core/sdk.hh"

namespace hypertee
{

/** Secret bits per attack: full run and --smoke. */
constexpr std::size_t table6Bits = 96;
constexpr std::size_t table6SmokeBits = 32;

/** One attack against the live system. */
struct HyperTeeAttack
{
    AttackOutcome outcome;
    /** The pool's OS requests so far, read right after this attack. */
    std::uint64_t osRequests = 0;
};

struct HyperTeeAttacks
{
    HyperTeeAttack alloc;
    HyperTeeAttack pageTable;
    HyperTeeAttack swap;
};

/** The three management-task attacks against one HyperTEE victim. */
inline HyperTeeAttacks
runHyperTeeAttacks(const std::vector<bool> &secret)
{
    SystemParams p;
    p.csMemSize = 256ULL * 1024 * 1024;
    p.csCoreCount = 1;
    p.ems.pool.initialPages = 8192;
    HyperTeeSystem sys(p);
    EnclaveHandle victim(sys, 0, EnclaveConfig{});
    victim.addImage(Bytes(pageSize, 0x42), EnclaveLayout::codeBase,
                    PteRead | PteExec);
    victim.measure();

    auto attack = [&](AttackOutcome outcome) {
        return HyperTeeAttack{outcome, sys.ems().pool().osRequests()};
    };
    HyperTeeAttacks out;
    out.alloc = attack(allocationAttackHyperTee(sys, victim, secret, 21));
    out.pageTable =
        attack(pageTableAttackHyperTee(sys, victim, secret, 22));
    out.swap = attack(swapAttackHyperTee(sys, victim, secret, 23));
    return out;
}

} // namespace hypertee

#endif // HYPERTEE_BENCH_TABLE6_HYPERTEE_HH
