/**
 * @file
 * Table VI: defense capability against enclave-management attacks,
 * derived by *running* the controlled-channel attacks against each
 * TEE's management model and a live HyperTEE system.
 *
 * Matrix semantics: an attack is "defended" when the attacker's
 * bit-recovery accuracy collapses to chance (<60%), "open" when it
 * is essentially perfect (>90%).
 */

#include "attack/controlled_channel.hh"
#include "bench/bench_util.hh"
#include "core/sdk.hh"

using namespace hypertee;

namespace
{

const char *
verdict(double accuracy)
{
    if (accuracy > 0.9)
        return "open";
    if (accuracy < 0.6)
        return "DEFENDED";
    return "partial";
}

std::string
cell(double accuracy)
{
    return std::string(verdict(accuracy)) + " (" +
           pct(accuracy, 0) + ")";
}

/** Communication-management column: managed keys + ACLs present? */
const char *
commCell(TeeModel model)
{
    return exposureOf(model).communicationUnmanaged ? "open"
                                                    : "DEFENDED";
}

/** Microarchitectural column from the isolation properties. */
const char *
uarchCell(TeeModel model)
{
    ManagementExposure e = exposureOf(model);
    if (!e.mgmtSharesMicroarchitecture)
        return "DEFENDED";
    if (e.mgmtPartiallyIsolated)
        return "partial";
    return "open";
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    if (!opts.ok)
        return 2;
    logging_detail::setVerbose(false);
    benchHeader("Table VI: defense against management-task attacks",
                "attack-derived matrix: allocation / page-table / "
                "swapping / communication / microarchitectural");

    printRow({"TEE", "alloc", "pagetable", "swapping", "comm",
              "uarch"},
             17);

    // Per HyperTEE attack: correctly recovered bits, blocked
    // observations and the pool's OS requests so far.
    ShardStats stats;
    const std::size_t bits = opts.smoke ? 32 : 96;
    for (TeeModel model : allTeeModels()) {
        std::vector<bool> secret = randomSecret(bits, 11);
        std::string alloc_cell, pt_cell, swap_cell;

        if (model == TeeModel::HyperTee) {
            // One live system; the three attacks run in this order.
            SystemParams p;
            p.csMemSize = 256ULL * 1024 * 1024;
            p.csCoreCount = 1;
            p.ems.pool.initialPages = 8192;
            HyperTeeSystem sys(p);
            EnclaveHandle victim(sys, 0, EnclaveConfig{});
            victim.addImage(Bytes(pageSize, 0x42), EnclaveLayout::codeBase,
                            PteRead | PteExec);
            victim.measure();

            auto record = [&](const char *name,
                              const AttackOutcome &outcome) {
                std::uint64_t correct = 0;
                for (std::size_t i = 0; i < secret.size(); ++i)
                    correct += outcome.recovered.at(i) == secret[i];
                const std::string prefix = std::string("hypertee.") + name;
                stats.scalar(prefix + ".correct_bits").set(double(correct));
                stats.scalar(prefix + ".blocked_observations")
                    .set(double(outcome.blockedObservations));
                stats.scalar(prefix + ".pool_os_requests")
                    .set(double(sys.ems().pool().osRequests()));
                return cell(outcome.accuracy(secret));
            };
            alloc_cell = record(
                "alloc", allocationAttackHyperTee(sys, victim, secret, 21));
            pt_cell = record(
                "pagetable", pageTableAttackHyperTee(sys, victim, secret, 22));
            swap_cell =
                record("swap", swapAttackHyperTee(sys, victim, secret, 23));
        } else {
            BaselineOsManager m1(model, 31), m2(model, 32),
                m3(model, 33);
            alloc_cell =
                cell(allocationAttack(m1, secret, 41).accuracy(secret));
            pt_cell =
                cell(pageTableAttack(m2, secret, 42).accuracy(secret));
            swap_cell =
                cell(swapAttack(m3, secret, 43).accuracy(secret));
        }

        printRow({teeName(model), alloc_cell, pt_cell, swap_cell,
                  commCell(model), uarchCell(model)},
                 17);
    }

    std::printf("\npaper Table VI: HyperTEE defends all five columns; "
                "SGX none; TDX/CCA only page tables; TrustZone/"
                "Keystone the paging columns; management microarch "
                "attacks defended only by physical isolation.\n");
    return finishBench(opts, {{"table6_defense", &stats}});
}
