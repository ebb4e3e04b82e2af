/**
 * @file
 * Table VI: defense capability against enclave-management attacks,
 * derived by *running* the same three controlled-channel attacks
 * against a fresh OsView of each TEE: its baseline management model,
 * or a live HyperTEE system. Cells read as verdictCell() states them;
 * per cell, --stats-json carries the correctly recovered bits and the
 * rounds the attacker observed at all.
 */

#include <cctype>

#include "attack/controlled_channel.hh"
#include "bench/bench_util.hh"

using namespace hypertee;

namespace
{

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

    // Wide enough for the longest cell, "DEFENDED (refused)".
    const int width = 20;
    printRow({"TEE", "alloc", "pagetable", "swapping", "comm", "uarch"},
             width);

    ShardStats stats;
    const std::size_t bits = opts.smoke ? 32 : 96;
    const std::vector<bool> secret = randomSecret(bits, 11);
    for (TeeModel model : allTeeModels()) {
        std::string tee = teeName(model);
        std::vector<std::string> row = {tee};
        for (char &c : tee)
            c = char(std::tolower(static_cast<unsigned char>(c)));
        for (const NamedAttack &attack : controlledChannelAttacks) {
            const AttackOutcome outcome =
                attack.run(*makeOsView(model), secret);
            const std::string prefix = tee + "." + attack.name;
            stats.scalar(prefix + ".correct_bits")
                .set(double(outcome.correctBits(secret)));
            stats.scalar(prefix + ".observed_rounds")
                .set(double(outcome.observedRounds()));
            row.push_back(verdictCell(outcome, secret));
        }
        row.push_back(commCell(model));
        row.push_back(uarchCell(model));
        printRow(row, width);
    }

    std::printf("\npaper Table VI: HyperTEE defends all five columns; "
                "SGX none; TDX/CCA only page tables; TrustZone/"
                "Keystone the paging columns; management microarch "
                "attacks defended only by physical isolation.\n");
    return finishBench(opts, {{"table6_defense", &stats}});
}
