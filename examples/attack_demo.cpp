/**
 * @file
 * Controlled-channel attack demo: the paper's motivation, live.
 *
 * A victim enclave processes a secret bit-string whose bits drive
 * its memory behaviour. A privileged attacker (the OS) mounts the
 * three controlled-channel attacks from the introduction against
 * (a) an SGX-class baseline where the OS manages enclave memory and
 * (b) this repository's HyperTEE system. Finally it probes the EMS
 * timing channel with and without the paper's two defenses.
 *
 * Run: ./build/examples/attack_demo
 */

#include <cstdio>

#include "attack/controlled_channel.hh"
#include "core/sdk.hh"

using namespace hypertee;

namespace
{

/**
 * Defence verdicts, as in bench_table6_defense: an attack is open
 * above 90% recovery and defended below 60% (50% is coin flipping).
 */
constexpr double openAbove = 0.9;
constexpr double defendedBelow = 0.6;

/** Print one attack's row. @return false if a reading looks broken. */
bool
row(const char *attack, double baseline_acc, double hypertee_acc)
{
    std::printf("%-22s%-22.0f%-20.0f\n", attack, baseline_acc * 100,
                hypertee_acc * 100);
    bool ok = true;
    if (baseline_acc <= openAbove) {
        std::printf("  FAILED: the SGX-class attack should recover "
                    "over %.0f%% of the bits\n",
                    openAbove * 100);
        ok = false;
    }
    if (hypertee_acc >= defendedBelow) {
        std::printf("  FAILED: HyperTEE should hold recovery under "
                    "%.0f%%\n",
                    defendedBelow * 100);
        ok = false;
    }
    return ok;
}

} // namespace

int
main()
{
    logging_detail::setVerbose(false);
    std::printf("Controlled-channel attacks: SGX-class OS management "
                "vs HyperTEE EMS\n");
    std::printf("=================================================="
                "==============\n\n");

    const std::size_t bits = 128;
    std::vector<bool> secret = randomSecret(bits, 2026);
    std::printf("victim secret: %zu bits (e.g. RSA exponent "
                "windows)\n\n",
                bits);

    // --- SGX-class baseline: the OS sees and controls everything ---
    BaselineOsManager sgx_alloc(TeeModel::Sgx, 1);
    BaselineOsManager sgx_pt(TeeModel::Sgx, 2);
    BaselineOsManager sgx_swap(TeeModel::Sgx, 3);

    // --- live HyperTEE system ---
    SystemParams params;
    params.csMemSize = 256ULL * 1024 * 1024;
    params.csCoreCount = 1;
    params.ems.pool.initialPages = 8192;
    HyperTeeSystem sys(params);
    EnclaveHandle victim(sys, 0, EnclaveConfig{});
    victim.addImage(Bytes(pageSize, 0x42), EnclaveLayout::codeBase,
                    PteRead | PteExec);
    victim.measure();

    std::printf("%-22s%-22s%-20s\n", "attack",
                "SGX-class recovery %", "HyperTEE recovery %");
    bool ok = row(
        "allocation events",
        allocationAttack(sgx_alloc, secret, 10).accuracy(secret),
        allocationAttackHyperTee(sys, victim, secret, 10)
            .accuracy(secret));
    ok &= row(
        "page-table A/D bits",
        pageTableAttack(sgx_pt, secret, 11).accuracy(secret),
        pageTableAttackHyperTee(sys, victim, secret, 11)
            .accuracy(secret));
    ok &= row(
        "page swapping",
        swapAttack(sgx_swap, secret, 12).accuracy(secret),
        swapAttackHyperTee(sys, victim, secret, 12).accuracy(secret));

    std::printf("\n(50%% = coin flipping: the attacker learned "
                "nothing)\n");

    std::printf("\nwhy the HyperTEE attacks fail:\n");
    std::printf("  - %llu OS pool grants total vs per-allocation "
                "events\n",
                (unsigned long long)sys.osPoolGrants());
    std::printf("  - %llu bitmap violations while scraping the "
                "private page table\n",
                (unsigned long long)sys.core(0)
                    .mmu()
                    .bitmapViolations());
    std::printf("  - EWB returned only unused pool pages, never the "
                "victim's\n");

    // --- EMS timing channel (Section III-C) ---
    std::printf("\nEMS timing channel (attacker classifies a 10us "
                "victim service delta):\n");
    std::printf("  1 EMS core, no jitter : %.0f%%\n",
                timingChannelAccuracy(1, false, 10'000'000, 96, 7) *
                    100);
    std::printf("  1 EMS core, jitter on : %.0f%%\n",
                timingChannelAccuracy(1, true, 10'000'000, 96, 7) *
                    100);
    const double hypertee_timing =
        timingChannelAccuracy(2, true, 10'000'000, 96, 7);
    std::printf("  2 EMS cores (HyperTEE): %.0f%%\n",
                hypertee_timing * 100);
    if (hypertee_timing >= defendedBelow) {
        std::printf("  FAILED: two jittered EMS cores should hold the "
                    "timing channel under %.0f%%\n",
                    defendedBelow * 100);
        ok = false;
    }

    if (!ok) {
        std::printf("\nattack demo FAILED: a defence reads broken.\n");
        return 1;
    }
    std::printf("\nattack demo complete.\n");
    return 0;
}
