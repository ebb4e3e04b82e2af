/**
 * @file
 * Controlled-channel attack demo: the paper's motivation, live.
 *
 * A victim enclave processes a secret bit-string whose bits drive
 * its memory behaviour. A privileged attacker (the OS) mounts the
 * three controlled-channel attacks from the introduction, the same
 * code each time, against (a) an SGX-class baseline where the OS
 * manages enclave memory and (b) a live HyperTEE system. Finally it
 * probes the EMS timing channel with and without the paper's two
 * defenses. It exits 1 if a reading contradicts Table VI's verdicts.
 *
 * Run: ./build/examples/attack_demo
 */

#include <cstdio>

#include "attack/controlled_channel.hh"

using namespace hypertee;

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

    std::printf("%-12s%-22s%-20s\n", "attack", "SGX-class",
                "HyperTEE");
    bool ok = true;
    for (const NamedAttack &attack : controlledChannelAttacks) {
        BaselineOsManager sgx(TeeModel::Sgx);
        HyperTeeOsView hypertee;
        const AttackOutcome open = attack.run(sgx, secret);
        const AttackOutcome closed = attack.run(hypertee, secret);
        std::printf("%-12s%-22s%-20s\n", attack.name,
                    verdictCell(open, secret).c_str(),
                    verdictCell(closed, secret).c_str());
        if (verdictOf(open, secret) != Verdict::Open) {
            std::printf("  FAILED: the SGX-class attack should be "
                        "open\n");
            ok = false;
        }
        if (verdictOf(closed, secret) != Verdict::Defended) {
            std::printf("  FAILED: HyperTEE should defend this "
                        "channel\n");
            ok = false;
        }
    }

    std::printf("\nHyperTEE: the warm pool asks the OS for no memory per "
                "EALLOC,\nthe bitmap refuses every host access to the "
                "victim's page table,\nand EWB evicts only pool pages "
                "the EMS picks.\n");

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
    if (verdictOf(hypertee_timing) != Verdict::Defended) {
        std::printf("  FAILED: two jittered EMS cores should defend "
                    "the timing channel\n");
        ok = false;
    }

    if (!ok) {
        std::printf("\nattack demo FAILED: a defence reads broken.\n");
        return 1;
    }
    std::printf("\nattack demo complete.\n");
    return 0;
}
