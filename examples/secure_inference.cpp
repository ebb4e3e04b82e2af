/**
 * @file
 * Secure DNN inference: the Figure 12 scenario as an application.
 *
 * A *user enclave* holds confidential model weights; a *driver
 * enclave* owns the Gemmini accelerator. They communicate through
 * EMS-managed shared enclave memory: the user enclave creates the
 * region (ESHMGET), authorizes the driver (ESHMSHR), both attach
 * (ESHMAT), and the driver programs the DMA whitelist so the
 * accelerator can reach exactly that region and nothing else.
 * Local attestation runs first so the user enclave knows it is
 * talking to the genuine driver.
 *
 * Run: ./build/examples/secure_inference
 */

#include <cstdio>

#include "core/sdk.hh"
#include "core/system.hh"
#include "ems/attestation.hh"
#include "workload/gemmini.hh"

using namespace hypertee;

namespace
{

EnclaveHandle
makeEnclave(HyperTeeSystem &sys, unsigned core, std::uint8_t tag)
{
    EnclaveConfig cfg;
    cfg.heapPages = 64;
    cfg.maxShmPages = 1024;
    EnclaveHandle e(sys, core, cfg);
    e.addImage(Bytes(2 * pageSize, tag), EnclaveLayout::codeBase,
               PteRead | PteExec);
    e.measure();
    return e;
}

} // namespace

int
main()
{
    logging_detail::setVerbose(false);
    std::printf("Secure inference on Gemmini (user + driver enclave)\n");
    std::printf("====================================================\n\n");

    SystemParams params;
    params.csCoreCount = 2;
    HyperTeeSystem sys(params);

    EnclaveHandle user = makeEnclave(sys, 0, 0xA1);
    EnclaveHandle driver = makeEnclave(sys, 1, 0xB2);
    std::printf("[setup] user enclave %u (core 0), driver enclave %u "
                "(core 1)\n",
                user.id(), driver.id());

    // --- local attestation: user verifies the driver's identity ---
    Bytes user_meas = sys.ems().enclave(user.id())->measurement;
    Bytes driver_meas = sys.ems().enclave(driver.id())->measurement;
    Bytes cert = localReportCertificate(sys.keyManager(), user_meas,
                                        driver_meas);
    bool genuine = verifyLocalReport(sys.keyManager(), user_meas,
                                     driver_meas, cert);
    std::printf("[local-attest] driver enclave verified: %s\n",
                genuine ? "yes" : "NO - abort");
    if (!genuine)
        return 1;

    // --- shared memory channel ---
    user.enter();
    ShmId channel = user.shmCreate(64, PteRead | PteWrite);
    user.shmShare(channel, driver.id(), PteRead | PteWrite);
    Addr user_va = user.shmAttach(channel, PteRead | PteWrite);
    user.exit();

    driver.enter();
    Addr driver_va = driver.shmAttach(channel, PteRead | PteWrite);
    driver.exit();
    std::printf("[shm] 256 KiB channel %u: user VA 0x%llx, driver VA "
                "0x%llx\n",
                channel, (unsigned long long)user_va,
                (unsigned long long)driver_va);

    // --- driver grants the accelerator DMA access to the channel ---
    // On the driver enclave's request, the EMS programs whitelist
    // windows (device 1 = Gemmini) covering exactly the channel's
    // physical pages; everything outside is discarded by the fabric.
    std::size_t windows = sys.ems().grantDmaAccess(
        driver.id(), channel, /*device=*/1, DmaRead | DmaWrite);
    const ShmControl *shm = sys.ems().shm(channel);
    Addr shm_pa = shm->pages.front() << pageShift;
    bool in_window = sys.ihub().dmaAccess(1, shm_pa, 64, false);
    bool out_of_window =
        sys.ihub().dmaAccess(1, shm_pa + (256 << pageShift), 64, true);
    std::printf("[dma] %zu whitelist window(s); in-window access %s, "
                "out-of-window access %s\n",
                windows, in_window ? "allowed" : "DISCARDED (bug!)",
                out_of_window ? "ALLOWED (bug!)" : "discarded");
    if (!in_window || out_of_window)
        return 1;

    // --- run inferences: conventional vs HyperTEE data path ---
    GemminiModel gemmini;
    std::printf("\n%-16s%-14s%-14s%-10s\n", "network", "conv(ms)",
                "hypertee(ms)", "speedup");
    auto report = [&](const DnnNetwork &net) {
        CryptoEngineParams cp;
        cp.coreFreqHz = 2'500'000'000ULL;
        cp.softwareAesCyclesPerByte = 21.0;
        CryptoEngine sw_crypto(cp, false);

        Tick compute = gemmini.inferenceTime(net.macs, net.layers);
        Tick move = static_cast<Tick>(double(net.transferBytes) / 12.8);
        Tick conventional =
            compute + 2 * sw_crypto.aesTime(net.transferBytes) + move;
        Tick hypertee = compute + move;
        std::printf("%-16s%-14.2f%-14.2f%.1fx\n", net.name.c_str(),
                    double(conventional) / 1e9, double(hypertee) / 1e9,
                    double(conventional) / double(hypertee));
    };
    report(resnet50());
    report(mobileNet());
    for (const DnnNetwork &net : mlpSuite())
        report(net);

    // --- access-control demonstrations ---
    std::printf("\n[access control]\n");
    EnclaveHandle intruder = makeEnclave(sys, 0, 0xC3);
    intruder.enter();
    Addr stolen = intruder.shmAttach(channel, PteRead);
    std::printf("  unauthorized enclave attach: %s\n",
                stolen == 0 ? "rejected" : "LEAKED (bug!)");
    if (stolen != 0)
        return 1;
    bool released = intruder.shmDestroy(channel);
    std::printf("  unauthorized destroy: %s\n",
                released ? "ALLOWED (bug!)" : "rejected");
    if (released)
        return 1;
    intruder.exit();

    // Orderly teardown by the rightful owner.
    driver.enter();
    driver.shmDetach(channel);
    driver.exit();
    user.enter();
    user.shmDetach(channel);
    bool destroyed = user.shmDestroy(channel);
    user.exit();
    std::printf("  owner destroy after detach: %s\n",
                destroyed ? "ok" : "FAILED");
    if (!destroyed)
        return 1;

    std::printf("\nsecure inference demo complete.\n");
    return 0;
}
