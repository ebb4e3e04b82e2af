/**
 * @file
 * Quickstart: the minimal HyperTEE flow.
 *
 * Builds a simulated SoC, creates an enclave through the SDK
 * (ECREATE + EADD + EMEAS), enters it, allocates enclave heap,
 * attests it to a remote verifier, seals a secret, and tears the
 * enclave down. Every step prints what happened and what the
 * decoupled EMS did on the HostApp's behalf.
 *
 * Run: ./build/examples/quickstart
 * Pass --trace=quickstart.json to record every primitive round trip
 * as a Chrome trace (open in Perfetto / chrome://tracing).
 */

#include <cstdio>
#include <cstring>

#include "core/sdk.hh"
#include "core/system.hh"
#include "ems/attestation.hh"
#include "sim/trace.hh"

using namespace hypertee;

int
main(int argc, char **argv)
{
    logging_detail::setVerbose(false);

    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trace=", 8) == 0) {
            trace_path = argv[i] + 8;
        } else {
            std::fprintf(stderr, "usage: %s [--trace=FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (!trace_path.empty())
        TraceSink::global().setEnabled(true);

    std::printf("HyperTEE quickstart\n");
    std::printf("===================\n\n");

    // 1. Bring up the SoC: CS cores + EMS, secure boot included.
    HyperTeeSystem sys;
    std::printf("[boot] EMS secure boot ok; platform measurement %s…\n",
                toHex(sys.platformMeasurement()).substr(0, 16).c_str());

    // 2. HostApp: create an enclave (the OS relays ECREATE to the
    //    EMS, which builds the private page table and statically
    //    allocates stack+heap from the concealed memory pool).
    EnclaveConfig config;
    config.stackPages = 16;
    config.heapPages = 64;
    EnclaveHandle enclave(sys, /*core=*/0, config);
    if (!enclave.valid()) {
        std::printf("enclave creation failed\n");
        return 1;
    }
    std::printf("[ecreate] enclave %u created, %.1f us\n", enclave.id(),
                double(enclave.lastLatency()) / 1e6);

    // 3. Load the enclave binary (EADD extends the measurement).
    Bytes program(3 * pageSize);
    for (std::size_t i = 0; i < program.size(); ++i)
        program[i] = static_cast<std::uint8_t>(i * 7 + 1);
    enclave.addImage(program, EnclaveLayout::codeBase,
                     PteRead | PteExec);
    std::printf("[eadd] %zu pages of code+data loaded\n",
                program.size() / pageSize);

    // 4. Finalize the measurement (EMEAS, crypto-engine accelerated).
    Bytes measurement = enclave.measure();
    std::printf("[emeas] measurement %s… (%.1f us)\n",
                toHex(measurement).substr(0, 16).c_str(),
                double(enclave.lastLatency()) / 1e6);

    // 5. Enter the enclave: EMCall atomically switches the core to
    //    the private page table and sets IS_ENCLAVE.
    enclave.enter();
    std::printf("[eenter] core 0 now runs enclave %u (enclave mode: "
                "%s)\n",
                enclave.id(),
                sys.core(0).mmu().enclaveMode() ? "yes" : "no");

    // 6. Dynamic memory: EALLOC draws zeroed pages from the pool
    //    without any OS-visible event.
    std::uint64_t grants_before = sys.osPoolGrants();
    Addr heap = enclave.alloc(8);
    std::printf("[ealloc] 8 pages at 0x%llx, %.1f us, OS-visible "
                "events: %llu\n",
                (unsigned long long)heap,
                double(enclave.lastLatency()) / 1e6,
                (unsigned long long)(sys.osPoolGrants() -
                                     grants_before));

    // 7. Remote attestation (SIGMA): the verifier checks the quote
    //    against the vendor-certified EK and its expected code hash.
    RemoteVerifier verifier(2026);
    Bytes quote = enclave.attest(verifier.nonce(), verifier.dhPublic());
    bool trusted = verifier.verify(quote, sys.certifiedEkPublic(),
                                   measurement);
    std::printf("[eattest] quote %zu bytes; verifier says: %s\n",
                quote.size(), trusted ? "TRUSTED" : "REJECTED");
    if (!trusted)
        return 1;
    Bytes session = verifier.sessionKey(quote);
    std::printf("[sigma] session key established (%zu bytes)\n",
                session.size());

    // 8. Seal a secret to this enclave's identity on this device.
    SealedBlob blob = seal(sys.keyManager(), measurement,
                           bytesFromString("model weights v1"), 1);
    Bytes recovered;
    bool unsealed =
        unseal(sys.keyManager(), measurement, blob, recovered);
    std::printf("[seal] sealed %zu -> %zu bytes; unseal: %s\n",
                std::size_t(16), blob.ciphertext.size(),
                unsealed ? "ok" : "FAILED");
    if (!unsealed)
        return 1;

    // A different (patched) enclave cannot unseal the blob.
    Bytes other_meas(32, 0xEE);
    Bytes stolen;
    bool leaked = unseal(sys.keyManager(), other_meas, blob, stolen);
    std::printf("[seal] unseal with wrong measurement: %s\n",
                leaked ? "LEAKED (bug!)" : "rejected");
    if (leaked)
        return 1;

    // 9. Tear down: EEXIT restores the host context, EDESTROY scrubs
    //    every page and releases the KeyID.
    enclave.exit();
    enclave.destroy();
    std::printf("[edestroy] enclave gone; total primitive time %.1f "
                "us\n",
                double(enclave.totalPrimitiveLatency()) / 1e6);

    if (!trace_path.empty()) {
        auto &sink = TraceSink::global();
        if (!sink.writeJsonFile(trace_path)) {
            std::fprintf(stderr, "cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::printf("[trace] %zu events written to %s\n",
                    sink.eventCount(), trace_path.c_str());
    }

    std::printf("\nquickstart complete.\n");
    return 0;
}
