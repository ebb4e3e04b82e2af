/**
 * @file
 * Confidential-VM lifecycle demo (Section IX): the EMS manages a
 * CVM's memory, snapshots it with AES + a Merkle root held in EMS
 * private state, detects tampered snapshots, and live-migrates the
 * CVM to a second platform over an attested encrypted channel.
 *
 * Run: ./build/examples/cvm_migration
 */

#include <cstdio>

#include "ems/cvm.hh"

using namespace hypertee;

namespace
{

EFuse
deviceFuse(std::uint8_t device)
{
    EFuse f;
    f.endorsementSeed = Bytes(32, device);
    f.sealedKey = Bytes(32, static_cast<std::uint8_t>(device + 1));
    return f;
}

} // namespace

int
main()
{
    std::printf("Confidential VM lifecycle on HyperTEE\n");
    std::printf("=====================================\n\n");

    // Two physical platforms, each with its own eFuse identity but
    // the same platform TCB (migration policy requires that).
    Bytes platform_tcb(32, 0x07);
    KeyManager source_km(deviceFuse(0x11));
    KeyManager dest_km(deviceFuse(0x22));
    CvmManager source(&source_km, platform_tcb, 1);
    CvmManager dest(&dest_km, platform_tcb, 2);

    // 1. Deploy a CVM from an encrypted image (16 pages of guest
    //    memory with recognizable content).
    std::vector<Bytes> guest;
    for (int i = 0; i < 16; ++i)
        guest.push_back(Bytes(pageSize, std::uint8_t(0xd0 + i)));
    CvmId vm = source.create(guest);
    std::printf("[create] CVM %u with %zu pages on platform A\n", vm,
                source.pageCount(vm));

    // 2. The guest runs and dirties memory.
    source.writePage(vm, 3, bytesFromString("guest database state"));
    std::printf("[run] guest wrote page 3\n");

    // 3. Snapshot: host-visible bytes are ciphertext; key + root
    //    stay inside the EMS.
    CvmSnapshot snap = source.snapshot(vm);
    std::printf("[snapshot] %zu encrypted pages (nonce %llx)\n",
                snap.encryptedPages.size(),
                (unsigned long long)snap.nonce);

    // 4. The host tampers with the saved image on disk.
    CvmSnapshot tampered = snap;
    tampered.encryptedPages[3][100] ^= 0x01;
    bool tamper_rejected = source.restore(tampered) == 0;
    std::printf("[restore] tampered snapshot: %s\n",
                tamper_rejected ? "REJECTED" : "accepted (bug!)");
    if (!tamper_rejected)
        return 1;
    CvmId restored = source.restore(snap);
    std::printf("[restore] pristine snapshot: CVM %u (page 3: \"%s\")\n",
                restored,
                std::string(reinterpret_cast<const char *>(
                                source.readPage(restored, 3).data()),
                            20)
                    .c_str());

    // 5. Live migration to platform B: destination publishes an
    //    ephemeral DH share, the source attests + wraps the secrets.
    Bytes dest_priv;
    Bytes dest_pub = dest.makeMigrationDh(dest_priv);
    CvmMigrationBundle bundle = source.migrateOut(vm, dest_pub);
    std::printf("[migrate] bundle: %zu pages + %zu-byte wrapped "
                "secrets + quote\n",
                bundle.snapshot.encryptedPages.size(),
                bundle.encryptedSecrets.size());

    // A rogue platform pretending to be the source fails.
    KeyManager rogue_km(deviceFuse(0x99));
    CvmId rejected = dest.migrateIn(
        bundle, rogue_km.endorsementPublicKey(), dest_priv);
    std::printf("[migrate] rogue source attestation: %s\n",
                rejected == 0 ? "REJECTED" : "accepted (bug!)");
    if (rejected != 0)
        return 1;

    CvmId moved = dest.migrateIn(
        bundle, source_km.endorsementPublicKey(), dest_priv);
    std::printf("[migrate] genuine source: CVM %u now on platform B "
                "(page 3: \"%s\")\n",
                moved,
                std::string(reinterpret_cast<const char *>(
                                dest.readPage(moved, 3).data()),
                            20)
                    .c_str());

    std::printf("\ncvm migration demo complete.\n");
    return 0;
}
