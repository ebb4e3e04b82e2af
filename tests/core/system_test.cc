/** @file End-to-end system tests through the public API. */

#include <gtest/gtest.h>

#include <set>

#include "core/sdk.hh"
#include "core/system.hh"

namespace hypertee
{
namespace
{

SystemParams
smallSystem()
{
    SystemParams p;
    p.csMemSize = 128ULL * 1024 * 1024;
    p.csCoreCount = 2;
    p.ems.pool.initialPages = 2048;
    p.ems.pool.refillBatch = 512;
    return p;
}

struct SystemTest : ::testing::Test
{
    HyperTeeSystem sys{smallSystem()};

    EnclaveHandle
    measuredEnclave(unsigned core = 0, std::uint8_t fill = 0x90)
    {
        EnclaveHandle enclave(sys, core, EnclaveConfig{});
        EXPECT_TRUE(enclave.valid());
        EXPECT_TRUE(enclave.addImage(Bytes(2 * pageSize, fill),
                                     EnclaveLayout::codeBase,
                                     PteRead | PteExec));
        EXPECT_FALSE(enclave.measure().empty());
        return enclave;
    }
};

TEST_F(SystemTest, SecureBootEstablishedPlatformMeasurement)
{
    EXPECT_TRUE(sys.ems().booted());
    EXPECT_EQ(sys.platformMeasurement().size(), 32u);
}

TEST_F(SystemTest, FullEnclaveLifecycleThroughSdk)
{
    EnclaveHandle enclave = measuredEnclave();
    EXPECT_TRUE(enclave.enter());
    EXPECT_TRUE(sys.emCall(0).inEnclave());
    EXPECT_EQ(sys.emCall(0).currentEnclave(), enclave.id());
    EXPECT_TRUE(sys.core(0).mmu().enclaveMode());

    Addr va = enclave.alloc(4);
    EXPECT_NE(va, 0u);
    EXPECT_TRUE(enclave.free(va, 4));

    EXPECT_TRUE(enclave.exit());
    EXPECT_FALSE(sys.emCall(0).inEnclave());
    EXPECT_FALSE(sys.core(0).mmu().enclaveMode());
    EXPECT_TRUE(enclave.destroy());
}

TEST_F(SystemTest, ContextSwitchChangesPageTableAndFlushesTlb)
{
    EnclaveHandle enclave = measuredEnclave();
    const PageTable *host_pt = sys.core(0).mmu().pageTable();
    std::uint64_t flushes = sys.core(0).mmu().tlb().flushes();

    ASSERT_TRUE(enclave.enter());
    EXPECT_NE(sys.core(0).mmu().pageTable(), host_pt);
    EXPECT_EQ(sys.core(0).mmu().pageTable(),
              sys.ems().enclavePageTable(enclave.id()));
    EXPECT_GT(sys.core(0).mmu().tlb().flushes(), flushes);

    ASSERT_TRUE(enclave.exit());
    EXPECT_EQ(sys.core(0).mmu().pageTable(), host_pt);
}

TEST_F(SystemTest, HostCannotTouchEnclaveMemoryViaBitmap)
{
    EnclaveHandle enclave = measuredEnclave();
    // The OS (attacker) maps the enclave's physical page into the
    // host address space and dereferences it.
    WalkResult walk = sys.ems()
                          .enclavePageTable(enclave.id())
                          ->walk(EnclaveLayout::codeBase);
    ASSERT_TRUE(walk.valid);
    sys.hostPageTable().map(0x7770'0000, pageAlign(walk.pa),
                            PteRead | PteWrite | PteUser);

    TranslateResult tr =
        sys.core(0).mmu().translate(0x7770'0000, false, false);
    EXPECT_EQ(tr.fault, MemFault::BitmapViolation)
        << "bitmap check stops the host dereference";
}

TEST_F(SystemTest, CrossPrivilegeInvocationBlockedAtGate)
{
    // A user-mode caller attempts the OS-only ECREATE.
    InvokeResult r = sys.emCall(0).invoke(PrimitiveOp::ECreate,
                                          PrivMode::User, {4, 8, 64});
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.response.status, PrimStatus::PermissionDenied);
    EXPECT_EQ(sys.emCall(0).blockedCrossPrivilege(), 1u);
}

TEST_F(SystemTest, EnclaveIdentityCannotBeForgedThroughGate)
{
    EnclaveHandle victim = measuredEnclave(0, 0x90);
    EnclaveHandle malicious = measuredEnclave(1, 0x91);
    ASSERT_NE(victim.id(), malicious.id());

    // The malicious HostApp on core 1 never entered the victim; its
    // gate encapsulates invalid/malicious identity, so an EALLOC it
    // issues cannot land in the victim's address space.
    std::size_t victim_pages =
        sys.ems().ownership().privatePages(victim.id());
    sys.emCall(1).invoke(PrimitiveOp::EAlloc, PrivMode::User, {4});
    EXPECT_EQ(sys.ems().ownership().privatePages(victim.id()),
              victim_pages);
}

TEST_F(SystemTest, RemoteAttestationEndToEnd)
{
    EnclaveHandle enclave = measuredEnclave();
    Bytes measurement = sys.ems().enclave(enclave.id())->measurement;

    RemoteVerifier verifier(1234);
    ASSERT_TRUE(enclave.enter());
    Bytes quote = enclave.attest(verifier.nonce(), verifier.dhPublic());
    ASSERT_FALSE(quote.empty());

    EXPECT_TRUE(verifier.verify(quote, sys.certifiedEkPublic(),
                                measurement));
    EXPECT_EQ(verifier.sessionKey(quote).size(), 32u);

    // A verifier expecting different code must reject the quote.
    EXPECT_FALSE(verifier.verify(quote, sys.certifiedEkPublic(),
                                 Bytes(32, 0xEE)));
}

TEST_F(SystemTest, AttestationDetectsTamperedEnclaveImage)
{
    EnclaveHandle good = measuredEnclave(0, 0x90);
    Bytes good_meas = sys.ems().enclave(good.id())->measurement;

    // The attacker ships a backdoored image and claims it is `good`.
    EnclaveHandle evil = measuredEnclave(1, 0x66);
    RemoteVerifier verifier(99);
    ASSERT_TRUE(evil.enter());
    Bytes quote = evil.attest(verifier.nonce(), verifier.dhPublic());
    EXPECT_FALSE(verifier.verify(quote, sys.certifiedEkPublic(),
                                 good_meas))
        << "measurement mismatch exposes the modified binary";
}

TEST_F(SystemTest, ShmCommunicationBetweenTwoEnclaves)
{
    EnclaveHandle producer = measuredEnclave(0, 0x90);
    EnclaveHandle consumer = measuredEnclave(1, 0x91);

    ASSERT_TRUE(producer.enter());
    ShmId shm = producer.shmCreate(4, PteRead | PteWrite);
    ASSERT_NE(shm, 0u);
    ASSERT_TRUE(producer.shmShare(shm, consumer.id(), PteRead));
    Addr prod_va = producer.shmAttach(shm, PteRead | PteWrite);
    ASSERT_NE(prod_va, 0u);
    ASSERT_TRUE(producer.exit());

    ASSERT_TRUE(consumer.enter());
    Addr cons_va = consumer.shmAttach(shm, PteRead);
    ASSERT_NE(cons_va, 0u);

    // Data written through the producer's mapping is visible through
    // the consumer's (same physical pages, same KeyID domain).
    WalkResult pw = sys.ems()
                        .enclavePageTable(producer.id())
                        ->walk(prod_va);
    WalkResult cw = sys.ems()
                        .enclavePageTable(consumer.id())
                        ->walk(cons_va);
    ASSERT_TRUE(pw.valid);
    ASSERT_TRUE(cw.valid);
    EXPECT_EQ(pageAlign(pw.pa), pageAlign(cw.pa));
    EXPECT_EQ(pw.keyId, cw.keyId);

    sys.csMem().writeBytes(pw.pa, bytesFromString("hello enclave"));
    EXPECT_EQ(sys.csMem().readBytes(cw.pa, 13),
              bytesFromString("hello enclave"));
}

TEST_F(SystemTest, PrimitiveLatencyIsChargedToTheCore)
{
    EnclaveHandle enclave = measuredEnclave();
    EXPECT_GT(enclave.totalPrimitiveLatency(), 0u);
}

TEST_F(SystemTest, OsSeesOnlyPoolGrantsNotPerAllocationEvents)
{
    std::uint64_t grants_before = sys.osPoolGrants();
    EnclaveHandle enclave = measuredEnclave();
    ASSERT_TRUE(enclave.enter());
    // Many small allocations served from the warm pool.
    for (int i = 0; i < 20; ++i)
        EXPECT_NE(enclave.alloc(1), 0u);
    std::uint64_t grants_after = sys.osPoolGrants();
    EXPECT_LE(grants_after - grants_before, 1u)
        << "per-allocation events are concealed from the OS";
}

TEST_F(SystemTest, NoFrameIsBothHostMappedAndInThePool)
{
    // Host mappings on both sides of a pool refill forced by pool
    // pressure, so the OS's grants to the two interleave.
    sys.osMapRange(0x2000'0000, 64 * pageSize, PteRead | PteWrite);
    std::uint64_t grants_before = sys.osPoolGrants();
    EnclaveConfig cfg;
    cfg.heapPages = smallSystem().ems.pool.initialPages;
    EnclaveHandle enclave(sys, 0, cfg);
    ASSERT_TRUE(enclave.valid());
    ASSERT_GT(sys.osPoolGrants(), grants_before);
    sys.osMapRange(0x3000'0000, 64 * pageSize, PteRead | PteWrite);

    std::set<Addr> host;
    for (Addr pa : sys.hostPageTable().tableFrames())
        host.insert(pageNumber(pa));
    sys.hostPageTable().forEachMapping(
        [&](Addr, const WalkResult &w) { host.insert(pageNumber(w.pa)); });
    ASSERT_GE(host.size(), 128u);

    EnclaveMemoryPool &pool = sys.ems().pool();
    std::vector<Addr> pooled = pool.allocate(pool.freePages());
    for (Addr ppn : sys.ems().ownership().pagesOf(enclave.id()))
        pooled.push_back(ppn);
    for (Addr pa : sys.ems().enclavePageTable(enclave.id())->tableFrames())
        pooled.push_back(pageNumber(pa));
    ASSERT_GT(pooled.size(), cfg.heapPages);
    for (Addr ppn : pooled)
        EXPECT_EQ(host.count(ppn), 0u) << "PPN " << ppn << " granted twice";
}

TEST_F(SystemTest, CountersReflectActivity)
{
    // Before: no gate traffic.
    EXPECT_EQ(sys.emCall(0).requestsIssued(), 0u);

    EnclaveHandle enclave(sys, 0, EnclaveConfig{});
    enclave.addImage(Bytes(pageSize, 1), EnclaveLayout::codeBase,
                     PteRead | PteExec);
    enclave.measure();

    EXPECT_GT(sys.emCall(0).requestsIssued(), 0u)
        << "gate activity must show up";
    EXPECT_EQ(sys.emCall(1).requestsIssued(), 0u);
    // Enclave pages got marked in the bitmap: the static allocation,
    // the added image and the page-table frames.
    EXPECT_GT(sys.bitmap().enclavePageCount(), 1u);
}

TEST_F(SystemTest, TwoCoresRunIndependentEnclaves)
{
    EnclaveHandle a = measuredEnclave(0, 0x11);
    EnclaveHandle b = measuredEnclave(1, 0x22);
    ASSERT_TRUE(a.enter());
    ASSERT_TRUE(b.enter());
    EXPECT_EQ(sys.emCall(0).currentEnclave(), a.id());
    EXPECT_EQ(sys.emCall(1).currentEnclave(), b.id());
    EXPECT_NE(sys.core(0).mmu().pageTable(),
              sys.core(1).mmu().pageTable());
}

} // namespace
} // namespace hypertee
