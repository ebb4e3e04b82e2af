/** @file Cross-mechanism integration scenarios. */

#include <gtest/gtest.h>

#include <set>

#include "core/sdk.hh"
#include "core/system.hh"

namespace hypertee
{
namespace
{

struct IntegrationTest : ::testing::Test
{
    SystemParams
    params()
    {
        SystemParams p;
        p.csMemSize = 256ULL * 1024 * 1024;
        p.csCoreCount = 2;
        p.ems.pool.initialPages = 4096;
        return p;
    }

    HyperTeeSystem sys{params()};

    EnclaveHandle
    measured(unsigned core, std::uint8_t fill)
    {
        EnclaveHandle e(sys, core, EnclaveConfig{});
        e.addImage(Bytes(pageSize, fill), EnclaveLayout::codeBase,
                   PteRead | PteExec);
        e.measure();
        return e;
    }
};

TEST_F(IntegrationTest, HostCannotReachAnyEnclavePage)
{
    EnclaveHandle enclave = measured(0, 0x42);
    const EnclaveControl *ctl = sys.ems().enclave(enclave.id());

    // The OS maps *every* page the enclave owns (data + page-table
    // frames) into host space and dereferences each one.
    std::vector<Addr> all = sys.ems().ownership().pagesOf(enclave.id());
    for (Addr frame : ctl->pageTable->tableFrames())
        all.push_back(pageNumber(frame));

    Addr probe = 0x7000'0000;
    unsigned blocked = 0;
    for (Addr ppn : all) {
        sys.hostPageTable().map(probe, ppn << pageShift,
                                PteRead | PteUser);
        TranslateResult tr =
            sys.core(0).mmu().translate(probe, false, false);
        blocked += (tr.fault == MemFault::BitmapViolation);
        sys.core(0).mmu().flushTlbs();
        sys.hostPageTable().unmap(probe);
    }
    EXPECT_EQ(blocked, all.size())
        << "every single enclave page must be bitmap-protected";
}

TEST_F(IntegrationTest, DestroyLeavesNoSecretResidue)
{
    EnclaveHandle enclave = measured(0, 0x42);
    ASSERT_TRUE(enclave.enter());
    Addr heap = enclave.alloc(4);
    ASSERT_NE(heap, 0u);

    // The enclave writes secrets into its heap.
    std::vector<Addr> frames =
        sys.ems().ownership().pagesOf(enclave.id());
    for (Addr ppn : frames) {
        sys.csMem().writeBytes(ppn << pageShift,
                               bytesFromString("TOP-SECRET"));
    }

    ASSERT_TRUE(enclave.exit());
    ASSERT_TRUE(enclave.destroy());

    // Every frame the enclave ever owned is zero afterwards.
    for (Addr ppn : frames) {
        Bytes data = sys.csMem().readBytes(ppn << pageShift, pageSize);
        for (std::uint8_t b : data)
            ASSERT_EQ(b, 0) << "residue in frame " << ppn;
    }
}

TEST_F(IntegrationTest, ShmVisibleToPeersInvisibleToHost)
{
    EnclaveHandle a = measured(0, 0x11);
    EnclaveHandle b = measured(1, 0x22);
    ASSERT_TRUE(a.enter());
    ShmId shm = a.shmCreate(2, PteRead | PteWrite);
    ASSERT_TRUE(a.shmShare(shm, b.id(), PteRead));
    Addr a_va = a.shmAttach(shm, PteRead | PteWrite);
    a.exit();
    ASSERT_TRUE(b.enter());
    Addr b_va = b.shmAttach(shm, PteRead);
    ASSERT_NE(b_va, 0u);

    // Peers resolve to the same frame in the same key domain...
    WalkResult wa = sys.ems().enclavePageTable(a.id())->walk(a_va);
    WalkResult wb = sys.ems().enclavePageTable(b.id())->walk(b_va);
    EXPECT_EQ(pageAlign(wa.pa), pageAlign(wb.pa));
    EXPECT_EQ(wa.keyId, wb.keyId);
    EXPECT_NE(wa.keyId, 0);

    // ...while a host mapping of the same frame faults.
    sys.hostPageTable().map(0x7100'0000, pageAlign(wa.pa),
                            PteRead | PteUser);
    EXPECT_EQ(sys.core(0).mmu().translate(0x7100'0000, false, false)
                  .fault,
              MemFault::BitmapViolation);
}

TEST_F(IntegrationTest, IntegrityEngineCatchesPhysicalTamper)
{
    // A cold-boot style attacker modifies DRAM contents behind the
    // MAC: the next protected fetch must flag a violation.
    Addr line = 0x8800'0000;
    std::uint8_t data[lineSize] = {1, 2, 3};
    sys.integrityEngine().updateLine(line, data, lineSize);
    data[7] ^= 0xff;
    EXPECT_EQ(sys.integrityEngine().verifyLine(line, data, lineSize),
              IntegrityStatus::Violation);
    EXPECT_EQ(sys.integrityEngine().violations(), 1u);
}

TEST_F(IntegrationTest, ResponseBindingAcrossCores)
{
    // Two cores issue primitives concurrently; each gate only ever
    // sees its own responses (disjoint reqId namespaces on the
    // shared mailbox).
    InvokeResult r0 = sys.emCall(0).invoke(
        PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 64});
    InvokeResult r1 = sys.emCall(1).invoke(
        PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 64});
    ASSERT_TRUE(r0.accepted);
    ASSERT_TRUE(r1.accepted);
    EXPECT_NE(r0.response.results.at(0), r1.response.results.at(0));
    EXPECT_EQ(sys.ihub().mailbox().responseDepth(), 0u)
        << "no orphaned responses";
}

TEST_F(IntegrationTest, EwbFramesCarryOnlyCiphertext)
{
    measured(0, 0x42);
    // Plant a known pattern in a pool frame by allocating and
    // freeing it (free scrubs, so use the EWB path directly on the
    // zeroed pool pages: ciphertext of zeros is still ciphertext).
    InvokeResult r = sys.emCall(0).invoke(PrimitiveOp::EWb,
                                          PrivMode::Supervisor, {2});
    ASSERT_TRUE(r.accepted);
    ASSERT_EQ(r.response.status, PrimStatus::Ok);
    std::uint64_t count = r.response.results.at(0);
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr pa = r.response.results.at(1 + i);
        Bytes content = sys.csMem().readBytes(pa, 64);
        EXPECT_NE(content, Bytes(64, 0))
            << "swapped-out frame must not expose plaintext zeros";
    }
}

TEST_F(IntegrationTest, FaultHandlerPathGrowsEnclaveHeapOnDemand)
{
    // The paper's page-fault flow: EMCall routes the fault to the
    // EMS, which EALLOCs the missing page, and the access retries.
    EnclaveHandle enclave = measured(0, 0x42);
    ASSERT_TRUE(enclave.enter());

    Core &core = sys.core(0);
    EmCall &gate = sys.emCall(0);
    core.setFaultHandler([&](Addr va, MemFault fault, bool) {
        if (fault != MemFault::PageFault)
            return FaultOutcome{false, 0};
        EXPECT_EQ(EmCall::route(ExcCause::PageFault), ExcRoute::ToEms);
        InvokeResult r =
            gate.invoke(PrimitiveOp::EAlloc, PrivMode::User,
                        {1, pageAlign(va)});
        bool ok = r.accepted && r.response.status == PrimStatus::Ok;
        return FaultOutcome{ok, r.latency};
    });

    // Touch far beyond the statically allocated heap.
    struct OneLoad : InstStream
    {
        Addr addr;
        bool done = false;
        explicit OneLoad(Addr a) : addr(a) {}
        bool
        next(MicroOp &op) override
        {
            if (done)
                return false;
            done = true;
            op = {OpType::Load, 0x1000, addr, false};
            return true;
        }
    };
    OneLoad load(EnclaveLayout::heapBase + (64 << 20));
    RunStats stats = core.run(load);
    EXPECT_EQ(stats.faults, 1u);
    EXPECT_EQ(stats.loads, 1u);
    // The page is now mapped in the enclave's table.
    EXPECT_TRUE(sys.ems()
                    .enclavePageTable(enclave.id())
                    ->walk(EnclaveLayout::heapBase + (64 << 20))
                    .valid);
}

} // namespace
} // namespace hypertee
