/** @file EMS runtime tests: all sixteen primitives + security rules. */

#include <gtest/gtest.h>

#include <numeric>

#include "ems/runtime.hh"

namespace hypertee
{
namespace
{

constexpr Addr kCsBase = 0x8000'0000;
constexpr Addr kCsSize = 256 * 1024 * 1024;
constexpr Addr kEmsBase = 0x10'0000'0000ULL;
constexpr Addr kEmsSize = 16 * 1024 * 1024;

struct RuntimeFixture : ::testing::Test
{
    PhysicalMemory csMem{kCsBase, kCsSize};
    PhysicalMemory emsMem{kEmsBase, kEmsSize};
    EnclaveBitmap bitmap{&csMem, kCsBase};
    MemoryEncryptionEngine enc{64};
    IHub hub{&csMem, &emsMem, &bitmap, &enc};
    EmsPort &port = hub.emsPort();
    OsFrames os{pageNumber(kCsBase + 0x100000), pageNumber(kCsBase + kCsSize)};
    std::unique_ptr<EmsRuntime> rt;

    void
    SetUp() override
    {
        EFuse fuse;
        fuse.endorsementSeed = Bytes(32, 1);
        fuse.sealedKey = Bytes(32, 2);
        KeyManager km(fuse);

        EmsRuntimeParams params;
        params.pool.initialPages = 2048;
        params.pool.refillBatch = 512;
        rt = std::make_unique<EmsRuntime>(&port, &csMem, km, params, os);
        Bytes image = bytesFromString("runtime");
        Bytes fw = bytesFromString("firmware");
        ASSERT_TRUE(rt->secureBoot(image, Sha256::digest(image), fw,
                                   Sha256::digest(fw)));
    }

    PrimitiveResponse
    invoke(PrimitiveOp op, PrivMode mode,
           std::vector<std::uint64_t> args, EnclaveId caller = 0,
           Bytes payload = {})
    {
        PrimitiveRequest req;
        req.reqId = ++reqId;
        req.op = op;
        req.mode = mode;
        req.args = WordList(args);
        req.caller = caller;
        req.payload = std::move(payload);
        return rt->handle(req);
    }

    /** Full ECREATE + one EADD + EMEAS; returns the enclave id. */
    EnclaveId
    makeMeasuredEnclave()
    {
        PrimitiveResponse r =
            invoke(PrimitiveOp::ECreate, PrivMode::Supervisor,
                   {4, 8, 64});
        EXPECT_EQ(r.status, PrimStatus::Ok);
        EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
        Bytes code(pageSize, 0x90);
        r = invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
                   {id, EnclaveLayout::codeBase, PteRead | PteExec}, 0,
                   code);
        EXPECT_EQ(r.status, PrimStatus::Ok);
        r = invoke(PrimitiveOp::EMeas, PrivMode::Supervisor, {id});
        EXPECT_EQ(r.status, PrimStatus::Ok);
        return id;
    }

    std::uint64_t reqId = 0;
};

TEST_F(RuntimeFixture, CreateBuildsEnclaveWithStaticAllocation)
{
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    const EnclaveControl *enc_ctl = rt->enclave(id);
    ASSERT_NE(enc_ctl, nullptr);
    EXPECT_EQ(enc_ctl->state, EnclaveState::Created);
    // Static allocation: 4 stack + 8 heap pages already mapped.
    EXPECT_EQ(rt->ownership().privatePages(id), 12u);
    EXPECT_NE(enc_ctl->keyId, 0);
    EXPECT_TRUE(enc.hasKey(enc_ctl->keyId));
    // Completion time is nonzero and models EMS work.
    EXPECT_GT(r.completedAt, 0u);
    EXPECT_TRUE(r.flags & kFlagFlushTlb);
}

TEST_F(RuntimeFixture, CreateRejectsBadConfig)
{
    EXPECT_EQ(invoke(PrimitiveOp::ECreate, PrivMode::Supervisor,
                     {0, 8, 64})
                  .status,
              PrimStatus::InvalidArgument);
    EXPECT_EQ(invoke(PrimitiveOp::ECreate, PrivMode::Supervisor, {4})
                  .status,
              PrimStatus::InvalidArgument);
}

TEST_F(RuntimeFixture, ForgedCrossPrivilegePacketRejected)
{
    PrimitiveResponse r =
        invoke(PrimitiveOp::ECreate, PrivMode::User, {4, 8, 64});
    EXPECT_EQ(r.status, PrimStatus::PermissionDenied);
    EXPECT_GT(rt->sanityRejections(), 0u);
}

TEST_F(RuntimeFixture, RejectsEverythingBeforeSecureBoot)
{
    // A fresh runtime that has NOT booted.
    EFuse fuse;
    fuse.endorsementSeed = Bytes(32, 1);
    fuse.sealedKey = Bytes(32, 2);
    PhysicalMemory ems2(kEmsBase, kEmsSize);
    PhysicalMemory cs2(kCsBase, kCsSize);
    EnclaveBitmap bm2(&cs2, kCsBase);
    MemoryEncryptionEngine enc2(8);
    IHub hub2(&cs2, &ems2, &bm2, &enc2);
    EmsPort &port2 = hub2.emsPort();
    OsFrames os2{pageNumber(kCsBase + 0x100000)};
    EmsRuntime rt2(&port2, &cs2, KeyManager(fuse), {}, os2);
    PrimitiveRequest req;
    req.op = PrimitiveOp::ECreate;
    req.mode = PrivMode::Supervisor;
    req.args = {4, 8, 64};
    EXPECT_EQ(rt2.handle(req).status, PrimStatus::PermissionDenied);
}

TEST_F(RuntimeFixture, SecureBootRejectsTamperedImages)
{
    EFuse fuse;
    fuse.endorsementSeed = Bytes(32, 1);
    fuse.sealedKey = Bytes(32, 2);
    PhysicalMemory cs2(kCsBase, kCsSize);
    PhysicalMemory ems2(kEmsBase, kEmsSize);
    EnclaveBitmap bm2(&cs2, kCsBase);
    MemoryEncryptionEngine enc2(8);
    IHub hub2(&cs2, &ems2, &bm2, &enc2);
    EmsPort &port2 = hub2.emsPort();
    OsFrames os2{pageNumber(kCsBase + 0x100000)};
    EmsRuntime rt2(&port2, &cs2, KeyManager(fuse), {}, os2);
    Bytes image = bytesFromString("runtime");
    Bytes fw = bytesFromString("firmware");
    Bytes tampered = bytesFromString("runtimeX");
    EXPECT_FALSE(rt2.secureBoot(tampered, Sha256::digest(image), fw,
                                Sha256::digest(fw)));
    EXPECT_FALSE(rt2.booted());
}

TEST_F(RuntimeFixture, AddMapsAndCopiesPageContent)
{
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    Bytes code(pageSize, 0xab);
    r = invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
               {id, EnclaveLayout::codeBase, PteRead | PteExec}, 0,
               code);
    ASSERT_EQ(r.status, PrimStatus::Ok);

    const PageTable *pt = rt->enclavePageTable(id);
    WalkResult walk = pt->walk(EnclaveLayout::codeBase);
    ASSERT_TRUE(walk.valid);
    EXPECT_EQ(csMem.readBytes(walk.pa, 4), Bytes(4, 0xab));
    EXPECT_EQ(walk.keyId, rt->enclave(id)->keyId);
    EXPECT_TRUE(bitmap.isEnclavePage(pageNumber(walk.pa)));
}

TEST_F(RuntimeFixture, PageTableFramesAreEnclaveMemory)
{
    // Section IV-A: the dedicated page table is itself protected.
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    const PageTable *pt = rt->enclavePageTable(id);
    for (Addr frame : pt->tableFrames()) {
        EXPECT_TRUE(bitmap.isEnclavePage(pageNumber(frame)));
        const PageOwner *owner = rt->ownership().lookup(
            pageNumber(frame));
        ASSERT_NE(owner, nullptr);
        EXPECT_EQ(owner->kind, PageKind::PageTable);
        EXPECT_EQ(owner->owner, id);
    }
}

TEST_F(RuntimeFixture, MeasurementIsDeterministicAndContentBound)
{
    EnclaveId a = makeMeasuredEnclave();
    EnclaveId b = makeMeasuredEnclave();
    // Identical images: identical measurements.
    EXPECT_EQ(rt->enclave(a)->measurement, rt->enclave(b)->measurement);

    // A third enclave with different content measures differently.
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    EnclaveId c = static_cast<EnclaveId>(r.results.at(0));
    Bytes code(pageSize, 0x91);
    invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
           {c, EnclaveLayout::codeBase, PteRead | PteExec}, 0, code);
    invoke(PrimitiveOp::EMeas, PrivMode::Supervisor, {c});
    EXPECT_NE(rt->enclave(c)->measurement, rt->enclave(a)->measurement);
}

TEST_F(RuntimeFixture, UnmeasuredEnclaveCannotEnter)
{
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    EXPECT_EQ(invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {id})
                  .status,
              PrimStatus::PermissionDenied);
}

TEST_F(RuntimeFixture, EnterExitLifecycle)
{
    EnclaveId id = makeMeasuredEnclave();
    PrimitiveResponse r =
        invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {id});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_TRUE(r.flags & kFlagEnterEnclave);
    EXPECT_EQ(rt->enclave(id)->state, EnclaveState::Running);

    r = invoke(PrimitiveOp::EExit, PrivMode::User, {}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_TRUE(r.flags & kFlagExitEnclave);
    EXPECT_EQ(rt->enclave(id)->state, EnclaveState::Measured);
}

TEST_F(RuntimeFixture, AllocExtendsHeapWithZeroedOwnedPages)
{
    EnclaveId id = makeMeasuredEnclave();
    std::size_t pages_before = rt->ownership().privatePages(id);

    PrimitiveResponse r =
        invoke(PrimitiveOp::EAlloc, PrivMode::User, {3}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    Addr va = r.results.at(0);
    EXPECT_EQ(rt->ownership().privatePages(id), pages_before + 3);

    const PageTable *pt = rt->enclavePageTable(id);
    for (int i = 0; i < 3; ++i) {
        WalkResult walk = pt->walk(va + Addr(i) * pageSize);
        ASSERT_TRUE(walk.valid);
        EXPECT_TRUE(bitmap.isEnclavePage(pageNumber(walk.pa)));
        EXPECT_TRUE(rt->ownership().ownedBy(pageNumber(walk.pa), id));
        EXPECT_EQ(csMem.readBytes(walk.pa, 8), Bytes(8, 0));
    }
}

TEST_F(RuntimeFixture, AllocFromHostContextRejected)
{
    makeMeasuredEnclave();
    EXPECT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User, {3},
                     invalidEnclaveId)
                  .status,
              PrimStatus::PermissionDenied);
}

TEST_F(RuntimeFixture, FreeReturnsScrubbedPages)
{
    EnclaveId id = makeMeasuredEnclave();
    PrimitiveResponse r =
        invoke(PrimitiveOp::EAlloc, PrivMode::User, {2}, id);
    Addr va = r.results.at(0);
    const PageTable *pt = rt->enclavePageTable(id);
    Addr pa = pt->walk(va).pa;
    csMem.writeBytes(pa, Bytes(16, 0x5e)); // enclave wrote secrets

    r = invoke(PrimitiveOp::EFree, PrivMode::User, {va, 2}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_FALSE(pt->walk(va).valid);
    EXPECT_FALSE(bitmap.isEnclavePage(pageNumber(pa)));
    // Scrubbed before returning to the pool: no secret residue.
    EXPECT_EQ(csMem.readBytes(pa, 16), Bytes(16, 0));
}

TEST_F(RuntimeFixture, FreeOfForeignPagesRejected)
{
    EnclaveId a = makeMeasuredEnclave();
    EnclaveId b = makeMeasuredEnclave();
    PrimitiveResponse r =
        invoke(PrimitiveOp::EAlloc, PrivMode::User, {1}, a);
    Addr va = r.results.at(0);
    // Enclave b tries to free a's allocation at the same VA: its own
    // page table has no such mapping.
    EXPECT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User, {va, 1}, b)
                  .status,
              PrimStatus::NotFound);
}

TEST_F(RuntimeFixture, RejectedFreeLeavesTheRangeMappedAndFreeable)
{
    // Regression: EFREE unmapped and forgot each page before checking
    // the next, so a request that failed part-way lost the pages it
    // had already passed. The retry could not find them, EDESTROY did
    // not scrub them, and they stayed owned by the dead enclave.
    const std::size_t owned_before = rt->ownership().size();
    EnclaveId id = makeMeasuredEnclave();
    ASSERT_EQ(invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {id})
                  .status,
              PrimStatus::Ok);
    const Addr v = 0x5000'0000;
    PrimitiveResponse r =
        invoke(PrimitiveOp::EAlloc, PrivMode::User, {1, v}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    ASSERT_EQ(r.results.at(0), v);
    const PageTable *pt = rt->enclavePageTable(id);
    const Addr ppn = pageNumber(pt->walk(v).pa);

    // v is mapped, v + 4 KiB is not: the whole request is refused.
    EXPECT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User, {v, 2}, id)
                  .status,
              PrimStatus::NotFound);
    EXPECT_TRUE(pt->walk(v).valid) << "rejected EFREE unmapped v";
    EXPECT_TRUE(rt->ownership().ownedBy(ppn, id));
    EXPECT_TRUE(bitmap.isEnclavePage(ppn));

    EXPECT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User, {v, 1}, id)
                  .status,
              PrimStatus::Ok);
    EXPECT_FALSE(pt->walk(v).valid);
    EXPECT_FALSE(bitmap.isEnclavePage(ppn));

    // pagesOf lists private pages only: page-table frames are checked
    // one by one, and the table's size covers every kind.
    const std::vector<Addr> pt_frames = pt->tableFrames();
    ASSERT_EQ(invoke(PrimitiveOp::EExit, PrivMode::User, {}, id).status,
              PrimStatus::Ok);
    ASSERT_EQ(invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor, {id})
                  .status,
              PrimStatus::Ok);
    EXPECT_TRUE(rt->ownership().pagesOf(id).empty());
    EXPECT_EQ(rt->ownership().privatePages(id), 0u);
    EXPECT_EQ(rt->ownership().lookup(ppn), nullptr);
    for (Addr frame : pt_frames)
        EXPECT_EQ(rt->ownership().lookup(pageNumber(frame)), nullptr);
    EXPECT_EQ(rt->ownership().size(), owned_before);
}

TEST_F(RuntimeFixture, AllocOverAnExistingMappingIsRejected)
{
    // An EALLOC whose range overlaps a live mapping used to take and
    // claim pool frames, then panic the simulator on the double map.
    EnclaveId id = makeMeasuredEnclave();
    const Addr v = 0x5000'0000;
    ASSERT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User, {1, v}, id)
                  .status,
              PrimStatus::Ok);
    const PageTable *pt = rt->enclavePageTable(id);
    const Addr pa = pt->walk(v).pa;
    const EnclaveControl *ctl = rt->enclave(id);

    auto enclave_pages_in_cs = [&] {
        std::size_t set = 0;
        for (Addr ppn = pageNumber(kCsBase);
             ppn < pageNumber(kCsBase + kCsSize); ++ppn)
            set += bitmap.isEnclavePage(ppn) ? 1 : 0;
        return set;
    };
    const std::size_t pool_free = rt->pool().freePages();
    const std::size_t owned = rt->ownership().size();
    const std::size_t bitmap_set = enclave_pages_in_cs();
    const std::size_t pages = rt->ownership().privatePages(id);
    const Addr cursor = ctl->heapCursor;

    struct Overlap
    {
        Addr va;
        std::uint64_t pages;
    };
    for (Overlap o : {Overlap{v, 1}, Overlap{v - pageSize, 2},
                      Overlap{v - 3 * pageSize, 8},
                      Overlap{EnclaveLayout::codeBase, 1},
                      Overlap{cursor - pageSize, 1}}) {
        SCOPED_TRACE(testing::Message() << "va " << o.va);
        EXPECT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User,
                         {o.pages, o.va}, id)
                      .status,
                  PrimStatus::AlreadyExists);
    }
    // The heap cursor path checks the same way: map the page it would
    // hand out next, then ask for it implicitly.
    ASSERT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User, {1, cursor},
                     id)
                  .status,
              PrimStatus::Ok);
    const std::size_t pool_after_cursor_map = rt->pool().freePages();
    EXPECT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User, {2}, id)
                  .status,
              PrimStatus::AlreadyExists);
    EXPECT_EQ(ctl->heapCursor, cursor);

    EXPECT_EQ(rt->pool().freePages(), pool_after_cursor_map);
    EXPECT_EQ(pool_after_cursor_map + 1, pool_free);
    EXPECT_EQ(rt->ownership().size(), owned + 1);
    EXPECT_EQ(enclave_pages_in_cs(), bitmap_set + 1);
    EXPECT_EQ(rt->ownership().privatePages(id), pages + 1);
    EXPECT_EQ(pt->walk(v).pa, pa);
    EXPECT_FALSE(pt->walk(v - pageSize).valid);
}

TEST_F(RuntimeFixture, RejectedPrimitiveLeavesNoStateBehind)
{
    // Every rejection must leave the pool, the ownership table, the
    // bitmap, the KeyIDs and the control structures as they were.
    // ESHMGET and ECREATE used to keep what they had claimed before
    // running out of memory, and EADD / ESHMAT over a live mapping
    // panicked the simulator on the double map.
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 8192});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    const EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    const Addr v = 0x5000'0000;
    ASSERT_EQ(invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
                     {id, EnclaveLayout::codeBase, PteRead | PteExec}, 0,
                     Bytes(pageSize, 0x90))
                  .status,
              PrimStatus::Ok);
    ASSERT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User, {1, v}, id)
                  .status,
              PrimStatus::Ok);
    // Occupy the VA the next ESHMAT would attach at.
    ASSERT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User,
                     {1, EnclaveLayout::shmBase}, id)
                  .status,
              PrimStatus::Ok);
    r = invoke(PrimitiveOp::EShmGet, PrivMode::User,
               {4, PteRead | PteWrite}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    const std::uint64_t shm_id = r.results.at(0);

    struct Snapshot
    {
        std::size_t owned;
        std::uint64_t bitmapPages;
        std::vector<KeyId> keys;
        std::vector<bool> enclaves;
        std::vector<bool> shms;
        std::size_t poolFree;
        std::size_t osGranted;
    };
    auto snapshot = [&] {
        const std::vector<std::size_t> &grants = rt->pool().osRequestSizes();
        Snapshot s{rt->ownership().size(), bitmap.enclavePageCount(), {},
                   {}, {}, rt->pool().freePages(),
                   std::accumulate(grants.begin(), grants.end(),
                                   std::size_t(0))};
        for (std::uint32_t k = 1; k <= 0xffff; ++k)
            if (port.keyConfigured(static_cast<KeyId>(k)))
                s.keys.push_back(static_cast<KeyId>(k));
        for (std::uint32_t i = 1; i <= 8; ++i) {
            s.enclaves.push_back(rt->enclave(i) != nullptr);
            s.shms.push_back(rt->shm(i) != nullptr);
        }
        return s;
    };

    struct Row
    {
        const char *name;
        PrimitiveOp op;
        PrivMode mode;
        std::vector<std::uint64_t> args;
        EnclaveId caller;
        Bytes payload;
        bool osDry;
        PrimStatus want;
    };
    const Row rows[] = {
        {"ECREATE out of memory", PrimitiveOp::ECreate,
         PrivMode::Supervisor, {4, 4096, 64}, 0, {}, true,
         PrimStatus::OutOfMemory},
        {"ESHMGET out of memory", PrimitiveOp::EShmGet, PrivMode::User,
         {4096, PteRead | PteWrite}, id, {}, true,
         PrimStatus::OutOfMemory},
        {"EADD over an added page", PrimitiveOp::EAdd,
         PrivMode::Supervisor,
         {id, EnclaveLayout::codeBase, PteRead | PteExec}, 0,
         Bytes(pageSize, 0x91), false, PrimStatus::AlreadyExists},
        {"ESHMAT over an EALLOC mapping", PrimitiveOp::EShmAt,
         PrivMode::User, {shm_id, PteRead | PteWrite}, id, {}, false,
         PrimStatus::AlreadyExists},
        {"EALLOC over a mapping", PrimitiveOp::EAlloc, PrivMode::User,
         {2, v - pageSize}, id, {}, false, PrimStatus::AlreadyExists},
        {"EFREE of a partly valid range", PrimitiveOp::EFree,
         PrivMode::User, {v, 2}, id, {}, false, PrimStatus::NotFound},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        const Snapshot before = snapshot();
        // A dry OS: every frame it has is held here for the call.
        std::vector<Addr> hoard;
        if (row.osDry)
            hoard = os.grant(~std::size_t(0));
        EXPECT_EQ(invoke(row.op, row.mode, row.args, row.caller,
                         row.payload)
                      .status,
                  row.want);
        os.take(hoard);
        const Snapshot after = snapshot();
        EXPECT_EQ(after.owned, before.owned);
        EXPECT_EQ(after.bitmapPages, before.bitmapPages);
        EXPECT_EQ(after.keys, before.keys);
        EXPECT_EQ(after.enclaves, before.enclaves);
        EXPECT_EQ(after.shms, before.shms);
        // Free pages grow only by what the OS refilled.
        EXPECT_EQ(after.poolFree,
                  before.poolFree + (after.osGranted - before.osGranted));
    }
}

TEST_F(RuntimeFixture, ShmAtRejectsWhenItsWindowRunsOut)
{
    // ESHMAT never reuses a detached window: the shm cursor only
    // grows, from shmBase up to the stack, whose 16 pages end at
    // stackTop. Attaching over the stack used to panic the simulator
    // on the double map.
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {16, 8, 64});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    const EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    r = invoke(PrimitiveOp::EShmGet, PrivMode::User,
               {4, PteRead | PteWrite}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    const std::uint64_t shm_id = r.results.at(0);

    const Addr stack_base = EnclaveLayout::stackTop - 16 * pageSize;
    ASSERT_EQ(stack_base, 0x6FFF'0000u);
    const std::size_t window_cycles =
        (stack_base - EnclaveLayout::shmBase) / (4 * pageSize);
    ASSERT_EQ(window_cycles, 16'380u);

    std::size_t cycles = 0;
    for (;;) {
        r = invoke(PrimitiveOp::EShmAt, PrivMode::User,
                   {shm_id, PteRead | PteWrite}, id);
        if (r.status != PrimStatus::Ok)
            break;
        ASSERT_EQ(invoke(PrimitiveOp::EShmDt, PrivMode::User, {shm_id},
                         id)
                      .status,
                  PrimStatus::Ok);
        ASSERT_LE(++cycles, window_cycles);
    }
    EXPECT_EQ(r.status, PrimStatus::AlreadyExists);
    EXPECT_EQ(cycles, window_cycles);

    // The stack is untouched and the region stays detached.
    const EnclaveControl *ctl = rt->enclave(id);
    EXPECT_EQ(ctl->shmCursor, stack_base);
    EXPECT_TRUE(ctl->attachedShm.empty());
    const WalkResult walk = rt->enclavePageTable(id)->walk(stack_base);
    ASSERT_TRUE(walk.valid);
    const PageOwner *owner = rt->ownership().lookup(pageNumber(walk.pa));
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->kind, PageKind::Private);
    EXPECT_TRUE(rt->shm(static_cast<ShmId>(shm_id))->attached.empty());
}

TEST_F(RuntimeFixture, DestroyScrubsEverything)
{
    const std::size_t owned_before = rt->ownership().size();
    EnclaveId id = makeMeasuredEnclave();
    const EnclaveControl *ctl = rt->enclave(id);
    KeyId key = ctl->keyId;
    std::vector<Addr> pages = rt->ownership().pagesOf(id);
    for (Addr frame : rt->enclavePageTable(id)->tableFrames())
        pages.push_back(pageNumber(frame));

    PrimitiveResponse r =
        invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor, {id});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_EQ(rt->enclave(id), nullptr);
    EXPECT_FALSE(enc.hasKey(key));
    for (Addr ppn : pages) {
        EXPECT_FALSE(bitmap.isEnclavePage(ppn));
        EXPECT_EQ(rt->ownership().lookup(ppn), nullptr);
    }
    EXPECT_EQ(rt->ownership().size(), owned_before);
    // Destroyed enclaves reject further primitives.
    EXPECT_EQ(invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {id})
                  .status,
              PrimStatus::NotFound);
}

TEST_F(RuntimeFixture, DestroyedEnclavesAreForgotten)
{
    // EDESTROY erases the control structure: nothing about a dead
    // enclave stays behind for later KeyID assignments to walk.
    std::vector<EnclaveId> destroyed;
    for (int i = 0; i < 200; ++i) {
        EnclaveId id = makeMeasuredEnclave();
        ASSERT_EQ(invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor,
                         {id})
                      .status,
                  PrimStatus::Ok);
        destroyed.push_back(id);
    }
    for (EnclaveId id : destroyed)
        EXPECT_EQ(rt->enclave(id), nullptr) << "enclave " << id;

    PrimitiveResponse r =
        invoke(PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 64});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_NE(rt->enclave(static_cast<EnclaveId>(r.results.at(0))),
              nullptr);
}

TEST_F(RuntimeFixture, WbReturnsRandomizedEncryptedPoolPages)
{
    makeMeasuredEnclave();
    std::size_t free_before = rt->pool().freePages();
    PrimitiveResponse r =
        invoke(PrimitiveOp::EWb, PrivMode::Supervisor, {8});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    std::size_t count = r.results.at(0);
    EXPECT_GE(count, 8u);
    EXPECT_EQ(r.results.size(), 1 + count);
    EXPECT_EQ(rt->pool().freePages(), free_before - count);
    // Returned frames are no longer enclave memory.
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_FALSE(bitmap.isEnclaveAddr(r.results[1 + i]));
    EXPECT_TRUE(r.flags & kFlagFlushTlb);
}

TEST_F(RuntimeFixture, WbNeverReturnsActiveEnclavePages)
{
    // Defense 2 of the swapping countermeasure (Section IV-A).
    EnclaveId id = makeMeasuredEnclave();
    const std::vector<Addr> pages = rt->ownership().pagesOf(id);
    std::set<Addr> active(pages.begin(), pages.end());
    for (int round = 0; round < 10; ++round) {
        PrimitiveResponse r =
            invoke(PrimitiveOp::EWb, PrivMode::Supervisor, {4});
        ASSERT_EQ(r.status, PrimStatus::Ok);
        for (std::size_t i = 1; i < r.results.size(); ++i)
            EXPECT_EQ(active.count(pageNumber(r.results[i])), 0u);
    }
}

TEST_F(RuntimeFixture, WbCountVariesAcrossCalls)
{
    makeMeasuredEnclave();
    std::set<std::uint64_t> counts;
    for (int i = 0; i < 12; ++i) {
        PrimitiveResponse r =
            invoke(PrimitiveOp::EWb, PrivMode::Supervisor, {4});
        counts.insert(r.results.at(0));
    }
    EXPECT_GT(counts.size(), 1u) << "swap size is randomized";
}

TEST_F(RuntimeFixture, AttestProducesVerifiableQuote)
{
    EnclaveId id = makeMeasuredEnclave();
    Bytes nonce(16, 0x42);
    Bytes dh_pub(32, 0x24);
    Bytes payload = nonce;
    payload.insert(payload.end(), dh_pub.begin(), dh_pub.end());
    PrimitiveResponse r =
        invoke(PrimitiveOp::EAttest, PrivMode::User, {}, id, payload);
    ASSERT_EQ(r.status, PrimStatus::Ok);

    AttestationQuote quote;
    ASSERT_TRUE(AttestationQuote::deserialize(r.payload, quote));
    EXPECT_TRUE(verifyQuote(quote,
                            rt->keyManager().endorsementPublicKey(),
                            rt->enclave(id)->measurement, nonce));
}

TEST_F(RuntimeFixture, ServiceTimesScaleWithWork)
{
    PrimitiveResponse small = invoke(PrimitiveOp::ECreate,
                                     PrivMode::Supervisor, {4, 8, 64});
    PrimitiveResponse large = invoke(PrimitiveOp::ECreate,
                                     PrivMode::Supervisor,
                                     {4, 512, 64});
    EXPECT_GT(large.completedAt, small.completedAt)
        << "larger static allocation costs more EMS time";
}

TEST_F(RuntimeFixture, SuspendReleasesKeySlot)
{
    EnclaveId id = makeMeasuredEnclave();
    KeyId key = rt->enclave(id)->keyId;
    ASSERT_TRUE(rt->suspendEnclave(id));
    EXPECT_FALSE(enc.hasKey(key));
    EXPECT_EQ(rt->enclave(id)->state, EnclaveState::Suspended);
    // Running enclaves cannot be suspended.
    EnclaveId other = makeMeasuredEnclave();
    invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {other});
    EXPECT_FALSE(rt->suspendEnclave(other));
}

/**
 * Sv39 regressions: bits at and above 39 of a virtual address used to
 * be dropped by the page-table index, so an out-of-space EALLOC,
 * EFREE or EADD silently worked on the low alias of its address.
 * Each must now be refused with InvalidArgument and change nothing.
 */
struct Sv39Fixture : RuntimeFixture
{
    static constexpr Addr beyond = PageTable::vaLimit;

    EnclaveId
    runningEnclave()
    {
        EnclaveId id = makeMeasuredEnclave();
        EXPECT_EQ(invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {id})
                      .status,
                  PrimStatus::Ok);
        return id;
    }

    /** Pool, ownership, bitmap and page-list sizes of @p id. */
    std::vector<std::size_t>
    footprint(EnclaveId id)
    {
        return {rt->pool().freePages(), rt->ownership().size(),
                std::size_t(bitmap.enclavePageCount()),
                rt->ownership().privatePages(id),
                rt->enclavePageTable(id)->tableFrames().size()};
    }
};

TEST_F(Sv39Fixture, AllocBeyondTheVaSpaceDoesNotAliasLowMemory)
{
    const EnclaveId id = runningEnclave();
    const Addr alias = EnclaveLayout::heapBase + (Addr(64) << 20);
    const auto before = footprint(id);
    EXPECT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User,
                     {1, beyond + alias}, id)
                  .status,
              PrimStatus::InvalidArgument);
    EXPECT_FALSE(rt->enclavePageTable(id)->walk(alias).valid);
    EXPECT_EQ(footprint(id), before);
}

TEST_F(Sv39Fixture, FreeBeyondTheVaSpaceKeepsTheLowHeapPage)
{
    const EnclaveId id = runningEnclave();
    const PageTable *pt = rt->enclavePageTable(id);
    const WalkResult heap = pt->walk(EnclaveLayout::heapBase);
    ASSERT_TRUE(heap.valid);
    const auto before = footprint(id);
    EXPECT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User,
                     {beyond + EnclaveLayout::heapBase, 1}, id)
                  .status,
              PrimStatus::InvalidArgument);
    EXPECT_EQ(pt->walk(EnclaveLayout::heapBase).pa, heap.pa);
    EXPECT_TRUE(rt->ownership().ownedBy(pageNumber(heap.pa), id));
    EXPECT_EQ(footprint(id), before);
}

TEST_F(Sv39Fixture, AllocRangesThatWrapOrCrossTheTopAreRefused)
{
    const EnclaveId id = runningEnclave();
    const PageTable *pt = rt->enclavePageTable(id);
    const auto before = footprint(id);
    // The top page of the 64-bit space: its second page wrapped to 0.
    EXPECT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User,
                     {2, 0xffff'ffff'ffff'f000ULL}, id)
                  .status,
              PrimStatus::InvalidArgument);
    // Starts inside Sv39, ends past it.
    EXPECT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User,
                     {2, beyond - pageSize}, id)
                  .status,
              PrimStatus::InvalidArgument);
    EXPECT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User,
                     {beyond - pageSize, std::uint64_t(1) << 62}, id)
                  .status,
              PrimStatus::InvalidArgument);
    EXPECT_FALSE(pt->walk(0).valid);
    EXPECT_FALSE(pt->walk(beyond - pageSize).valid);
    EXPECT_EQ(footprint(id), before);

    // The last page of the space itself is fine.
    EXPECT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User,
                     {1, beyond - pageSize}, id)
                  .status,
              PrimStatus::Ok);
    EXPECT_TRUE(pt->walk(beyond - pageSize).valid);
}

TEST_F(Sv39Fixture, AddBeyondTheVaSpaceDoesNotAliasTheImage)
{
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    const EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    const Addr alias = EnclaveLayout::codeBase + pageSize;
    const auto before = footprint(id);
    EXPECT_EQ(invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
                     {id, beyond + alias, PteRead | PteExec}, 0,
                     Bytes(pageSize, 0x90))
                  .status,
              PrimStatus::InvalidArgument);
    EXPECT_FALSE(rt->enclavePageTable(id)->walk(alias).valid);
    EXPECT_EQ(footprint(id), before);
}

/**
 * EFREE unlinks pages from the ownership table's per-enclave list;
 * EDESTROY then hands pagesOf() back to the pool in that order
 * (claim order, less the freed pages), and the pool's FIFO
 * order decides which PPNs later grants receive. Check the list after
 * each EFREE shape against a naive per-page std::erase model, then
 * check that a re-created enclave receives the PPNs the model
 * predicts.
 */
TEST_F(RuntimeFixture, FreedPagesLeaveThePageListInTeardownOrder)
{
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    const EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    for (Addr i = 0; i < 3; ++i) {
        ASSERT_EQ(invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
                         {id, EnclaveLayout::codeBase + i * pageSize,
                          PteRead | PteExec},
                         0, Bytes(pageSize, std::uint8_t(i)))
                      .status,
                  PrimStatus::Ok);
    }
    ASSERT_EQ(invoke(PrimitiveOp::EMeas, PrivMode::Supervisor, {id})
                  .status,
              PrimStatus::Ok);
    const Addr a = 0x5000'0000;
    const Addr b = a + 6 * pageSize;
    ASSERT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User, {6, a}, id)
                  .status,
              PrimStatus::Ok);
    ASSERT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User, {5, b}, id)
                  .status,
              PrimStatus::Ok);

    const PageTable *pt = rt->enclavePageTable(id);
    std::vector<Addr> model = rt->ownership().pagesOf(id);
    ASSERT_EQ(model.size(), 4u + 8u + 3u + 6u + 5u);

    struct Free
    {
        const char *what;
        Addr va;
        std::uint64_t pages;
    };
    for (Free f : {Free{"middle of one EALLOC", a + 2 * pageSize, 2},
                   Free{"across two EALLOCs", a + 4 * pageSize, 4},
                   Free{"an EADD'd page", EnclaveLayout::codeBase +
                                              pageSize, 1},
                   Free{"the tail", b + 2 * pageSize, 3}}) {
        SCOPED_TRACE(f.what);
        for (Addr i = 0; i < f.pages; ++i) {
            const WalkResult w = pt->walk(f.va + i * pageSize);
            ASSERT_TRUE(w.valid);
            std::erase(model, pageNumber(w.pa));
        }
        ASSERT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User,
                         {f.va, f.pages}, id)
                      .status,
                  PrimStatus::Ok);
        EXPECT_EQ(rt->ownership().pagesOf(id), model);
    }

    // EDESTROY releases the data pages, then the table frames, to the
    // back of the pool. Take the pages ahead of them, and the next
    // enclave is built from exactly that sequence: its root frame
    // first, then its stack and heap.
    std::vector<Addr> released = model;
    for (Addr frame : pt->tableFrames())
        released.push_back(pageNumber(frame));
    const std::size_t ahead = rt->pool().freePages();
    ASSERT_EQ(invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor, {id})
                  .status,
              PrimStatus::Ok);
    ASSERT_EQ(rt->pool().allocate(ahead).size(), ahead);

    r = invoke(PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 64});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    const EnclaveId again = static_cast<EnclaveId>(r.results.at(0));
    EXPECT_EQ(rt->enclavePageTable(again)->tableFrames().front(),
              released[0] << pageShift);
    EXPECT_EQ(rt->ownership().pagesOf(again),
              std::vector<Addr>(released.begin() + 1,
                                released.begin() + 1 + 12));
}

} // namespace
} // namespace hypertee
