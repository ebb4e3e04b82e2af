/** @file Shared-memory management tests (Section V). */

#include <gtest/gtest.h>

#include <map>

#include "ems/runtime.hh"

namespace hypertee
{
namespace
{

constexpr Addr kCsBase = 0x8000'0000;
constexpr Addr kCsSize = 256 * 1024 * 1024;
constexpr Addr kEmsBase = 0x10'0000'0000ULL;
constexpr Addr kEmsSize = 16 * 1024 * 1024;

struct ShmFixture : ::testing::Test
{
    PhysicalMemory csMem{kCsBase, kCsSize};
    PhysicalMemory emsMem{kEmsBase, kEmsSize};
    EnclaveBitmap bitmap{&csMem, kCsBase};
    MemoryEncryptionEngine enc{64};
    IHub hub{&csMem, &emsMem, &bitmap, &enc};
    EmsPort &port = hub.emsPort();
    OsFrames os{pageNumber(kCsBase + 0x100000), pageNumber(kCsBase + kCsSize)};
    std::unique_ptr<EmsRuntime> rt;
    std::uint64_t reqId = 0;
    EnclaveId sender = 0, receiver = 0, attacker = 0;

    void
    SetUp() override
    {
        EFuse fuse;
        fuse.endorsementSeed = Bytes(32, 1);
        fuse.sealedKey = Bytes(32, 2);
        rt = std::make_unique<EmsRuntime>(&port, &csMem, KeyManager(fuse),
                                          EmsRuntimeParams{}, os);
        Bytes image = bytesFromString("rt"), fw = bytesFromString("fw");
        ASSERT_TRUE(rt->secureBoot(image, Sha256::digest(image), fw,
                                   Sha256::digest(fw)));
        sender = makeEnclave(0x90);
        receiver = makeEnclave(0x91);
        attacker = makeEnclave(0x92);
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

    EnclaveId
    makeEnclave(std::uint8_t fill, std::uint64_t max_shm_pages = 64)
    {
        PrimitiveResponse r =
            invoke(PrimitiveOp::ECreate, PrivMode::Supervisor,
                   {4, 8, max_shm_pages});
        EXPECT_EQ(r.status, PrimStatus::Ok);
        EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
        invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
               {id, EnclaveLayout::codeBase, PteRead | PteExec}, 0,
               Bytes(pageSize, fill));
        invoke(PrimitiveOp::EMeas, PrivMode::Supervisor, {id});
        return id;
    }

    ShmId
    createShm(std::size_t pages = 4,
              std::uint64_t perms = PteRead | PteWrite,
              EnclaveId creator = 0)
    {
        PrimitiveResponse r = invoke(PrimitiveOp::EShmGet,
                                     PrivMode::User, {pages, perms},
                                     creator ? creator : sender);
        EXPECT_EQ(r.status, PrimStatus::Ok);
        return static_cast<ShmId>(r.results.at(0));
    }
};

TEST_F(ShmFixture, CreateMarksPagesSharedAndProtected)
{
    ShmId id = createShm();
    const ShmControl *shm = rt->shm(id);
    ASSERT_NE(shm, nullptr);
    EXPECT_EQ(shm->creator, sender);
    EXPECT_EQ(shm->pages.size(), 4u);
    EXPECT_NE(shm->keyId, 0);
    EXPECT_TRUE(enc.hasKey(shm->keyId));
    for (Addr ppn : shm->pages) {
        EXPECT_TRUE(bitmap.isEnclavePage(ppn));
        const PageOwner *owner = rt->ownership().lookup(ppn);
        ASSERT_NE(owner, nullptr);
        EXPECT_EQ(owner->kind, PageKind::Shared);
        EXPECT_EQ(owner->shm, id);
    }
}

TEST_F(ShmFixture, ShmKeyDiffersFromPrivateKeys)
{
    ShmId id = createShm();
    EXPECT_NE(rt->shm(id)->keyId, rt->enclave(sender)->keyId);
}

TEST_F(ShmFixture, CreatorCanAttachImmediately)
{
    ShmId id = createShm();
    PrimitiveResponse r =
        invoke(PrimitiveOp::EShmAt, PrivMode::User,
               {id, PteRead | PteWrite}, sender);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    Addr va = r.results.at(0);
    WalkResult walk = rt->enclavePageTable(sender)->walk(va);
    ASSERT_TRUE(walk.valid);
    EXPECT_EQ(walk.keyId, rt->shm(id)->keyId)
        << "shared mapping uses the shm key domain";
}

TEST_F(ShmFixture, UnauthorizedAttachRejected)
{
    ShmId id = createShm();
    PrimitiveResponse r = invoke(PrimitiveOp::EShmAt, PrivMode::User,
                                 {id, PteRead}, receiver);
    EXPECT_EQ(r.status, PrimStatus::NotAuthorized);
    EXPECT_GT(rt->shmGuessRejections(), 0u);
}

TEST_F(ShmFixture, BruteForceShmIdGuessingFails)
{
    createShm();
    // Attacker probes a range of ShmIDs it was never granted.
    int granted = 0;
    for (ShmId guess = 100; guess < 150; ++guess) {
        PrimitiveResponse r = invoke(PrimitiveOp::EShmAt,
                                     PrivMode::User, {guess, PteRead},
                                     attacker);
        granted += (r.status == PrimStatus::Ok);
    }
    EXPECT_EQ(granted, 0);
    EXPECT_GE(rt->shmGuessRejections(), 50u);
}

TEST_F(ShmFixture, ShareThenAttachSucceeds)
{
    ShmId id = createShm();
    ASSERT_EQ(invoke(PrimitiveOp::EShmShr, PrivMode::User,
                     {id, receiver, PteRead | PteWrite}, sender)
                  .status,
              PrimStatus::Ok);
    PrimitiveResponse r =
        invoke(PrimitiveOp::EShmAt, PrivMode::User,
               {id, PteRead | PteWrite}, receiver);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_TRUE(rt->shm(id)->attached.count(receiver));
}

TEST_F(ShmFixture, OnlyCreatorMayShare)
{
    ShmId id = createShm();
    invoke(PrimitiveOp::EShmShr, PrivMode::User,
           {id, receiver, PteRead}, sender);
    // The receiver, though authorized to attach, may not grant the
    // attacker access.
    EXPECT_EQ(invoke(PrimitiveOp::EShmShr, PrivMode::User,
                     {id, attacker, PteRead}, receiver)
                  .status,
              PrimStatus::NotAuthorized);
}

TEST_F(ShmFixture, PermissionClampedToGrant)
{
    // Section V-C: read-only receivers cannot obtain write mappings.
    ShmId id = createShm(4, PteRead | PteWrite);
    invoke(PrimitiveOp::EShmShr, PrivMode::User, {id, receiver, PteRead},
           sender);
    PrimitiveResponse r =
        invoke(PrimitiveOp::EShmAt, PrivMode::User,
               {id, PteRead | PteWrite}, receiver);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    WalkResult walk =
        rt->enclavePageTable(receiver)->walk(r.results.at(0));
    ASSERT_TRUE(walk.valid);
    EXPECT_TRUE(walk.perms & PteRead);
    EXPECT_FALSE(walk.perms & PteWrite);
}

TEST_F(ShmFixture, GrantCannotExceedMaxPerms)
{
    ShmId id = createShm(4, PteRead); // read-only region
    invoke(PrimitiveOp::EShmShr, PrivMode::User,
           {id, receiver, PteRead | PteWrite}, sender);
    PrimitiveResponse r = invoke(PrimitiveOp::EShmAt, PrivMode::User,
                                 {id, PteRead | PteWrite}, receiver);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    WalkResult walk =
        rt->enclavePageTable(receiver)->walk(r.results.at(0));
    EXPECT_FALSE(walk.perms & PteWrite)
        << "maxPerms ceiling clamps even the creator's grants";
}

TEST_F(ShmFixture, MaliciousReleaseBlocked)
{
    // Section V-C: a receiver cannot release/reclaim the region.
    ShmId id = createShm();
    invoke(PrimitiveOp::EShmShr, PrivMode::User, {id, receiver, PteRead},
           sender);
    invoke(PrimitiveOp::EShmAt, PrivMode::User, {id, PteRead}, receiver);

    EXPECT_EQ(invoke(PrimitiveOp::EShmDes, PrivMode::User, {id},
                     receiver)
                  .status,
              PrimStatus::NotAuthorized);
    // Even the creator cannot destroy while connections are active.
    EXPECT_EQ(invoke(PrimitiveOp::EShmDes, PrivMode::User, {id}, sender)
                  .status,
              PrimStatus::Busy);
}

TEST_F(ShmFixture, DetachThenDestroySucceeds)
{
    ShmId id = createShm();
    invoke(PrimitiveOp::EShmShr, PrivMode::User, {id, receiver, PteRead},
           sender);
    PrimitiveResponse at =
        invoke(PrimitiveOp::EShmAt, PrivMode::User, {id, PteRead},
               receiver);
    std::vector<Addr> pages = rt->shm(id)->pages;
    KeyId key = rt->shm(id)->keyId;

    ASSERT_EQ(invoke(PrimitiveOp::EShmDt, PrivMode::User, {id},
                     receiver)
                  .status,
              PrimStatus::Ok);
    EXPECT_FALSE(
        rt->enclavePageTable(receiver)->walk(at.results.at(0)).valid);

    ASSERT_EQ(invoke(PrimitiveOp::EShmDes, PrivMode::User, {id}, sender)
                  .status,
              PrimStatus::Ok);
    EXPECT_EQ(rt->shm(id), nullptr);
    EXPECT_FALSE(enc.hasKey(key));
    for (Addr ppn : pages) {
        EXPECT_FALSE(bitmap.isEnclavePage(ppn));
        EXPECT_EQ(rt->ownership().lookup(ppn), nullptr);
    }
}

TEST_F(ShmFixture, SharedPagesNeverReissuedAsPrivate)
{
    ShmId id = createShm(8);
    std::set<Addr> shared(rt->shm(id)->pages.begin(),
                          rt->shm(id)->pages.end());
    // Exhaustively allocate private memory; no shared page may appear.
    for (int i = 0; i < 20; ++i) {
        PrimitiveResponse r =
            invoke(PrimitiveOp::EAlloc, PrivMode::User, {4}, attacker);
        ASSERT_EQ(r.status, PrimStatus::Ok);
        for (Addr ppn : rt->ownership().pagesOf(attacker))
            EXPECT_EQ(shared.count(ppn), 0u);
    }
}

TEST_F(ShmFixture, KeyIdWrapNeverReissuesLiveKeyIds)
{
    // More ESHMGET/ESHMDES cycles than there are 16-bit KeyIDs: the
    // allocator must wrap past the plaintext KeyID 0 and never hand
    // out (and so re-key) a KeyID a live enclave or shm still holds.
    ShmId held = createShm(1);
    const std::vector<EnclaveId> enclaves = {sender, receiver, attacker};
    std::vector<KeyId> live;
    for (EnclaveId e : enclaves)
        live.push_back(rt->enclave(e)->keyId);
    live.push_back(rt->shm(held)->keyId);

    // A keystream sample per live KeyID: equal after the churn means
    // the slot still holds the same key.
    auto keystream = [this](KeyId k) {
        return enc.transformLine(k, kCsBase, Bytes(lineSize, 0));
    };
    std::map<KeyId, Bytes> before;
    for (KeyId k : live)
        before[k] = keystream(k);
    ASSERT_EQ(before.size(), live.size()) << "live KeyIDs are distinct";

    for (std::uint32_t i = 0; i < 70'000; ++i) {
        PrimitiveResponse r = invoke(PrimitiveOp::EShmGet, PrivMode::User,
                                     {1, PteRead | PteWrite}, sender);
        ASSERT_EQ(r.status, PrimStatus::Ok) << "cycle " << i;
        ShmId id = static_cast<ShmId>(r.results.at(0));
        KeyId k = rt->shm(id)->keyId;
        ASSERT_NE(k, 0) << "cycle " << i;
        ASSERT_EQ(before.count(k), 0u)
            << "KeyID " << k << " reissued while live, cycle " << i;
        ASSERT_EQ(invoke(PrimitiveOp::EShmDes, PrivMode::User, {id}, sender)
                      .status,
                  PrimStatus::Ok)
            << "cycle " << i;
    }

    for (std::size_t j = 0; j < enclaves.size(); ++j)
        EXPECT_EQ(rt->enclave(enclaves[j])->keyId, live[j]);
    EXPECT_EQ(rt->shm(held)->keyId, live.back());
    for (const auto &[k, stream] : before)
        EXPECT_EQ(keystream(k), stream) << "KeyID " << k << " re-keyed";
}

TEST_F(ShmFixture, DoubleAttachRejected)
{
    ShmId id = createShm();
    invoke(PrimitiveOp::EShmAt, PrivMode::User, {id, PteRead}, sender);
    EXPECT_EQ(invoke(PrimitiveOp::EShmAt, PrivMode::User, {id, PteRead},
                     sender)
                  .status,
              PrimStatus::AlreadyExists);
}

TEST_F(ShmFixture, AttachBudgetCountsEveryAttachedPage)
{
    // ESHMAT charges the pages of every region already attached, not
    // the new region's size once per attachment, so the outcome does
    // not depend on the order in which regions are attached.
    EnclaveId owner = makeEnclave(0x93, 256);
    const std::uint64_t rw = PteRead | PteWrite;
    ShmId big = createShm(250, rw, owner);
    ShmId small_a = createShm(5, rw, owner);
    ShmId small_b = createShm(5, rw, owner);
    auto attach = [&](ShmId id) {
        return invoke(PrimitiveOp::EShmAt, PrivMode::User, {id, rw},
                      owner)
            .status;
    };
    auto detach = [&](ShmId id) {
        return invoke(PrimitiveOp::EShmDt, PrivMode::User, {id}, owner)
            .status;
    };

    // 250 + 5 + 5 = 260 pages overruns the 256-page budget.
    EXPECT_EQ(attach(big), PrimStatus::Ok);
    EXPECT_EQ(attach(small_a), PrimStatus::Ok);
    EXPECT_EQ(attach(small_b), PrimStatus::OutOfMemory);
    EXPECT_EQ(rt->enclave(owner)->attachedShm.size(), 2u);

    // 5 + 250 = 255 pages fits.
    ASSERT_EQ(detach(big), PrimStatus::Ok);
    ASSERT_EQ(detach(small_a), PrimStatus::Ok);
    EXPECT_EQ(attach(small_a), PrimStatus::Ok);
    EXPECT_EQ(attach(big), PrimStatus::Ok);
}

} // namespace
} // namespace hypertee
