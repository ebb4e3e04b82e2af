/** @file Controlled-channel attack tests: the Table VI evidence. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "attack/controlled_channel.hh"

namespace hypertee
{
namespace
{

constexpr std::size_t kBits = 64;

std::size_t
ones(const std::vector<bool> &secret)
{
    return std::size_t(std::count(secret.begin(), secret.end(), true));
}

/**
 * Forwards every step to a HyperTeeOsView and records the victim's
 * allocations and each touch that really translated in its context:
 * the MMU is in enclave mode on the victim's page table, the page is
 * mapped there, and the translation sits in the TLB.
 */
class VictimRecorder : public OsView
{
  public:
    explicit VictimRecorder(HyperTeeOsView &view) : _view(view) {}

    std::vector<Addr> allocated;
    std::map<Addr, std::size_t> translated;

    void
    victimAllocate(Addr va) override
    {
        _view.victimAllocate(va);
        allocated.push_back(va);
    }

    void
    victimTouch(Addr va) override
    {
        _view.victimTouch(va);
        Mmu &mmu = _view.system().core(0).mmu();
        const PageTable *pt =
            _view.system().ems().enclavePageTable(_view.victim().id());
        if (mmu.enclaveMode() && mmu.pageTable() == pt &&
            pt->walk(va).valid && mmu.tlb().lookup(va) != nullptr)
            ++translated[va];
    }

    std::size_t drainAllocationEvents() override
    {
        return _view.drainAllocationEvents();
    }
    bool
    clearAccessedBit(Addr va) override
    {
        return _view.clearAccessedBit(va);
    }
    bool
    readAccessedBit(Addr va, bool &value) override
    {
        return _view.readAccessedBit(va, value);
    }
    bool evictPage(Addr va) override { return _view.evictPage(va); }
    std::vector<Addr> drainFaultEvents() override
    {
        return _view.drainFaultEvents();
    }

  private:
    HyperTeeOsView &_view;
};

/** The victim touched page A on every 1-bit and B on every 0-bit. */
void
expectVictimTouchedSecretPages(
    AttackOutcome (*attack)(OsView &, const std::vector<bool> &))
{
    HyperTeeOsView view;
    VictimRecorder recorder(view);
    std::vector<bool> secret = randomSecret(kBits, 13);
    attack(recorder, secret);
    ASSERT_EQ(recorder.allocated.size(), 2u);
    EXPECT_EQ(recorder.translated[recorder.allocated[0]], ones(secret));
    EXPECT_EQ(recorder.translated[recorder.allocated[1]],
              kBits - ones(secret));
}

TEST(AllocationAttack, SucceedsAgainstSgxClassBaseline)
{
    BaselineOsManager mgr(TeeModel::Sgx);
    std::vector<bool> secret = randomSecret(kBits, 1);
    AttackOutcome out = allocationAttack(mgr, secret);
    EXPECT_EQ(out.observedRounds(), kBits);
    EXPECT_EQ(out.accuracy(secret), 1.0)
        << "on-demand allocation leaks every bit";
}

TEST(AllocationAttack, DefeatedByHyperTeePool)
{
    HyperTeeOsView view;
    std::vector<bool> secret = randomSecret(kBits, 1);
    AttackOutcome out = allocationAttack(view, secret);
    // The OS watches every round, and the warm pool shows it nothing.
    EXPECT_EQ(out.observedRounds(), kBits);
    for (const std::optional<bool> &round : out.rounds)
        EXPECT_EQ(round, false) << "pool conceals allocation events";
}

TEST(AllocationAttack, HyperTeeVictimReallyAllocates)
{
    HyperTeeOsView view;
    const PageOwnershipTable &owners = view.system().ems().ownership();
    const std::size_t before = owners.privatePages(view.victim().id());
    std::vector<bool> secret = randomSecret(kBits, 1);
    allocationAttack(view, secret);
    EXPECT_EQ(owners.privatePages(view.victim().id()),
              before + ones(secret));
}

TEST(PageTableAttack, SucceedsAgainstSgxClassBaseline)
{
    BaselineOsManager mgr(TeeModel::Sgx);
    std::vector<bool> secret = randomSecret(kBits, 3);
    AttackOutcome out = pageTableAttack(mgr, secret);
    EXPECT_EQ(out.accuracy(secret), 1.0)
        << "A/D bits leak the access pattern";
}

TEST(PageTableAttack, BlockedByTdxClassSecureEpt)
{
    // TDX defends the page-table channel (Table VI) even though the
    // other channels stay open.
    BaselineOsManager mgr(TeeModel::Tdx);
    std::vector<bool> secret = randomSecret(kBits, 3);
    EXPECT_EQ(pageTableAttack(mgr, secret).observedRounds(), 0u);
}

TEST(PageTableAttack, DefeatedByHyperTeePrivateTables)
{
    HyperTeeOsView view;
    std::vector<bool> secret = randomSecret(kBits, 3);
    AttackOutcome out = pageTableAttack(view, secret);
    EXPECT_EQ(out.observedRounds(), 0u)
        << "every PTE dereference hits the bitmap check";
    EXPECT_GE(view.system().core(0).mmu().bitmapViolations(), kBits);
}

TEST(PageTableAttack, HyperTeeVictimReallyTouches)
{
    expectVictimTouchedSecretPages(pageTableAttack);
}

TEST(SwapAttack, SucceedsAgainstSgxClassBaseline)
{
    BaselineOsManager mgr(TeeModel::Sgx);
    std::vector<bool> secret = randomSecret(kBits, 5);
    AttackOutcome out = swapAttack(mgr, secret);
    EXPECT_EQ(out.accuracy(secret), 1.0)
        << "chosen-victim eviction leaks the touched page";
}

TEST(SwapAttack, DefeatedByHyperTeeRandomEwb)
{
    HyperTeeOsView view;
    std::vector<bool> secret = randomSecret(kBits, 5);
    EXPECT_EQ(swapAttack(view, secret).observedRounds(), 0u)
        << "EWB never returns the victim's active pages";
}

TEST(SwapAttack, HyperTeeVictimReallyTouches)
{
    expectVictimTouchedSecretPages(swapAttack);
}

TEST(SwapAttack, KeystoneSelfPagingAlsoDefends)
{
    BaselineOsManager mgr(TeeModel::Keystone);
    std::vector<bool> secret = randomSecret(kBits, 5);
    EXPECT_EQ(swapAttack(mgr, secret).observedRounds(), 0u)
        << "self-paging closes the swap channel";
}

TEST(Table6, EveryTeeRunsTheSameThreeAttacks)
{
    // Each model's view answers exactly as its exposure flags say:
    // an exposed channel is observed every round and leaks the whole
    // secret; a closed page-table or swap channel is refused every
    // round; a hidden allocation channel reads "no event" throughout.
    std::vector<bool> secret = randomSecret(kBits, 17);
    for (TeeModel model : allTeeModels()) {
        SCOPED_TRACE(teeName(model));
        const ManagementExposure e = exposureOf(model);
        const bool exposed[] = {e.allocationEventsVisible,
                                e.pageTablesAttackerManaged,
                                e.swapVictimsAttackerChosen};
        for (std::size_t i = 0; i < 3; ++i) {
            const NamedAttack &attack = controlledChannelAttacks[i];
            SCOPED_TRACE(attack.name);
            AttackOutcome out = attack.run(*makeOsView(model), secret);
            ASSERT_EQ(out.rounds.size(), kBits);
            if (exposed[i]) {
                EXPECT_EQ(out.correctBits(secret), kBits);
                EXPECT_EQ(verdictOf(out, secret), Verdict::Open);
            } else if (i == 0) {
                EXPECT_EQ(out.correctBits(secret), kBits - ones(secret));
            } else {
                EXPECT_EQ(out.observedRounds(), 0u);
                EXPECT_EQ(verdictCell(out, secret), "DEFENDED (refused)");
            }
        }
    }
}

TEST(TimingChannel, SerializedSingleCoreLeaksLargeDeltas)
{
    // One EMS core, no jitter, 10 us service delta: the attacker's
    // probe queues behind the victim and reads the secret.
    double acc = timingChannelAccuracy(1, false, 10'000'000, kBits, 7);
    EXPECT_GT(acc, 0.9);
}

TEST(TimingChannel, MultiCoreConcurrencyRemovesSerialization)
{
    // Section III-C point 2: concurrent handling across EMS cores.
    double acc = timingChannelAccuracy(2, false, 10'000'000, kBits, 7);
    EXPECT_LT(acc, 0.65);
}

TEST(TimingChannel, JitterObfuscatesSubJitterDeltas)
{
    // Section III-C point 1: polling jitter drowns small service
    // differences even on one core.
    double leaky = timingChannelAccuracy(1, false, 60'000, kBits, 9);
    double obfuscated = timingChannelAccuracy(1, true, 60'000, kBits, 9);
    EXPECT_GT(leaky, 0.9);
    EXPECT_LT(obfuscated, 0.7);
}

TEST(TeeMatrix, HyperTeeClosesEveryManagementChannel)
{
    ManagementExposure e = exposureOf(TeeModel::HyperTee);
    EXPECT_FALSE(e.allocationEventsVisible);
    EXPECT_FALSE(e.pageTablesAttackerManaged);
    EXPECT_FALSE(e.swapVictimsAttackerChosen);
    EXPECT_FALSE(e.communicationUnmanaged);
    EXPECT_FALSE(e.mgmtSharesMicroarchitecture);
}

TEST(TeeMatrix, SgxExposesEverything)
{
    ManagementExposure e = exposureOf(TeeModel::Sgx);
    EXPECT_TRUE(e.allocationEventsVisible);
    EXPECT_TRUE(e.pageTablesAttackerManaged);
    EXPECT_TRUE(e.swapVictimsAttackerChosen);
    EXPECT_TRUE(e.communicationUnmanaged);
    EXPECT_TRUE(e.mgmtSharesMicroarchitecture);
}

TEST(TeeMatrix, TdxDefendsOnlyPageTables)
{
    ManagementExposure e = exposureOf(TeeModel::Tdx);
    EXPECT_TRUE(e.allocationEventsVisible);
    EXPECT_FALSE(e.pageTablesAttackerManaged);
    EXPECT_TRUE(e.swapVictimsAttackerChosen);
}

TEST(TeeMatrix, AllNineModelsEnumerate)
{
    EXPECT_EQ(allTeeModels().size(), 9u);
    for (TeeModel m : allTeeModels())
        EXPECT_STRNE(teeName(m), "?");
}

} // namespace
} // namespace hypertee
