/** @file Page ownership table tests. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ems/ownership.hh"

namespace hypertee
{
namespace
{

TEST(Ownership, ClaimAndLookup)
{
    PageOwnershipTable table;
    EXPECT_TRUE(table.claim(100, 1));
    const PageOwner *owner = table.lookup(100);
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->owner, 1u);
    EXPECT_EQ(owner->kind, PageKind::Private);
    EXPECT_TRUE(table.ownedBy(100, 1));
    EXPECT_FALSE(table.ownedBy(100, 2));
}

TEST(Ownership, DoubleClaimRejected)
{
    // The inter-enclave isolation check (Section IV-B).
    PageOwnershipTable table;
    EXPECT_TRUE(table.claim(100, 1));
    EXPECT_FALSE(table.claim(100, 2));
    EXPECT_EQ(table.lookup(100)->owner, 1u);
    EXPECT_EQ(table.conflicts(), 1u);
}

TEST(Ownership, ReleaseAllowsReclaim)
{
    PageOwnershipTable table;
    table.claim(100, 1);
    EXPECT_TRUE(table.release(100));
    EXPECT_EQ(table.lookup(100), nullptr);
    EXPECT_TRUE(table.claim(100, 2));
    EXPECT_FALSE(table.release(555)) << "releasing unowned page";
}

TEST(Ownership, EnumeratesPagesOfEnclave)
{
    PageOwnershipTable table;
    table.claim(1, 7);
    table.claim(2, 7);
    table.claim(3, 8);
    auto pages = table.pagesOf(7);
    EXPECT_EQ(pages.size(), 2u);
}

TEST(Ownership, TracksSharedPagesByShm)
{
    // Shared pages keep their ShmID tag and stay out of the owner's
    // private-page list, so they are never swept as private memory.
    PageOwnershipTable table;
    table.claim(10, 1, PageKind::Shared, 55);
    table.claim(11, 1, PageKind::Shared, 55);
    table.claim(12, 1, PageKind::Shared, 56);
    EXPECT_EQ(table.lookup(10)->kind, PageKind::Shared);
    EXPECT_EQ(table.lookup(10)->shm, 55u);
    EXPECT_EQ(table.lookup(11)->shm, 55u);
    EXPECT_EQ(table.lookup(12)->shm, 56u);
    EXPECT_TRUE(table.ownedBy(12, 1));
    EXPECT_TRUE(table.pagesOf(1).empty());
    EXPECT_EQ(table.privatePages(1), 0u);
    EXPECT_EQ(table.size(), 3u);
}

TEST(Ownership, ListsPrivatePagesPerOwnerInClaimOrder)
{
    // Each owner's private pages form one list in claim order (the
    // EDESTROY order); shared pages and page-table frames never join.
    PageOwnershipTable table;
    std::map<EnclaveId, std::vector<Addr>> model;
    auto check = [&] {
        for (const auto &[id, pages] : model) {
            EXPECT_EQ(table.pagesOf(id), pages) << "owner " << id;
            EXPECT_EQ(table.privatePages(id), pages.size())
                << "owner " << id;
        }
    };
    auto claim = [&](Addr ppn, EnclaveId id) {
        ASSERT_TRUE(table.claim(ppn, id));
        model[id].push_back(ppn);
    };
    auto release = [&](Addr ppn, EnclaveId id) {
        ASSERT_TRUE(table.release(ppn));
        std::erase(model[id], ppn);
    };

    claim(10, 7);
    ASSERT_TRUE(table.claim(11, 7, PageKind::Shared, 55));
    claim(12, 8);
    claim(13, 7);
    ASSERT_TRUE(table.claim(14, 7, PageKind::PageTable));
    claim(15, 7);
    ASSERT_TRUE(table.claim(16, 8, PageKind::Shared, 56));
    claim(17, 8);
    claim(18, 7);
    check();
    EXPECT_EQ(table.lookup(11)->kind, PageKind::Shared);
    EXPECT_EQ(table.lookup(11)->shm, 55u);
    EXPECT_EQ(table.lookup(16)->shm, 56u);

    // A rejected double claim leaves every list unchanged, whoever
    // the claimant.
    EXPECT_FALSE(table.claim(13, 8));
    EXPECT_FALSE(table.claim(15, 7));
    EXPECT_FALSE(table.claim(12, 7, PageKind::PageTable));
    check();

    release(10, 7); // head
    check();
    release(15, 7); // middle
    check();
    release(18, 7); // tail
    check();
    ASSERT_TRUE(table.release(11));
    ASSERT_TRUE(table.release(14));
    check();

    // Emptied, then refilled: the list starts again from its head,
    // and a released page may join another owner's list.
    release(13, 7);
    check();
    claim(15, 7);
    claim(10, 8);
    check();

    EXPECT_TRUE(table.pagesOf(99).empty());
    EXPECT_EQ(table.privatePages(99), 0u);
}

TEST(Ownership, PageListsSpanRegionsAndFreedRegionsRefill)
{
    // Entries live in 2 MiB regions (512 frames) that come and go
    // with their pages. Lists link across regions, and a region that
    // empties and is claimed again must start clean.
    constexpr Addr a = 3 * 512;
    constexpr Addr b = 10 * 512;
    constexpr Addr c = (Addr(1) << 30) + 7 * 512; // far, sparse PPN
    constexpr Addr d = 20 * 512;
    PageOwnershipTable table;
    struct Entry
    {
        EnclaveId owner;
        PageKind kind;
        ShmId shm;
    };
    std::map<Addr, Entry> owned;
    std::map<EnclaveId, std::vector<Addr>> lists;
    std::vector<Addr> released;
    auto check = [&] {
        EXPECT_EQ(table.size(), owned.size());
        for (const auto &[id, pages] : lists) {
            EXPECT_EQ(table.pagesOf(id), pages) << "owner " << id;
            EXPECT_EQ(table.privatePages(id), pages.size())
                << "owner " << id;
        }
        for (const auto &[ppn, e] : owned) {
            const PageOwner *o = table.lookup(ppn);
            ASSERT_NE(o, nullptr) << "ppn " << ppn;
            EXPECT_EQ(o->owner, e.owner) << "ppn " << ppn;
            EXPECT_EQ(o->kind, e.kind) << "ppn " << ppn;
            EXPECT_EQ(o->shm, e.shm) << "ppn " << ppn;
        }
        for (Addr ppn : released) {
            if (!owned.count(ppn)) {
                EXPECT_EQ(table.lookup(ppn), nullptr) << "ppn " << ppn;
            }
        }
    };
    auto claim = [&](Addr ppn, EnclaveId id,
                     PageKind kind = PageKind::Private, ShmId shm = 0) {
        ASSERT_TRUE(table.claim(ppn, id, kind, shm)) << "ppn " << ppn;
        owned[ppn] = {id, kind, shm};
        if (kind == PageKind::Private)
            lists[id].push_back(ppn);
        check();
    };
    auto release = [&](Addr ppn) {
        ASSERT_TRUE(table.release(ppn)) << "ppn " << ppn;
        std::erase(lists[owned.at(ppn).owner], ppn);
        owned.erase(ppn);
        released.push_back(ppn);
        check();
    };

    claim(a + 5, 7);
    claim(b, 8, PageKind::Shared, 55);
    claim(c + 511, 7);
    claim(a + 6, 8);
    claim(b + 1, 7, PageKind::PageTable);
    claim(c, 8);
    claim(b + 511, 7);
    claim(a + 511, 8);
    claim(c + 100, 9, PageKind::Shared, 56);

    // Region c: release its pages so that the last one to go has list
    // neighbours in regions a and b.
    release(c + 100);
    release(c);
    release(c + 511);
    EXPECT_EQ(table.lookup(c + 100), nullptr);
    // Claim back into the freed region, then empty it through a page
    // with no list, so the region found last is the one freed.
    claim(c + 511, 8);
    claim(c + 3, 7, PageKind::PageTable);
    release(c + 511);
    release(c + 3);
    claim(c + 3, 7);
    claim(c + 511, 8, PageKind::Shared, 57);
    EXPECT_FALSE(table.claim(c + 3, 8));
    EXPECT_FALSE(table.release(c + 4));
    check();

    // Empty region c again: it is parked, and the next new region, d,
    // reuses its storage. Neither the cached region nor the reused
    // slots may let c's pages or d's unclaimed ones be found.
    release(c + 3);
    release(c + 511);
    claim(d + 3, 9);
    claim(d + 4, 9, PageKind::Shared, 58);
    EXPECT_EQ(table.lookup(c + 3), nullptr);
    EXPECT_EQ(table.lookup(d + 511), nullptr);
    claim(c + 3, 7);
    claim(c + 511, 8, PageKind::Shared, 57);

    // Empty region a completely, refill it, then drain everything.
    release(a + 5);
    release(a + 6);
    release(a + 511);
    EXPECT_FALSE(table.release(a + 5));
    claim(a + 511, 7);
    claim(a, 8);
    for (Addr ppn :
         {b, b + 1, c + 3, a + 511, b + 511, c + 511, a, d + 3, d + 4})
        release(ppn);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_TRUE(table.pagesOf(7).empty());
    EXPECT_TRUE(table.pagesOf(8).empty());
}

TEST(Ownership, PageTableKindTracked)
{
    PageOwnershipTable table;
    table.claim(20, 3, PageKind::PageTable);
    EXPECT_EQ(table.lookup(20)->kind, PageKind::PageTable);
}

} // namespace
} // namespace hypertee
