/** @file Unit tests for Sv39-style page tables. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

constexpr Addr kBase = 0x8000'0000;
constexpr Addr kSize = 64 * 1024 * 1024;

struct PageTableTest : ::testing::Test
{
    PhysicalMemory mem{kBase, kSize};
    Addr nextFrame = kBase;

    PageTable::FrameAllocator
    allocator()
    {
        return [this] {
            Addr frame = nextFrame;
            nextFrame += pageSize;
            return frame;
        };
    }
};

TEST_F(PageTableTest, MapThenWalk)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + 0x100000, PteRead | PteWrite | PteUser, 7);

    WalkResult res = pt.walk(0x4000'0000 + 0x123);
    ASSERT_TRUE(res.valid);
    EXPECT_EQ(res.pa, kBase + 0x100000 + 0x123);
    EXPECT_EQ(res.keyId, 7);
    EXPECT_TRUE(res.perms & PteRead);
    EXPECT_TRUE(res.perms & PteWrite);
    EXPECT_FALSE(res.perms & PteExec);
    EXPECT_EQ(res.levels, 3);
}

TEST_F(PageTableTest, UnmappedWalkIsInvalid)
{
    PageTable pt(&mem, allocator());
    EXPECT_FALSE(pt.walk(0x5000'0000).valid);
}

TEST_F(PageTableTest, UnmapRemovesTranslation)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_TRUE(pt.unmap(0x4000'0000));
    EXPECT_FALSE(pt.walk(0x4000'0000).valid);
    EXPECT_FALSE(pt.unmap(0x4000'0000));
}

TEST_F(PageTableTest, ManyMappingsCoexist)
{
    PageTable pt(&mem, allocator());
    for (Addr i = 0; i < 600; ++i) {
        // Spread VAs across multiple level-1 tables.
        Addr va = 0x1000'0000 + i * pageSize * 3;
        pt.map(va, kBase + 0x200000 + i * pageSize, PteRead);
    }
    for (Addr i = 0; i < 600; ++i) {
        Addr va = 0x1000'0000 + i * pageSize * 3;
        WalkResult res = pt.walk(va);
        ASSERT_TRUE(res.valid) << "mapping " << i;
        EXPECT_EQ(res.pa, kBase + 0x200000 + i * pageSize);
    }
}

TEST_F(PageTableTest, SeparateTablesAreIndependent)
{
    PageTable a(&mem, allocator());
    PageTable b(&mem, allocator());
    a.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_TRUE(a.walk(0x4000'0000).valid);
    EXPECT_FALSE(b.walk(0x4000'0000).valid);
}

TEST_F(PageTableTest, SetPermsUpdatesLeaf)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead | PteWrite);
    EXPECT_TRUE(pt.setPerms(0x4000'0000, PteRead)); // drop write
    WalkResult res = pt.walk(0x4000'0000);
    EXPECT_TRUE(res.perms & PteRead);
    EXPECT_FALSE(res.perms & PteWrite);
    EXPECT_FALSE(pt.setPerms(0x7000'0000, PteRead)); // unmapped
}

TEST_F(PageTableTest, AccessedDirtyBits)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead | PteWrite);
    EXPECT_FALSE(pt.accessedBit(0x4000'0000));
    EXPECT_FALSE(pt.dirtyBit(0x4000'0000));
    pt.setAccessedDirty(0x4000'0000, true, true);
    EXPECT_TRUE(pt.accessedBit(0x4000'0000));
    EXPECT_TRUE(pt.dirtyBit(0x4000'0000));
    pt.clearAccessedDirty(0x4000'0000);
    EXPECT_FALSE(pt.accessedBit(0x4000'0000));
}

TEST_F(PageTableTest, ForEachMappingEnumeratesAll)
{
    PageTable pt(&mem, allocator());
    std::set<Addr> mapped;
    for (Addr i = 0; i < 20; ++i) {
        Addr va = 0x2000'0000 + i * pageSize;
        pt.map(va, kBase + 0x300000 + i * pageSize, PteRead);
        mapped.insert(va);
    }
    std::set<Addr> seen;
    pt.forEachMapping([&](Addr va, const WalkResult &res) {
        EXPECT_TRUE(res.valid);
        seen.insert(va);
    });
    EXPECT_EQ(seen, mapped);
}

TEST_F(PageTableTest, WalkRecordsVisitedPteAddresses)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    WalkResult res = pt.walk(0x4000'0000);
    ASSERT_EQ(res.levels, 3);
    EXPECT_EQ(res.visited[2], res.pteAddr);
    // Root-level PTE lives inside the root frame.
    EXPECT_GE(res.visited[0], pt.root());
    EXPECT_LT(res.visited[0], pt.root() + pageSize);
}

TEST_F(PageTableTest, TableFramesTracked)
{
    PageTable pt(&mem, allocator());
    EXPECT_EQ(pt.tableFrames().size(), 1u); // root only
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_EQ(pt.tableFrames().size(), 3u); // root + 2 levels
}

TEST_F(PageTableTest, KeyIdZeroByDefault)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_EQ(pt.walk(0x4000'0000).keyId, 0);
}

TEST_F(PageTableTest, DoubleMapPanics)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_DEATH(pt.map(0x4000'0000, kBase + 2 * pageSize, PteRead),
                 "double map");
}

TEST_F(PageTableTest, DoubleMapInsideARunPanics)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000 + 5 * pageSize, kBase + pageSize, PteRead);
    std::vector<Addr> ppns(10, pageNumber(kBase) + 2);
    EXPECT_DEATH(pt.mapRun(0x4000'0000, ppns, PteRead), "double map");
}

TEST_F(PageTableTest, RunsOutsideTheSv39SpacePanic)
{
    EXPECT_TRUE(PageTable::inVaSpace(PageTable::vaLimit - pageSize, 1));
    EXPECT_FALSE(PageTable::inVaSpace(PageTable::vaLimit - pageSize, 2));
    EXPECT_FALSE(PageTable::inVaSpace(PageTable::vaLimit, 1));
    EXPECT_FALSE(PageTable::inVaSpace(~Addr(0) & ~(pageSize - 1), 2));
    EXPECT_FALSE(PageTable::inVaSpace(0, ~std::size_t(0)));

    PageTable pt(&mem, allocator());
    std::vector<Addr> ppns(2, pageNumber(kBase) + 2);
    EXPECT_DEATH(pt.mapRun(PageTable::vaLimit - pageSize, ppns, PteRead),
                 "Sv39");
    EXPECT_DEATH(pt.anyMapped(PageTable::vaLimit, 1), "Sv39");
}

/**
 * One table driven by the range operations, a twin driven page by
 * page, each in its own physical memory with its own frame
 * allocator. Seeded random runs cross 2 MiB (leaf table) and 1 GiB
 * (mid table) boundaries and often start where no leaf or mid table
 * exists yet. After every step both tables must hold the same raw
 * PTE words in the same frames, allocated in the same order.
 */
struct RangeTwin
{
    PhysicalMemory runMem{kBase, kSize};
    PhysicalMemory pageMem{kBase, kSize};
    std::vector<Addr> runAllocs;
    std::vector<Addr> pageAllocs;
    PageTable run{&runMem, bump(runAllocs)};
    PageTable page{&pageMem, bump(pageAllocs)};

    static PageTable::FrameAllocator
    bump(std::vector<Addr> &log)
    {
        return [&log] {
            Addr frame = kBase + log.size() * pageSize;
            log.push_back(frame);
            return frame;
        };
    }

    void
    expectSameBytes() const
    {
        ASSERT_EQ(runAllocs, pageAllocs);
        ASSERT_EQ(run.tableFrames(), page.tableFrames());
        for (Addr frame : run.tableFrames()) {
            for (Addr off = 0; off < pageSize; off += 8) {
                ASSERT_EQ(runMem.read64(frame + off),
                          pageMem.read64(frame + off))
                    << "PTE word at " << frame + off;
            }
        }
    }
};

TEST(PageTableRanges, MatchPageByPageOperations)
{
    constexpr Addr gib = Addr(1) << 30;
    constexpr Addr mib2 = Addr(2) << 20;
    // Run starts just below a leaf-table or a mid-table boundary.
    const Addr anchors[] = {gib - 3 * pageSize, 2 * gib - mib2 / 2,
                            3 * gib + mib2 - 7 * pageSize,
                            0x4000'0000, PageTable::vaLimit - 4 * mib2};
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Random rng(seed);
        RangeTwin t;
        Addr next_ppn = 0x12345;
        int maps = 0;
        int clears = 0;
        for (int step = 0; step < 60; ++step) {
            const Addr va = anchors[rng.below(std::size(anchors))] +
                            rng.below(64) * pageSize;
            const std::size_t n = std::size_t(rng.between(1, 1100));

            bool page_mapped = false;
            for (std::size_t i = 0; i < n; ++i)
                page_mapped |= t.page.walk(va + i * pageSize).valid;
            ASSERT_EQ(t.run.anyMapped(va, n), page_mapped);

            if (!page_mapped) {
                const std::uint64_t perms =
                    (rng.below(7) + 1) << 1 |
                    (rng.below(2) ? std::uint64_t(PteUser) : 0);
                const auto key = static_cast<KeyId>(rng.below(1 << 16));
                std::vector<Addr> ppns(n);
                for (Addr &ppn : ppns)
                    ppn = next_ppn++;
                t.run.mapRun(va, ppns, perms, key);
                ++maps;
                for (std::size_t i = 0; i < n; ++i) {
                    t.page.map(va + i * pageSize, ppns[i] << pageShift,
                               perms, key);
                }
            } else {
                std::vector<LeafSlot> slots(n);
                t.run.lookupRun(va, slots);
                for (std::size_t i = 0; i < n; ++i) {
                    const WalkResult w = t.page.walk(va + i * pageSize);
                    ASSERT_EQ(slots[i].valid, w.valid) << "page " << i;
                    if (w.valid) {
                        EXPECT_EQ(slots[i].ppn, pageNumber(w.pa));
                        EXPECT_EQ(slots[i].pteAddr, w.pteAddr);
                    }
                }
                t.run.clearRun(slots);
                ++clears;
                for (std::size_t i = 0; i < n; ++i)
                    t.page.unmap(va + i * pageSize);
            }
            t.expectSameBytes();
            if (testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_GT(maps, 10);
        EXPECT_GT(clears, 10);
    }
}

} // namespace
} // namespace hypertee
