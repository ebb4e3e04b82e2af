/** @file Enclave memory pool tests (allocation concealment). */

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "ems/memory_pool.hh"

namespace hypertee
{
namespace
{

constexpr Addr kFirstPpn = 0x80000;

TEST(OsFrames, FreedFramesComeBackLifoBeforeFreshOnes)
{
    OsFrames os{kFirstPpn};
    EXPECT_EQ(os.grant(3),
              (std::vector<Addr>{kFirstPpn, kFirstPpn + 1, kFirstPpn + 2}));
    os.take({kFirstPpn + 1, kFirstPpn});
    EXPECT_EQ(os.grant(3),
              (std::vector<Addr>{kFirstPpn, kFirstPpn + 1, kFirstPpn + 3}));
    os.take({kFirstPpn + 2});
    EXPECT_EQ(os.grantOne(), kFirstPpn + 2);
    EXPECT_EQ(os.grantOne(), kFirstPpn + 4);
}

TEST(OsFrames, BoundedRangeGrantsShortThenNothing)
{
    OsFrames os{kFirstPpn, kFirstPpn + 4};
    EXPECT_EQ(os.grant(3).size(), 3u);
    EXPECT_EQ(os.grant(3), std::vector<Addr>{kFirstPpn + 3});
    EXPECT_TRUE(os.grant(1).empty());
    EXPECT_FALSE(os.grantOne().has_value());
}

TEST(OsFrames, TakeAfterExhaustionMakesFramesGrantableAgain)
{
    OsFrames os{kFirstPpn, kFirstPpn + 2};
    ASSERT_EQ(os.grant(2).size(), 2u);
    ASSERT_TRUE(os.grant(1).empty());
    os.take({kFirstPpn + 1});
    EXPECT_EQ(os.grant(2), std::vector<Addr>{kFirstPpn + 1});
    EXPECT_TRUE(os.grant(1).empty());
}

struct PoolFixture : ::testing::Test
{
    OsFrames os{kFirstPpn};

    /** Frames the pool gave back to the OS: the OS grants each of
     *  them again before its next fresh frame. */
    std::size_t
    framesBackAtOs(const EnclaveMemoryPool &pool)
    {
        const std::vector<std::size_t> &sizes = pool.osRequestSizes();
        Addr fresh = kFirstPpn + std::accumulate(sizes.begin(), sizes.end(),
                                                 Addr(0));
        std::size_t n = 0;
        while (os.grantOne() != fresh)
            ++n;
        return n;
    }

    EnclaveMemoryPool::Params
    smallParams()
    {
        EnclaveMemoryPool::Params p;
        p.initialPages = 64;
        p.refillBatch = 32;
        p.minThreshold = 4;
        p.maxThreshold = 12;
        return p;
    }
};

TEST_F(PoolFixture, WarmPoolServesWithoutOsCalls)
{
    EnclaveMemoryPool pool(os, smallParams());
    std::uint64_t calls_after_init = pool.osRequests();
    // Draw well under the warm size: the OS must see nothing.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(pool.allocate(2).size(), 2u);
    EXPECT_EQ(pool.osRequests(), calls_after_init)
        << "allocation events concealed from the OS";
}

TEST_F(PoolFixture, RefillsWhenCrossingThreshold)
{
    EnclaveMemoryPool pool(os, smallParams());
    std::uint64_t calls_after_init = pool.osRequests();
    // Drain enough to cross any threshold in [4, 12].
    pool.allocate(60);
    EXPECT_GT(pool.osRequests(), calls_after_init);
}

TEST_F(PoolFixture, ThresholdRerandomizesOnRefill)
{
    EnclaveMemoryPool pool(os, smallParams());
    std::set<std::size_t> seen;
    for (int round = 0; round < 20; ++round) {
        seen.insert(pool.threshold());
        pool.allocate(40);
        std::vector<Addr> dummy; // keep pages out
    }
    // With a [4,12] band and 20 refills we must see variety.
    EXPECT_GT(seen.size(), 2u);
}

TEST_F(PoolFixture, PagesAreUniqueAcrossAllocations)
{
    EnclaveMemoryPool pool(os, smallParams());
    std::set<Addr> seen;
    for (int i = 0; i < 30; ++i) {
        for (Addr p : pool.allocate(4)) {
            EXPECT_TRUE(seen.insert(p).second) << "page reissued";
        }
    }
}

TEST_F(PoolFixture, ReleasedPagesAreReused)
{
    EnclaveMemoryPool pool(os, smallParams());
    std::vector<Addr> pages = pool.allocate(8);
    pool.release(pages);
    std::uint64_t calls = pool.osRequests();
    std::vector<Addr> again = pool.allocate(8);
    EXPECT_EQ(pool.osRequests(), calls) << "reuse needs no OS interaction";
    EXPECT_EQ(again.size(), 8u);
}

TEST_F(PoolFixture, RandomTakeVariesCountAndPosition)
{
    EnclaveMemoryPool pool(os, smallParams());
    Random rng(7);
    std::set<std::size_t> counts;
    for (int i = 0; i < 16; ++i) {
        std::vector<Addr> taken = pool.randomTake(4, 4, rng);
        counts.insert(taken.size());
        EXPECT_GE(taken.size(), 4u);
        EXPECT_LE(taken.size(), 8u);
        pool.release(taken);
    }
    EXPECT_GT(counts.size(), 1u) << "EWB page count is randomized";
}

TEST_F(PoolFixture, ReturnToOsShrinksPool)
{
    EnclaveMemoryPool pool(os, smallParams());
    std::size_t before = pool.freePages();
    pool.returnToOs(16);
    EXPECT_EQ(pool.freePages(), before - 16);
    EXPECT_EQ(framesBackAtOs(pool), 16u);
}

TEST_F(PoolFixture, ExhaustedOsYieldsEmptyAllocation)
{
    // An OS with exactly the warm pool's frames.
    OsFrames stingy{kFirstPpn, kFirstPpn + smallParams().initialPages};
    EnclaveMemoryPool pool(stingy, smallParams());
    EXPECT_TRUE(pool.allocate(100000).empty());
}

TEST_F(PoolFixture, RebalanceDisabledIsANoOp)
{
    EnclaveMemoryPool pool(os, smallParams());
    std::size_t before = pool.freePages();
    std::uint64_t calls_before = pool.osRequests();
    EnclaveMemoryPool::Rebalance moved = pool.rebalance();
    EXPECT_EQ(moved.refilled, 0u);
    EXPECT_EQ(moved.returned, 0u);
    EXPECT_EQ(pool.freePages(), before);
    EXPECT_EQ(pool.osRequests(), calls_before);
    EXPECT_EQ(pool.osReturns(), 0u);
}

TEST_F(PoolFixture, RebalanceRefillsUpFromLowWatermark)
{
    EnclaveMemoryPool::Params p = smallParams();
    p.lowWatermark = 48;
    p.highWatermark = 512;
    EnclaveMemoryPool pool(os, p);
    // Drain below the low watermark without tripping the demand
    // threshold path (threshold <= 12 < 48).
    while (pool.freePages() >= p.lowWatermark - 8)
        ASSERT_EQ(pool.allocate(1).size(), 1u);
    std::uint64_t requests_before = pool.osRequests();
    EnclaveMemoryPool::Rebalance moved = pool.rebalance();
    EXPECT_GT(moved.refilled, 0u);
    EXPECT_EQ(moved.returned, 0u);
    EXPECT_GE(pool.freePages(), p.lowWatermark);
    EXPECT_EQ(pool.osRequests(), requests_before + 1)
        << "one batched OS request, not per-page faults";
}

TEST_F(PoolFixture, RebalanceShedsDownToHighWatermark)
{
    EnclaveMemoryPool::Params p = smallParams();
    p.initialPages = 64;
    p.lowWatermark = 8;
    p.highWatermark = 40;
    EnclaveMemoryPool pool(os, p);
    ASSERT_GT(pool.freePages(), p.highWatermark);
    EnclaveMemoryPool::Rebalance moved = pool.rebalance();
    EXPECT_EQ(moved.refilled, 0u);
    EXPECT_GT(moved.returned, 0u);
    EXPECT_EQ(pool.freePages(), p.highWatermark);
    EXPECT_EQ(pool.osReturns(), moved.returned);
    EXPECT_EQ(framesBackAtOs(pool), moved.returned);
}

TEST_F(PoolFixture, RebalanceInsideBandMovesNothing)
{
    EnclaveMemoryPool::Params p = smallParams();
    p.lowWatermark = 16;
    p.highWatermark = 128;
    EnclaveMemoryPool pool(os, p);
    ASSERT_GE(pool.freePages(), p.lowWatermark);
    ASSERT_LE(pool.freePages(), p.highWatermark);
    EnclaveMemoryPool::Rebalance moved = pool.rebalance();
    EXPECT_EQ(moved.refilled, 0u);
    EXPECT_EQ(moved.returned, 0u);
}

} // namespace
} // namespace hypertee
