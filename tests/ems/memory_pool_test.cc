/** @file Enclave memory pool tests (allocation concealment). */

#include <gtest/gtest.h>

#include <deque>
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

/**
 * The page-at-a-time pool on a std::deque that the run-based pool
 * replaced: the reference whose hand-out order it must keep exactly.
 */
class DequePool
{
  public:
    DequePool(OsFrames &os, const EnclaveMemoryPool::Params &params,
              std::uint64_t seed)
        : _os(os), _p(params), _rng(seed)
    {
        rerandomize();
        refill(_p.initialPages);
    }

    std::vector<Addr>
    allocate(std::size_t n)
    {
        if (free.size() < n + threshold)
            refill(n + threshold - free.size());
        if (free.size() < n)
            return {};
        std::vector<Addr> out;
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(free.front());
            free.pop_front();
        }
        return out;
    }

    void
    release(const std::vector<Addr> &pages)
    {
        free.insert(free.end(), pages.begin(), pages.end());
    }

    std::vector<Addr>
    randomTake(std::size_t requested, std::size_t slack, Random &rng)
    {
        std::size_t count = requested + (slack ? rng.below(slack + 1) : 0);
        count = std::min(count, free.size());
        std::vector<Addr> out;
        for (std::size_t i = 0; i < count; ++i) {
            std::size_t pos = rng.below(free.size());
            out.push_back(free[pos]);
            free.erase(free.begin() + static_cast<std::ptrdiff_t>(pos));
        }
        return out;
    }

    void
    returnToOs(std::size_t n)
    {
        n = std::min(n, free.size());
        std::vector<Addr> pages(free.begin(),
                                free.begin() + static_cast<std::ptrdiff_t>(n));
        free.erase(free.begin(), free.begin() + static_cast<std::ptrdiff_t>(n));
        _os.take(pages);
        osReturns += n;
    }

    EnclaveMemoryPool::Rebalance
    rebalance()
    {
        EnclaveMemoryPool::Rebalance moved;
        if (_p.lowWatermark > 0 && free.size() < _p.lowWatermark) {
            std::size_t before = free.size();
            refill(_p.lowWatermark - before);
            moved.refilled = free.size() - before;
        } else if (_p.highWatermark > 0 &&
                   free.size() > _p.highWatermark) {
            moved.returned = free.size() - _p.highWatermark;
            returnToOs(moved.returned);
        }
        return moved;
    }

    std::deque<Addr> free;
    std::size_t threshold = 0;
    std::uint64_t osRequests = 0;
    std::uint64_t osReturns = 0;
    std::vector<std::size_t> osRequestSizes;

  private:
    void
    rerandomize()
    {
        threshold = _rng.between(_p.minThreshold, _p.maxThreshold);
    }

    void
    refill(std::size_t at_least)
    {
        std::vector<Addr> pages =
            _os.grant(std::max(at_least, _p.refillBatch));
        ++osRequests;
        osRequestSizes.push_back(pages.size());
        free.insert(free.end(), pages.begin(), pages.end());
        rerandomize();
    }

    OsFrames &_os;
    EnclaveMemoryPool::Params _p;
    Random _rng;
};

/** Same seed, same draws: one step's rng for each pool. */
std::pair<Random, Random>
twin(Random &drv)
{
    std::uint64_t seed = drv.next();
    return {Random(seed), Random(seed)};
}

TEST(PoolDifferential, RunsHandOutExactlyWhatTheDequeDid)
{
    Random drv(0x5eed);
    for (int trial = 0; trial < 60; ++trial) {
        EnclaveMemoryPool::Params p;
        p.initialPages = drv.below(64);
        p.refillBatch = 1 + drv.below(48);
        p.minThreshold = drv.below(8);
        p.maxThreshold = p.minThreshold + drv.below(16);
        if (drv.chance(0.5)) {
            p.lowWatermark = 1 + drv.below(32);
            p.highWatermark = p.lowWatermark + drv.below(96);
        }
        // Half the trials run against an OS that runs dry.
        const Addr end = drv.chance(0.5) ? kFirstPpn + 128 + drv.below(256)
                                         : ~Addr(0);
        OsFrames os_a{kFirstPpn, end}, os_b{kFirstPpn, end};
        const std::uint64_t seed = drv.next();
        EnclaveMemoryPool pool(os_a, p, seed);
        DequePool ref(os_b, p, seed);
        std::vector<Addr> held;

        for (int step = 0; step < 2000; ++step) {
            SCOPED_TRACE(::testing::Message()
                         << "trial " << trial << " step " << step);
            switch (drv.below(6)) {
              case 0:
              case 1: {
                std::size_t n = drv.below(24);
                std::vector<Addr> got = pool.allocate(n);
                ASSERT_EQ(got, ref.allocate(n));
                held.insert(held.end(), got.begin(), got.end());
                break;
              }
              case 2:
              case 3: {
                // A run from anywhere in what the caller holds.
                std::size_t n = drv.below(std::min<std::size_t>(
                                    held.size(), 32) + 1);
                std::size_t at = drv.below(held.size() - n + 1);
                auto first = held.begin() + static_cast<std::ptrdiff_t>(at);
                auto last = first + static_cast<std::ptrdiff_t>(n);
                std::vector<Addr> run(first, last);
                held.erase(first, last);
                pool.release(run);
                ref.release(run);
                break;
              }
              case 4: {
                auto [rng_a, rng_b] = twin(drv);
                std::size_t requested = 1 + drv.below(8);
                std::size_t slack = drv.below(4);
                std::vector<Addr> got =
                    pool.randomTake(requested, slack, rng_a);
                ASSERT_EQ(got, ref.randomTake(requested, slack, rng_b));
                held.insert(held.end(), got.begin(), got.end());
                break;
              }
              default:
                if (drv.chance(0.5)) {
                    std::size_t n = drv.below(24);
                    pool.returnToOs(n);
                    ref.returnToOs(n);
                } else {
                    EnclaveMemoryPool::Rebalance a = pool.rebalance();
                    EnclaveMemoryPool::Rebalance b = ref.rebalance();
                    ASSERT_EQ(a.refilled, b.refilled);
                    ASSERT_EQ(a.returned, b.returned);
                }
                break;
            }
            ASSERT_EQ(pool.freePages(), ref.free.size());
            ASSERT_EQ(pool.threshold(), ref.threshold);
            ASSERT_EQ(pool.osRequests(), ref.osRequests);
            ASSERT_EQ(pool.osReturns(), ref.osReturns);
            ASSERT_EQ(pool.osRequestSizes(), ref.osRequestSizes);
        }
        // The whole free list, in order: a random draw of every page.
        auto [rng_a, rng_b] = twin(drv);
        std::size_t all = ref.free.size();
        EXPECT_EQ(pool.randomTake(all, 0, rng_a),
                  ref.randomTake(all, 0, rng_b))
            << "trial " << trial;
        EXPECT_EQ(os_a.grant(64), os_b.grant(64)) << "trial " << trial;
    }
}

} // namespace
} // namespace hypertee
