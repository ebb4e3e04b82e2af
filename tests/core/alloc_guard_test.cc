/**
 * @file
 * A primitive round trip allocates nothing once warm.
 *
 * This executable replaces the global operator new with one that
 * counts calls while a window is open, which is why it is a test
 * binary of its own. No gtest assertion runs inside a window (gtest
 * allocates to record a result): each window's count goes into a
 * fixed array, and the assertions read the array afterwards.
 *
 * Warm-up. The first round trips grow what is then reused: the leaf
 * page-table frames behind the fixed VA, the mailbox queues, the EMS
 * runtime's scratch buffers and the ownership table's parked 2 MiB
 * regions. The enclave
 * memory pool hands pages out first-in-first-out, so EALLOC at one VA
 * walks through the whole pool, and a 64-page run can straddle two
 * ownership regions, whose first claim allocates until two emptied
 * regions have been parked. warm_rounds carries the pool's head once
 * round its free ring (65 pages a round) and eight rounds beyond, so
 * every region a measured round can touch has been claimed and
 * parked before; with this pool the counts read zero from the 15th
 * round on.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/sdk.hh"
#include "core/system.hh"

namespace
{

bool counting = false;
std::size_t allocations = 0;

void *
countedMalloc(std::size_t n) noexcept
{
    if (counting)
        ++allocations;
    return std::malloc(n ? n : 1);
}

void *
countedNew(std::size_t n)
{
    if (void *p = countedMalloc(n))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every form that pairs with a replaced delete is replaced, so no
// block crosses between this malloc and a sanitizer's allocator.
void *operator new(std::size_t n) { return countedNew(n); }
void *operator new[](std::size_t n) { return countedNew(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedMalloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedMalloc(n);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace hypertee
{
namespace
{

/** Calls of operator new between open() and close(). */
class AllocationWindow
{
  public:
    void
    open()
    {
        allocations = 0;
        counting = true;
    }

    std::size_t
    close()
    {
        counting = false;
        return allocations;
    }
};

constexpr std::size_t pool_pages = 1024;
constexpr std::size_t measured_rounds = 16;
/** One pass of the pool's free ring at 65 pages per round, and then
 *  some: see the file comment. */
constexpr std::size_t warm_rounds = pool_pages / 65 + 8;

SystemParams
guardSystem()
{
    SystemParams p;
    p.csMemSize = 64ULL * 1024 * 1024;
    p.csCoreCount = 1;
    p.ems.pool.initialPages = pool_pages;
    p.ems.pool.refillBatch = 256;
    return p;
}

/** Fixed EALLOC/EFREE address, clear of the static heap. */
constexpr Addr fixed_va = EnclaveLayout::heapBase + (Addr(1) << 26);

struct AllocGuardTest : ::testing::Test
{
    HyperTeeSystem sys{guardSystem()};
    EnclaveHandle enclave{sys, 0, EnclaveConfig{}, false};

    void
    SetUp() override
    {
        ASSERT_TRUE(enclave.valid());
        ASSERT_TRUE(enclave.addImage(Bytes(2 * pageSize, 0x5a),
                                     EnclaveLayout::codeBase,
                                     PteRead | PteExec));
        ASSERT_FALSE(enclave.measure().empty());
        ASSERT_TRUE(enclave.enter());
    }

    /** One EALLOC/EFREE pair of @p pages at the fixed VA. */
    bool
    allocFree(std::size_t pages)
    {
        return enclave.allocAt(fixed_va, pages) == fixed_va &&
               enclave.free(fixed_va, pages);
    }

    bool
    warmUp()
    {
        bool ok = true;
        for (std::size_t r = 0; r < warm_rounds; ++r) {
            ok = enclave.exit() && enclave.enter() && ok;
            ok = allocFree(1) && allocFree(64) && ok;
        }
        return ok;
    }
};

TEST_F(AllocGuardTest, EnterAndExitAllocateNothing)
{
    ASSERT_TRUE(warmUp());
    std::array<std::size_t, measured_rounds> exits{}, enters{};
    std::array<bool, measured_rounds> ok{};
    AllocationWindow window;
    for (std::size_t r = 0; r < measured_rounds; ++r) {
        window.open();
        bool exited = enclave.exit();
        exits[r] = window.close();
        window.open();
        bool entered = enclave.enter();
        enters[r] = window.close();
        ok[r] = exited && entered;
    }
    for (std::size_t r = 0; r < measured_rounds; ++r) {
        EXPECT_TRUE(ok[r]) << "round " << r;
        EXPECT_EQ(exits[r], 0u) << "EEXIT, round " << r;
        EXPECT_EQ(enters[r], 0u) << "EENTER, round " << r;
    }
}

TEST_F(AllocGuardTest, AllocAndFreeAllocateNothing)
{
    ASSERT_TRUE(warmUp());
    constexpr std::array<std::size_t, 2> sizes = {1, 64};
    std::array<std::array<std::size_t, measured_rounds>, 2> allocs{},
        frees{};
    std::array<bool, measured_rounds> ok{};
    AllocationWindow window;
    for (std::size_t r = 0; r < measured_rounds; ++r) {
        ok[r] = true;
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            window.open();
            bool got = enclave.allocAt(fixed_va, sizes[s]) == fixed_va;
            allocs[s][r] = window.close();
            window.open();
            bool freed = enclave.free(fixed_va, sizes[s]);
            frees[s][r] = window.close();
            ok[r] = got && freed && ok[r];
        }
    }
    for (std::size_t r = 0; r < measured_rounds; ++r) {
        EXPECT_TRUE(ok[r]) << "round " << r;
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            EXPECT_EQ(allocs[s][r], 0u)
                << "EALLOC of " << sizes[s] << ", round " << r;
            EXPECT_EQ(frees[s][r], 0u)
                << "EFREE of " << sizes[s] << ", round " << r;
        }
    }
}

TEST(AllocGuard, WindowCountsAVectorGrowth)
{
    // The negative control: the window does see an allocation.
    std::vector<int> grown;
    AllocationWindow window;
    window.open();
    grown.push_back(1);
    const std::size_t counted = window.close();
    EXPECT_GE(counted, 1u);
    EXPECT_EQ(grown.size(), 1u);
}

} // namespace
} // namespace hypertee
