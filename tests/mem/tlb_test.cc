/** @file Unit tests for the TLB model. */

#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <vector>

#include "mem/page_table.hh"
#include "mem/tlb.hh"

namespace hypertee
{
namespace
{

TEST(Tlb, MissThenHit)
{
    Tlb tlb(32, 4);
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, true);
    const TlbEntry *e = tlb.lookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppn, pageNumber(0x8000'1000));
    EXPECT_TRUE(e->bitmapChecked);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, OffsetWithinPageStillHits)
{
    Tlb tlb(32, 4);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, false);
    EXPECT_NE(tlb.lookup(0x1abc), nullptr);
    EXPECT_EQ(tlb.lookup(0x2000), nullptr);
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb(4, 4); // one set, 4 ways
    for (Addr i = 0; i < 4; ++i)
        tlb.insert(i * 0x1000, 0x8000'0000 + i * 0x1000, PteRead, 0,
                   false);
    // Touch entries 1..3 so entry 0 becomes LRU.
    for (Addr i = 1; i < 4; ++i)
        EXPECT_NE(tlb.lookup(i * 0x1000), nullptr);
    tlb.insert(0x9000, 0x8000'9000, PteRead, 0, false);
    EXPECT_EQ(tlb.lookup(0x0000), nullptr) << "LRU entry evicted";
    EXPECT_NE(tlb.lookup(0x9000), nullptr);
}

TEST(Tlb, FlushAllEmptiesEverything)
{
    Tlb tlb(16, 4);
    for (Addr i = 0; i < 8; ++i)
        tlb.insert(i * 0x1000, 0x8000'0000 + i * 0x1000, PteRead, 0,
                   false);
    tlb.flushAll();
    for (Addr i = 0; i < 8; ++i)
        EXPECT_EQ(tlb.lookup(i * 0x1000), nullptr);
    EXPECT_EQ(tlb.flushes(), 1u);
}

TEST(Tlb, FlushPageIsTargeted)
{
    Tlb tlb(16, 4);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, false);
    tlb.insert(0x2000, 0x8000'2000, PteRead, 0, false);
    tlb.flushPage(0x1000);
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
    EXPECT_NE(tlb.lookup(0x2000), nullptr);
    EXPECT_EQ(tlb.flushes(), 1u);
    EXPECT_EQ(tlb.flushRequests(), 1u);
    EXPECT_EQ(tlb.invalidations(), 1u);
}

TEST(Tlb, FlushPageMissIsNotCountedAsFlush)
{
    // Regression: a flushPage that matches no entry used to bump
    // flushes(), inflating the Figure 11 flush attribution. It is
    // now only a flush *request*.
    Tlb tlb(16, 4);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, false);
    tlb.flushPage(0x5000);
    EXPECT_EQ(tlb.flushes(), 0u);
    EXPECT_EQ(tlb.flushRequests(), 1u);
    EXPECT_EQ(tlb.invalidations(), 0u);
    EXPECT_NE(tlb.lookup(0x1000), nullptr) << "entry untouched";

    // A second no-op flush of the same page still counts a request.
    tlb.flushPage(0x5000);
    EXPECT_EQ(tlb.flushRequests(), 2u);
    EXPECT_EQ(tlb.flushes(), 0u);
}

TEST(Tlb, FlushAllCountsInvalidatedEntries)
{
    Tlb tlb(16, 4);
    for (Addr i = 0; i < 5; ++i)
        tlb.insert(i * 0x1000, 0x8000'0000 + i * 0x1000, PteRead, 0,
                   false);
    tlb.flushAll();
    EXPECT_EQ(tlb.flushes(), 1u);
    EXPECT_EQ(tlb.flushRequests(), 1u);
    EXPECT_EQ(tlb.invalidations(), 5u);

    // flushAll of an empty TLB is still one hardware flash-invalidate
    // (a counted flush), though it kills nothing and costs the host
    // nothing.
    tlb.flushAll();
    EXPECT_EQ(tlb.flushes(), 2u);
    EXPECT_EQ(tlb.flushRequests(), 2u);
    EXPECT_EQ(tlb.invalidations(), 5u);
}

TEST(Tlb, ReinsertUpdatesExistingEntry)
{
    Tlb tlb(16, 4);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 3, false);
    tlb.insert(0x1000, 0x8000'5000, PteRead | PteWrite, 4, true);
    const TlbEntry *e = tlb.lookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppn, pageNumber(0x8000'5000));
    EXPECT_EQ(e->keyId, 4);
    EXPECT_TRUE(e->bitmapChecked);
}

TEST(Tlb, MissRateAccounting)
{
    Tlb tlb(16, 4);
    tlb.lookup(0x1000);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, false);
    tlb.lookup(0x1000);
    tlb.lookup(0x1000);
    tlb.lookup(0x1000);
    EXPECT_DOUBLE_EQ(tlb.missRate(), 0.25);
}

/**
 * Naive reference TLB: one flat entry vector with its own valid flag
 * per entry, linear set scans, and the victim rule spelled out as a
 * loop (first invalid way, else the first way with the lowest LRU
 * stamp). The real Tlb must be indistinguishable from it.
 */
class ReferenceTlb
{
  public:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        Addr ppn = 0;
        std::uint64_t perms = 0;
        KeyId keyId = 0;
        bool bitmapChecked = false;
        std::uint64_t stamp = 0;
    };

    ReferenceTlb(std::size_t entries, std::size_t ways)
        : _sets(entries / ways), _ways(ways), _entries(entries)
    {}

    const Entry *
    lookup(Addr va)
    {
        Entry *e = find(pageNumber(va));
        if (!e) {
            ++misses;
            return nullptr;
        }
        e->stamp = ++_stamp;
        ++hits;
        return e;
    }

    void
    insert(Addr va, Addr pa, std::uint64_t perms, KeyId key_id,
           bool bitmap_checked)
    {
        Addr vpn = pageNumber(va);
        Entry *victim = find(vpn);
        if (!victim) {
            Entry *set = &_entries[(vpn % _sets) * _ways];
            victim = &set[0];
            for (std::size_t w = 0; w < _ways; ++w) {
                if (!set[w].valid) {
                    victim = &set[w];
                    break;
                }
                if (set[w].stamp < victim->stamp)
                    victim = &set[w];
            }
        }
        *victim = {true, vpn, pageNumber(pa), perms, key_id,
                   bitmap_checked, ++_stamp};
    }

    void
    flushAll()
    {
        ++flushRequests;
        for (Entry &e : _entries) {
            invalidations += e.valid ? 1 : 0;
            e.valid = false;
        }
        ++flushes;
    }

    void
    flushPage(Addr va)
    {
        ++flushRequests;
        Entry *e = find(pageNumber(va));
        if (!e)
            return;
        e->valid = false;
        ++invalidations;
        ++flushes;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0;
    std::uint64_t flushRequests = 0;
    std::uint64_t invalidations = 0;

  private:
    Entry *
    find(Addr vpn)
    {
        Entry *set = &_entries[(vpn % _sets) * _ways];
        for (std::size_t w = 0; w < _ways; ++w) {
            if (set[w].valid && set[w].vpn == vpn)
                return &set[w];
        }
        return nullptr;
    }

    std::size_t _sets;
    std::size_t _ways;
    std::vector<Entry> _entries;
    std::uint64_t _stamp = 0;
};

struct TlbGeometry
{
    const char *name;
    std::size_t entries;
    std::size_t ways;
};

// Printed into the test names; the default byte dump would include the
// name pointer, whose value changes from run to run under ASLR.
void
PrintTo(const TlbGeometry &g, std::ostream *os)
{
    *os << '{' << g.entries << ", " << g.ways << '}';
}

class TlbDifferential : public ::testing::TestWithParam<TlbGeometry>
{};

/**
 * Seeded random insert/lookup/flushPage/flushAll sequences against
 * the reference model, checked after every step: identical lookup
 * results (translation, LRU stamp) and identical counters. Each
 * flushAll's invalidation count checks the TLB's live-entry count.
 * VPNs are drawn from a pool twice the TLB's capacity, so sets fill,
 * evict and re-hit; flushAll is rare enough that full flushes mostly
 * find a well-populated TLB, and back-to-back ones cover the empty
 * case.
 */
TEST_P(TlbDifferential, MatchesReferenceModel)
{
    const TlbGeometry g = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Tlb tlb(g.entries, g.ways);
        ReferenceTlb ref(g.entries, g.ways);
        std::mt19937_64 rng(seed);
        auto below = [&](std::uint64_t n) { return rng() % n; };
        const std::uint64_t vpns = 2 * g.entries;
        const std::uint64_t flush_all_one_in = 4 * g.entries;

        for (int step = 0; step < 20'000; ++step) {
            Addr va = (Addr(0x40) + below(vpns)) << pageShift |
                      below(pageSize);
            std::uint64_t op = below(100);
            if (below(flush_all_one_in) == 0) {
                tlb.flushAll();
                ref.flushAll();
            } else if (op < 55) {
                const TlbEntry *got = tlb.lookup(va);
                const ReferenceTlb::Entry *want = ref.lookup(va);
                ASSERT_EQ(got != nullptr, want != nullptr)
                    << "step " << step;
                if (got) {
                    EXPECT_EQ(got->vpn, want->vpn);
                    EXPECT_EQ(got->ppn, want->ppn);
                    EXPECT_EQ(got->perms, want->perms);
                    EXPECT_EQ(got->keyId, want->keyId);
                    EXPECT_EQ(got->bitmapChecked, want->bitmapChecked);
                    ASSERT_EQ(got->lruStamp, want->stamp)
                        << "step " << step;
                }
            } else if (op < 90) {
                Addr pa = (Addr(0x8'0000) + below(1 << 16)) << pageShift;
                std::uint64_t perms = below(8);
                KeyId key = static_cast<KeyId>(below(4));
                bool checked = below(2) != 0;
                tlb.insert(va, pa, perms, key, checked);
                ref.insert(va, pa, perms, key, checked);
            } else {
                tlb.flushPage(va);
                ref.flushPage(va);
            }
            ASSERT_EQ(tlb.hits(), ref.hits) << "step " << step;
            ASSERT_EQ(tlb.misses(), ref.misses) << "step " << step;
            ASSERT_EQ(tlb.flushes(), ref.flushes) << "step " << step;
            ASSERT_EQ(tlb.flushRequests(), ref.flushRequests)
                << "step " << step;
            ASSERT_EQ(tlb.invalidations(), ref.invalidations)
                << "step " << step;
        }
        // Drain: an empty TLB still counts every full flush.
        tlb.flushAll();
        ref.flushAll();
        tlb.flushAll();
        ref.flushAll();
        EXPECT_EQ(tlb.flushes(), ref.flushes);
        EXPECT_EQ(tlb.invalidations(), ref.invalidations);
        EXPECT_EQ(tlb.lookup(0x40 << pageShift), nullptr);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferential,
    ::testing::Values(TlbGeometry{"Dtlb32x4", 32, 4},
                      TlbGeometry{"Stlb1024x8", 1024, 8},
                      TlbGeometry{"NonPow2Sets24x4", 24, 4},
                      TlbGeometry{"OddWays48x6", 48, 6},
                      TlbGeometry{"DirectMapped16x1", 16, 1}),
    [](const ::testing::TestParamInfo<TlbGeometry> &param_info) {
        return std::string(param_info.param.name);
    });

TEST(TlbDeath, BadGeometryIsFatal)
{
    EXPECT_DEATH(
        {
            Tlb t(10, 4);
            (void)t;
        },
        "divide");
}

} // namespace
} // namespace hypertee
