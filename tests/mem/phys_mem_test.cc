/** @file Unit tests for the sparse physical memory. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mem/phys_mem.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

constexpr Addr kBase = 0x8000'0000;
constexpr Addr kSize = 64 * 1024 * 1024;

TEST(PhysicalMemory, ReadsBackWrites)
{
    PhysicalMemory mem(kBase, kSize);
    Bytes data = {1, 2, 3, 4, 5};
    mem.writeBytes(kBase + 100, data);
    EXPECT_EQ(mem.readBytes(kBase + 100, 5), data);
}

TEST(PhysicalMemory, UntouchedMemoryReadsZero)
{
    PhysicalMemory mem(kBase, kSize);
    Bytes z = mem.readBytes(kBase + 12345, 16);
    for (auto b : z)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.touchedPages(), 0u);
}

TEST(PhysicalMemory, CrossPageAccess)
{
    PhysicalMemory mem(kBase, kSize);
    Bytes data(3 * pageSize, 0);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i % 251);
    Addr addr = kBase + pageSize - 7; // straddles two boundaries
    mem.writeBytes(addr, data);
    EXPECT_EQ(mem.readBytes(addr, data.size()), data);
    EXPECT_EQ(mem.touchedPages(), 4u);
}

TEST(PhysicalMemory, Read64Write64LittleEndian)
{
    PhysicalMemory mem(kBase, kSize);
    mem.write64(kBase + 8, 0x0123456789abcdefULL);
    EXPECT_EQ(mem.read64(kBase + 8), 0x0123456789abcdefULL);
    // Byte order: little endian like RISC-V.
    Bytes b = mem.readBytes(kBase + 8, 8);
    EXPECT_EQ(b[0], 0xef);
    EXPECT_EQ(b[7], 0x01);
}

TEST(PhysicalMemory, Read8Write8MatchTheByteInterface)
{
    PhysicalMemory mem(kBase, kSize);
    EXPECT_EQ(mem.read8(kBase + 5), 0);
    EXPECT_EQ(mem.touchedPages(), 0u); // reading does not materialize
    mem.write8(kBase + pageSize - 1, 0xa5);
    mem.write8(kBase + pageSize, 0x5a);
    EXPECT_EQ(mem.readBytes(kBase + pageSize - 1, 2), Bytes({0xa5, 0x5a}));
    mem.writeBytes(kBase + 77, {0x42});
    EXPECT_EQ(mem.read8(kBase + 77), 0x42);
}

TEST(PhysicalMemory, ZeroScrubsData)
{
    PhysicalMemory mem(kBase, kSize);
    mem.writeBytes(kBase + 500, Bytes(100, 0xaa));
    mem.zero(kBase + 500, 100);
    Bytes z = mem.readBytes(kBase + 500, 100);
    for (auto b : z)
        EXPECT_EQ(b, 0);
}

TEST(PhysicalMemory, ZeroFullPageReleasesBacking)
{
    PhysicalMemory mem(kBase, kSize);
    mem.writeBytes(kBase + 2 * pageSize, Bytes(pageSize, 0xbb));
    EXPECT_EQ(mem.touchedPages(), 1u);
    mem.zero(kBase + 2 * pageSize, pageSize);
    EXPECT_EQ(mem.touchedPages(), 0u);
}

TEST(PhysicalMemory, ContainsRange)
{
    PhysicalMemory mem(kBase, kSize);
    EXPECT_TRUE(mem.containsRange(kBase, kSize));
    EXPECT_TRUE(mem.containsRange(kBase + kSize - 1, 1));
    EXPECT_FALSE(mem.containsRange(kBase + kSize - 1, 2));
    EXPECT_FALSE(mem.containsRange(kBase - 1, 1));
}

TEST(PhysicalMemory, OverlapsRange)
{
    PhysicalMemory mem(kBase, kSize);
    // Fully inside / covering.
    EXPECT_TRUE(mem.overlapsRange(kBase, kSize));
    EXPECT_TRUE(mem.overlapsRange(kBase + 100, 1));
    // Partial overlaps at either edge.
    EXPECT_TRUE(mem.overlapsRange(kBase - 16, 32));
    EXPECT_TRUE(mem.overlapsRange(kBase + kSize - 16, 32));
    // Straddling the whole region.
    EXPECT_TRUE(mem.overlapsRange(kBase - 16, kSize + 32));
    // Adjacent but disjoint.
    EXPECT_FALSE(mem.overlapsRange(kBase - 16, 16));
    EXPECT_FALSE(mem.overlapsRange(kBase + kSize, 16));
    // Empty ranges never overlap.
    EXPECT_FALSE(mem.overlapsRange(kBase, 0));
    // Address arithmetic that wraps Addr clamps to the top instead
    // of wrapping back below the region.
    EXPECT_TRUE(mem.overlapsRange(kBase + 1, ~Addr(0)));
    EXPECT_FALSE(mem.overlapsRange(~Addr(0) - 8, 64));
}

/**
 * Byte model of PhysicalMemory: the bytes written (absent reads as
 * zero) and the pages materialized. A write of any kind and a
 * partial-page zero materialize every page they touch; a whole-page
 * zero drops the page; reads never materialize.
 */
struct ByteModel
{
    std::map<Addr, std::uint8_t> bytes;
    std::set<Addr> pages;

    void
    store(Addr addr, std::uint8_t value)
    {
        pages.insert(pageAlign(addr));
        bytes[addr] = value;
    }

    void
    zero(Addr addr, Addr len)
    {
        bytes.erase(bytes.lower_bound(addr), bytes.lower_bound(addr + len));
        for (Addr page = pageAlign(addr); page < addr + len;
             page += pageSize) {
            if (page >= addr && page + pageSize <= addr + len)
                pages.erase(page);
            else
                pages.insert(page);
        }
    }

    std::uint8_t
    load(Addr addr) const
    {
        auto it = bytes.find(addr);
        return it == bytes.end() ? 0 : it->second;
    }
};

TEST(PhysicalMemory, MatchesAByteModelAcrossRegions)
{
    // Backing pages are indexed by 2 MiB region counted from the base.
    // This base is not 2 MiB aligned and the size is not a multiple of
    // 2 MiB, so region boundaries fall mid-way through the physical
    // 2 MiB frames and the last region is partial.
    constexpr Addr region = Addr(2) << 20;
    constexpr Addr base = 0x8000'0000 + 5 * pageSize;
    constexpr Addr size = 3 * region + 7 * pageSize;
    const Addr anchors[] = {base, base + region, base + 2 * region,
                            base + 3 * region, base + size};

    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Random rng(seed);
        PhysicalMemory mem(base, size);
        ByteModel model;
        // An address within a few pages of a region boundary, and a
        // length that keeps [addr, addr+len) inside the memory.
        auto pick = [&](Addr max_len, Addr &addr, Addr &len) {
            const Addr anchor = anchors[rng.below(std::size(anchors))];
            const Addr lo = std::max(base, anchor - 3 * pageSize);
            const Addr hi = std::min(base + size, anchor + 3 * pageSize);
            addr = lo + rng.below(hi - lo);
            len = 1 + rng.below(std::min(max_len, base + size - addr));
        };
        auto expect_range = [&](Addr addr, Addr len) {
            Bytes got = mem.readBytes(addr, len);
            for (Addr i = 0; i < len; ++i)
                ASSERT_EQ(got[i], model.load(addr + i)) << "at " << addr + i;
        };

        for (int step = 0; step < 600; ++step) {
            Addr addr = 0;
            Addr len = 0;
            switch (rng.below(8)) {
            case 0: { // write: a run of bytes, often across pages
                pick(3 * pageSize, addr, len);
                Bytes data(len);
                for (Addr i = 0; i < len; ++i) {
                    data[i] = static_cast<std::uint8_t>(rng.below(256));
                    model.store(addr + i, data[i]);
                }
                mem.writeBytes(addr, data);
                break;
            }
            case 1: { // write64, sometimes spanning a page
                pick(8, addr, len);
                addr = std::min(addr, base + size - 8);
                const std::uint64_t v = rng.next();
                mem.write64(addr, v);
                for (Addr i = 0; i < 8; ++i)
                    model.store(addr + i,
                                static_cast<std::uint8_t>(v >> (8 * i)));
                break;
            }
            case 2: { // write8
                pick(1, addr, len);
                const auto v = static_cast<std::uint8_t>(rng.below(256));
                mem.write8(addr, v);
                model.store(addr, v);
                break;
            }
            case 3: // zero: partial pages
                pick(2 * pageSize, addr, len);
                mem.zero(addr, len);
                model.zero(addr, len);
                break;
            case 4: { // zero: whole pages, up to a region and a half
                pick(pageSize, addr, len);
                addr = pageAlign(addr);
                len = std::min<Addr>((1 + rng.below(768)) * pageSize,
                                     base + size - addr);
                mem.zero(addr, len);
                model.zero(addr, len);
                break;
            }
            case 5: // read
                pick(3 * pageSize, addr, len);
                expect_range(addr, len);
                break;
            case 6: { // read64
                pick(8, addr, len);
                addr = std::min(addr, base + size - 8);
                std::uint64_t want = 0;
                for (int i = 7; i >= 0; --i)
                    want = (want << 8) | model.load(addr + Addr(i));
                ASSERT_EQ(mem.read64(addr), want) << "at " << addr;
                break;
            }
            default: // read8
                pick(1, addr, len);
                ASSERT_EQ(mem.read8(addr), model.load(addr))
                    << "at " << addr;
                break;
            }
            ASSERT_EQ(mem.touchedPages(), model.pages.size())
                << "step " << step;
            if (testing::Test::HasFatalFailure())
                return;
        }

        // Empty the second region completely, check it reads as zero,
        // then touch it again.
        const Addr second = base + region;
        mem.write8(second + 17, 0x11);
        model.store(second + 17, 0x11);
        mem.zero(second, region);
        model.zero(second, region);
        ASSERT_EQ(mem.touchedPages(), model.pages.size());
        expect_range(second - pageSize, region + 2 * pageSize);
        mem.write64(second + region - 4, 0x0102030405060708ULL);
        for (Addr i = 0; i < 8; ++i)
            model.store(second + region - 4 + i,
                        static_cast<std::uint8_t>(8 - i));
        ASSERT_EQ(mem.touchedPages(), model.pages.size());
        expect_range(second - pageSize, region + 2 * pageSize);

        // Everything scrubbed leaves nothing materialized.
        mem.zero(base, size);
        EXPECT_EQ(mem.touchedPages(), 0u);
        EXPECT_EQ(mem.read64(base + size - 8), 0u);
    }
}

TEST(PhysicalMemoryDeath, OutOfRangeAccessPanics)
{
    PhysicalMemory mem(kBase, kSize);
    std::uint8_t byte = 0;
    EXPECT_DEATH(mem.write(kBase + kSize, &byte, 1), "out of range");
    EXPECT_DEATH(mem.read(kBase - 1, &byte, 1), "out of range");
    EXPECT_DEATH(mem.write8(kBase + kSize, 1), "out of range");
    EXPECT_DEATH(mem.read8(kBase - 1), "out of range");
    EXPECT_DEATH(mem.zero(kBase + kSize - pageSize, 2 * pageSize),
                 "zero out of range: 2214588416\\+8192");
}

TEST(PhysicalMemoryDeath, MisalignedConstructionIsFatal)
{
    EXPECT_DEATH(
        {
            PhysicalMemory m(kBase + 1, kSize);
            (void)m;
        },
        "aligned");
}

} // namespace
} // namespace hypertee
