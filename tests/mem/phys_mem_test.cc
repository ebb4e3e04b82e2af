/** @file Unit tests for the sparse physical memory. */

#include <gtest/gtest.h>

#include "mem/phys_mem.hh"

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

TEST(PhysicalMemoryDeath, OutOfRangeAccessPanics)
{
    PhysicalMemory mem(kBase, kSize);
    std::uint8_t byte = 0;
    EXPECT_DEATH(mem.write(kBase + kSize, &byte, 1), "out of range");
    EXPECT_DEATH(mem.read(kBase - 1, &byte, 1), "out of range");
    EXPECT_DEATH(mem.write8(kBase + kSize, 1), "out of range");
    EXPECT_DEATH(mem.read8(kBase - 1), "out of range");
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
