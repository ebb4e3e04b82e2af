/** @file SHA-256 known-answer and streaming tests (FIPS 180-4). */

#include <gtest/gtest.h>

#include <string>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "crypto/bytes.hh"
#include "crypto/sha256.hh"
#include "crypto/sha256_kernels.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

std::string
hashHex(const std::string &msg)
{
    return toHex(Sha256::digest(bytesFromString(msg)));
}

TEST(Sha256, EmptyMessage)
{
    EXPECT_EQ(hashHex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(hashHex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(hashHex("abcdbcdecdefdefgefghfghighijhijk"
                      "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 h;
    Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    auto d = h.finish();
    EXPECT_EQ(toHex(d.data(), d.size()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot)
{
    Bytes msg = bytesFromString("The quick brown fox jumps over the lazy "
                                "dog and keeps going for a while longer");
    Bytes one_shot = Sha256::digest(msg);

    // Feed in awkward chunk sizes that straddle block boundaries.
    for (std::size_t chunk : {1u, 3u, 17u, 63u, 64u, 65u}) {
        Sha256 h;
        std::size_t off = 0;
        while (off < msg.size()) {
            std::size_t n = std::min(chunk, msg.size() - off);
            h.update(msg.data() + off, n);
            off += n;
        }
        auto d = h.finish();
        EXPECT_EQ(Bytes(d.begin(), d.end()), one_shot)
            << "chunk size " << chunk;
    }
}

TEST(Sha256, DistinctMessagesDistinctDigests)
{
    EXPECT_NE(hashHex("message-a"), hashHex("message-b"));
    // A trailing NUL byte must change the digest.
    Bytes with_nul = {'a', '\0'};
    EXPECT_NE(hashHex("a"), toHex(Sha256::digest(with_nul)));
}

TEST(Sha256, LengthPaddingBoundaries)
{
    // Messages of 55, 56, 63, 64 bytes exercise each padding path.
    for (std::size_t n : {55u, 56u, 63u, 64u, 119u, 120u}) {
        Bytes a(n, 'x'), b(n, 'x');
        b[n - 1] = 'y';
        EXPECT_NE(toHex(Sha256::digest(a)), toHex(Sha256::digest(b)));
        EXPECT_EQ(toHex(Sha256::digest(a)), toHex(Sha256::digest(a)));
    }
}

// ---- the compression kernels (sha256_kernels.hh) ----------------------

using CompressFn = void (*)(std::uint32_t *, const std::uint8_t *,
                            std::size_t);

/** FIPS 180-4 padding and one kernel call per padded message, so each
 *  kernel is checked on its own, outside Sha256's streaming logic. */
Bytes
digestWith(CompressFn compress, const Bytes &msg)
{
    Bytes padded = msg;
    padded.push_back(0x80);
    while (padded.size() % Sha256::blockSize != Sha256::blockSize - 8)
        padded.push_back(0);
    const std::uint64_t bits = std::uint64_t(msg.size()) * 8;
    for (int i = 7; i >= 0; --i)
        padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));

    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                              0xa54ff53a, 0x510e527f, 0x9b05688c,
                              0x1f83d9ab, 0x5be0cd19};
    compress(state, padded.data(), padded.size() / Sha256::blockSize);
    Bytes out;
    for (std::uint32_t word : state)
        for (int shift = 24; shift >= 0; shift -= 8)
            out.push_back(static_cast<std::uint8_t>(word >> shift));
    return out;
}

/** Whether this CPU reports SHA (leaf 7 EBX bit 29), SSSE3 (leaf 1 ECX
 *  bit 9) and SSE4.1 (leaf 1 ECX bit 19), read independently of the
 *  library's own detection. */
bool
cpuReportsShaNi()
{
#if defined(__x86_64__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_max(0, nullptr) < 7 || !__get_cpuid(1, &a, &b, &c, &d))
        return false;
    const unsigned leaf1_ecx = c;
    __cpuid_count(7, 0, a, b, c, d);
    return (b & (1u << 29)) != 0 && (leaf1_ecx & (1u << 9)) != 0 &&
           (leaf1_ecx & (1u << 19)) != 0;
#else
    return false;
#endif
}

class Sha256KernelTest : public ::testing::TestWithParam<Sha256Kernel>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == Sha256Kernel::ShaNi && !cpuReportsShaNi())
            GTEST_SKIP() << "host CPU lacks SHA-NI (or is not x86-64); "
                            "only the scalar kernel can run here";
    }

    static CompressFn
    kernel()
    {
#if defined(__x86_64__)
        if (GetParam() == Sha256Kernel::ShaNi)
            return &sha256CompressShaNi;
#endif
        return &sha256CompressScalar;
    }
};

TEST_P(Sha256KernelTest, FipsVectors)
{
    const CompressFn fn = kernel();
    EXPECT_EQ(toHex(digestWith(fn, {})),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(toHex(digestWith(fn, bytesFromString("abc"))),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(toHex(digestWith(fn, bytesFromString(
                  "abcdbcdecdefdefgefghfghighijhijk"
                  "ijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(toHex(digestWith(fn, Bytes(1000000, 'a'))),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, MatchesScalarOnRandomMessagesAtEverySplit)
{
    // Each message is hashed by this kernel in one call, and by Sha256
    // (the dispatched kernel, bulk update, in-place padding) fed in two
    // pieces at every split point; all must equal the scalar digest.
    Random rng(1);
    for (std::size_t len = 0; len <= 300; ++len) {
        Bytes msg(len);
        for (auto &byte : msg)
            byte = static_cast<std::uint8_t>(rng.next());
        const Bytes want = digestWith(&sha256CompressScalar, msg);
        ASSERT_EQ(digestWith(kernel(), msg), want) << "length " << len;
        for (std::size_t split = 0; split <= len; ++split) {
            Sha256 h;
            h.update(msg.data(), split);
            h.update(msg.data() + split, len - split);
            const auto d = h.finish();
            ASSERT_EQ(Bytes(d.begin(), d.end()), want)
                << "length " << len << ", split " << split;
        }
    }
}

TEST_P(Sha256KernelTest, EaddShapedStreamMatchesScalar)
{
    // EADD measures 4096-byte pages each followed by a 16-byte
    // metadata record, so after the first page Sha256's buffer is
    // never empty when a page arrives.
    Random rng(2);
    Bytes stream;
    Sha256 h;
    for (int page = 0; page < 16; ++page) {
        Bytes chunk(4096 + 16);
        for (auto &byte : chunk)
            byte = static_cast<std::uint8_t>(rng.next());
        h.update(chunk.data(), 4096);
        h.update(chunk.data() + 4096, 16);
        stream.insert(stream.end(), chunk.begin(), chunk.end());
    }
    const auto d = h.finish();
    const Bytes want = digestWith(&sha256CompressScalar, stream);
    EXPECT_EQ(Bytes(d.begin(), d.end()), want);
    EXPECT_EQ(digestWith(kernel(), stream), want);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256KernelTest,
    ::testing::Values(Sha256Kernel::Scalar, Sha256Kernel::ShaNi),
    [](const ::testing::TestParamInfo<Sha256Kernel> &kernel_info) {
        return std::string(sha256KernelName(kernel_info.param));
    });

TEST(Sha256Dispatch, PicksShaNiExactlyWhenCpuidReportsIt)
{
    EXPECT_EQ(sha256ActiveKernel(), cpuReportsShaNi()
                                        ? Sha256Kernel::ShaNi
                                        : Sha256Kernel::Scalar)
        << "active kernel: " << sha256KernelName(sha256ActiveKernel());
}

} // namespace
} // namespace hypertee
