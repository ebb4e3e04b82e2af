/** @file Field arithmetic properties for GF(2^255 - 19). */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "crypto/fe25519.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

Fe
randomFe(Random &rng)
{
    std::uint8_t bytes[32];
    for (auto &b : bytes)
        b = static_cast<std::uint8_t>(rng.next());
    return feFromBytes(bytes);
}

std::string
feHex(const Fe &f)
{
    std::uint8_t b[32];
    feToBytes(b, f);
    std::string out;
    for (int i = 0; i < 32; ++i) {
        char buf[3];
        std::snprintf(buf, sizeof(buf), "%02x", b[i]);
        out += buf;
    }
    return out;
}

TEST(Fe25519, AdditiveIdentity)
{
    Random rng(1);
    for (int i = 0; i < 16; ++i) {
        Fe a = randomFe(rng);
        EXPECT_TRUE(feEqual(feAdd(a, feZero()), a));
        EXPECT_TRUE(feEqual(feSub(a, a), feZero()));
    }
}

TEST(Fe25519, MultiplicativeIdentityAndInverse)
{
    Random rng(2);
    for (int i = 0; i < 8; ++i) {
        Fe a = randomFe(rng);
        EXPECT_TRUE(feEqual(feMul(a, feOne()), a));
        if (!feIsZero(a)) {
            EXPECT_TRUE(feEqual(feMul(a, feInvert(a)), feOne()))
                << feHex(a);
        }
    }
}

TEST(Fe25519, CommutativityAndAssociativity)
{
    Random rng(3);
    for (int i = 0; i < 8; ++i) {
        Fe a = randomFe(rng), b = randomFe(rng), c = randomFe(rng);
        EXPECT_TRUE(feEqual(feMul(a, b), feMul(b, a)));
        EXPECT_TRUE(feEqual(feAdd(a, b), feAdd(b, a)));
        EXPECT_TRUE(
            feEqual(feMul(feMul(a, b), c), feMul(a, feMul(b, c))));
    }
}

TEST(Fe25519, Distributivity)
{
    Random rng(4);
    for (int i = 0; i < 8; ++i) {
        Fe a = randomFe(rng), b = randomFe(rng), c = randomFe(rng);
        EXPECT_TRUE(feEqual(feMul(a, feAdd(b, c)),
                            feAdd(feMul(a, b), feMul(a, c))));
    }
}

/** Reference a^e, e as 32 big-endian bytes: square-and-multiply. */
Fe
naivePow(const Fe &a, const std::uint8_t exp_be[32])
{
    Fe result = feOne();
    for (int byte = 0; byte < 32; ++byte) {
        for (int bit = 7; bit >= 0; --bit) {
            result = feMul(result, result);
            if ((exp_be[byte] >> bit) & 1)
                result = feMul(result, a);
        }
    }
    return result;
}

/** 0x(hi)ff...ff(lo) as 32 big-endian bytes. */
void
allOnesExp(std::uint8_t e[32], std::uint8_t hi, std::uint8_t lo)
{
    std::memset(e, 0xff, 32);
    e[0] = hi;
    e[31] = lo;
}

constexpr std::uint64_t kMask51 = (std::uint64_t(1) << 51) - 1;

/**
 * Random elements plus unreduced ones: limbs at the largest values
 * feAdd/feSub leave (limb 0 carries the folded 19 * carry), and
 * every limb at 2^52 - 1, past anything the arithmetic produces.
 */
std::vector<Fe>
sampleFes(std::uint64_t seed, int n)
{
    Random rng(seed);
    std::vector<Fe> out;
    for (int i = 0; i < n; ++i)
        out.push_back(randomFe(rng));
    out.push_back({kMask51 + 19 * 7, kMask51, kMask51, kMask51, kMask51});
    out.push_back({kMask51, kMask51, kMask51, kMask51, kMask51});
    const std::uint64_t big = (std::uint64_t(1) << 52) - 1;
    out.push_back({big, big, big, big, big});
    out.push_back(feAdd({kMask51, kMask51, kMask51, kMask51, kMask51},
                        {kMask51, kMask51, kMask51, kMask51, kMask51}));
    out.push_back(feSub(feZero(), feOne()));
    out.push_back(feZero());
    out.push_back(feOne());
    return out;
}

TEST(Fe25519, SquareMatchesSelfMultiply)
{
    for (const Fe &a : sampleFes(5, 64)) {
        EXPECT_TRUE(feEqual(feSq(a), feMul(a, a))) << feHex(a);
        // Squaring an unreduced output again keeps agreeing.
        Fe s = feSq(a);
        EXPECT_TRUE(feEqual(feSq(s), feMul(s, s))) << feHex(a);
    }
}

TEST(Fe25519, InvertChainMatchesNaivePower)
{
    std::uint8_t e[32];
    allOnesExp(e, 0x7f, 0xeb); // p - 2
    for (const Fe &a : sampleFes(10, 8))
        EXPECT_TRUE(feEqual(feInvert(a), naivePow(a, e))) << feHex(a);
    EXPECT_TRUE(feIsZero(feInvert(feZero())));
}

TEST(Fe25519, Pow2523ChainMatchesNaivePower)
{
    std::uint8_t e[32];
    allOnesExp(e, 0x0f, 0xfd); // (p - 5) / 8
    for (const Fe &a : sampleFes(11, 8))
        EXPECT_TRUE(feEqual(fePow2523(a), naivePow(a, e))) << feHex(a);
}

TEST(Fe25519, SqrtMinusOneSquaresToMinusOne)
{
    Fe i = feSqrtM1();
    Fe minus_one = feNeg(feOne());
    EXPECT_TRUE(feEqual(feSq(i), minus_one));

    std::uint8_t e[32];
    allOnesExp(e, 0x1f, 0xfb); // (p - 1) / 4
    EXPECT_TRUE(feEqual(i, naivePow(feFromUint(2), e)));
}

TEST(Fe25519, CmovMovesExactlyWhenAsked)
{
    Random rng(12);
    Fe a = randomFe(rng), b = randomFe(rng);
    Fe a0 = a;
    feCmov(a, b, false);
    EXPECT_TRUE(feEqual(a, a0));
    feCmov(a, b, true);
    EXPECT_TRUE(feEqual(a, b));
}

TEST(Fe25519, BytesRoundTripCanonical)
{
    Random rng(6);
    for (int i = 0; i < 16; ++i) {
        Fe a = randomFe(rng);
        std::uint8_t b1[32], b2[32];
        feToBytes(b1, a);
        Fe back = feFromBytes(b1);
        feToBytes(b2, back);
        EXPECT_EQ(std::memcmp(b1, b2, 32), 0);
    }
}

TEST(Fe25519, NonCanonicalInputsReduce)
{
    // p and p+1 must load as 0 and 1 respectively.
    std::uint8_t p_bytes[32];
    std::memset(p_bytes, 0xff, 32);
    p_bytes[0] = 0xed;
    p_bytes[31] = 0x7f;
    EXPECT_TRUE(feIsZero(feFromBytes(p_bytes)));

    p_bytes[0] = 0xee; // p + 1
    EXPECT_TRUE(feEqual(feFromBytes(p_bytes), feOne()));
}

TEST(Fe25519, TopBitOfEncodingIgnored)
{
    std::uint8_t a[32] = {5};
    std::uint8_t b[32] = {5};
    b[31] = 0x80;
    EXPECT_TRUE(feEqual(feFromBytes(a), feFromBytes(b)));
}

TEST(Fe25519, NegationIsInvolution)
{
    Random rng(7);
    for (int i = 0; i < 8; ++i) {
        Fe a = randomFe(rng);
        EXPECT_TRUE(feEqual(feNeg(feNeg(a)), a));
        EXPECT_TRUE(feEqual(feAdd(a, feNeg(a)), feZero()));
    }
}

TEST(Fe25519, CswapSwapsExactlyWhenAsked)
{
    Random rng(8);
    Fe a = randomFe(rng), b = randomFe(rng);
    Fe a0 = a, b0 = b;
    feCswap(a, b, false);
    EXPECT_TRUE(feEqual(a, a0));
    EXPECT_TRUE(feEqual(b, b0));
    feCswap(a, b, true);
    EXPECT_TRUE(feEqual(a, b0));
    EXPECT_TRUE(feEqual(b, a0));
}

TEST(Fe25519, MulSmallMatchesMul)
{
    Random rng(9);
    Fe a = randomFe(rng);
    EXPECT_TRUE(
        feEqual(feMulSmall(a, 121665), feMul(a, feFromUint(121665))));
}

TEST(Fe25519, SignBitMatchesParity)
{
    EXPECT_FALSE(feIsNegative(feFromUint(4)));
    EXPECT_TRUE(feIsNegative(feFromUint(5)));
}

} // namespace
} // namespace hypertee
