/**
 * @file
 * edwards25519 group tests: the fast paths (comb, Straus, dedicated
 * doubling) against slow references, and RFC 8032 point decoding.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "crypto/bytes.hh"
#include "crypto/ge25519.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

using Scalar = std::vector<std::uint8_t>;

/** Reference scalar * p: MSB-first double-and-add with geAdd only. */
GeP3
refScalarMult(const Scalar &k, const GeP3 &p)
{
    GeP3 r = geIdentity();
    for (int bit = 255; bit >= 0; --bit) {
        r = geAdd(r, r);
        if ((k[static_cast<std::size_t>(bit / 8)] >> (bit % 8)) & 1)
            r = geAdd(r, p);
    }
    return r;
}

Scalar
randomScalar(Random &rng, std::uint8_t top_mask)
{
    Scalar k(32);
    for (auto &b : k)
        b = static_cast<std::uint8_t>(rng.next());
    k[31] &= top_mask;
    return k;
}

/** L, the prime order of B, little endian. */
Scalar
orderL()
{
    return fromHex("edd3f55c1a631258d69cf7a2def9de14"
                   "00000000000000000000000000000010");
}

std::string
enc(const GeP3 &p)
{
    std::uint8_t out[32];
    geCompress(out, p);
    return toHex(Bytes(out, out + 32));
}

/** Edge scalars below 2^255 plus seeded random ones. */
std::vector<Scalar>
combScalars()
{
    std::vector<Scalar> ks;
    ks.push_back(Scalar(32, 0));
    Scalar one(32, 0);
    one[0] = 1;
    ks.push_back(one);
    Scalar l = orderL();
    ks.push_back(l);
    Scalar l_minus_1 = l;
    l_minus_1[0] = static_cast<std::uint8_t>(l_minus_1[0] - 1);
    ks.push_back(l_minus_1);
    Scalar max(32, 0xff);
    max[31] = 0x7f; // 2^255 - 1
    ks.push_back(max);
    Scalar eights(32, 0x88); // every radix-16 digit carries
    eights[31] = 0x78;
    ks.push_back(eights);
    ks.push_back(Scalar(32, 0x77));
    Random rng(2025);
    for (int i = 0; i < 24; ++i)
        ks.push_back(randomScalar(rng, 0x7f));
    return ks;
}

TEST(Ge25519, BaseHasOrderL)
{
    EXPECT_TRUE(geEqual(refScalarMult(orderL(), geBase()), geIdentity()));
    EXPECT_FALSE(geEqual(geBase(), geIdentity()));
}

TEST(Ge25519, BaseEncodingMatchesRfc8032)
{
    EXPECT_EQ(enc(geBase()), "58666666666666666666666666666666"
                             "66666666666666666666666666666666");
}

TEST(Ge25519, DoublingMatchesUnifiedAdd)
{
    Random rng(3);
    GeP3 p = geBase();
    for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(geEqual(geDbl(p), geAdd(p, p))) << i;
        p = geScalarMultBase(randomScalar(rng, 0x7f).data());
    }
    EXPECT_TRUE(geEqual(geDbl(geIdentity()), geIdentity()));
}

TEST(Ge25519, CombMatchesVariableBase)
{
    for (const Scalar &k : combScalars()) {
        EXPECT_EQ(enc(geScalarMultBase(k.data())),
                  enc(refScalarMult(k, geBase())))
            << toHex(Bytes(k.begin(), k.end()));
    }
}

TEST(Ge25519, StrausMatchesTwoMultiplies)
{
    Random rng(77);
    std::vector<GeP3> points = {geIdentity(), geBase()};
    for (int i = 0; i < 4; ++i)
        points.push_back(geScalarMultBase(randomScalar(rng, 0x7f).data()));

    std::vector<Scalar> scalars = {Scalar(32, 0), orderL()};
    scalars[1][0] = static_cast<std::uint8_t>(scalars[1][0] - 1); // L-1
    for (int i = 0; i < 6; ++i)
        scalars.push_back(randomScalar(rng, 0x0f)); // < 2^252 < L

    for (const GeP3 &a : points) {
        for (std::size_t i = 0; i < scalars.size(); ++i) {
            const Scalar &s = scalars[i];
            const Scalar &k = scalars[(i * 5 + 3) % scalars.size()];
            GeP3 expect = geAdd(refScalarMult(s, geBase()),
                                geNeg(refScalarMult(k, a)));
            GeP3 got = geDoubleScalarMultVartime(s.data(), k.data(), a);
            EXPECT_TRUE(geEqual(got, expect)) << "pair " << i;
            EXPECT_EQ(enc(got), enc(expect)) << "pair " << i;
        }
    }
}

TEST(Ge25519, CompressDecompressRoundTrip)
{
    Random rng(5);
    for (int i = 0; i < 16; ++i) {
        GeP3 p = geScalarMultBase(randomScalar(rng, 0x7f).data());
        std::uint8_t e[32];
        geCompress(e, p);
        GeP3 q;
        ASSERT_TRUE(geDecompress(q, e));
        EXPECT_TRUE(geEqual(p, q));
    }
}

TEST(Ge25519, DecodeRejectsNonCanonicalY)
{
    // y = 1 (the identity) is valid; y = p + 1 encodes the same field
    // element but is not reduced, so RFC 8032 5.1.3 step 1 rejects it.
    std::uint8_t one[32] = {1};
    GeP3 p;
    ASSERT_TRUE(geDecompress(p, one));
    EXPECT_TRUE(geEqual(p, geIdentity()));

    std::uint8_t p_plus_1[32];
    std::memset(p_plus_1, 0xff, 32);
    p_plus_1[0] = 0xee;
    p_plus_1[31] = 0x7f;
    EXPECT_FALSE(geDecompress(p, p_plus_1));

    // Every y in [p, 2^255) is non-canonical, on the curve or not,
    // with either sign bit.
    for (int v = 0; v < 19; ++v) {
        std::uint8_t e[32];
        std::memset(e, 0xff, 32);
        e[0] = static_cast<std::uint8_t>(0xed + v);
        for (int top : {0x7f, 0xff}) {
            e[31] = static_cast<std::uint8_t>(top);
            EXPECT_FALSE(geDecompress(p, e)) << "p + " << v;
        }
    }
}

TEST(Ge25519, DecodeRejectsNegativeZeroX)
{
    // y = 1 and y = -1 have x = 0; the sign bit must then be clear.
    std::uint8_t one_neg[32] = {1};
    one_neg[31] = 0x80;
    GeP3 p;
    EXPECT_FALSE(geDecompress(p, one_neg));

    std::uint8_t minus_one[32];
    std::memset(minus_one, 0xff, 32);
    minus_one[0] = 0xec;
    minus_one[31] = 0x7f;
    ASSERT_TRUE(geDecompress(p, minus_one));
    minus_one[31] = 0xff;
    EXPECT_FALSE(geDecompress(p, minus_one));
}

TEST(Ge25519, DecodeRejectsOffCurveY)
{
    // y = 2: (y^2 - 1) / (d y^2 + 1) is not a square.
    std::uint8_t two[32] = {2};
    GeP3 p;
    EXPECT_FALSE(geDecompress(p, two));
}

} // namespace
} // namespace hypertee
