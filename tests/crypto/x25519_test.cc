/** @file X25519 tests against RFC 7748 vectors and DH properties. */

#include <gtest/gtest.h>

#include <vector>

#include "crypto/bytes.hh"
#include "crypto/x25519.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

TEST(X25519, Rfc7748Vector1)
{
    Bytes scalar = fromHex("a546e36bf0527c9d3b16154b82465edd"
                           "62144c0ac1fc5a18506a2244ba449ac4");
    Bytes point = fromHex("e6db6867583030db3594c1a424b15f7c"
                          "726624ec26b3353b10a903a6d0ab1c4c");
    EXPECT_EQ(toHex(x25519(scalar, point)),
              "c3da55379de9c6908e94ea4df28d084f"
              "32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2)
{
    Bytes scalar = fromHex("4b66e9d4d1b4673c5ad22691957d6af5"
                           "c11b6421e0ea01d42ca4169e7918ba0d");
    Bytes point = fromHex("e5210f12786811d3f4b7959d0538ae2c"
                          "31dbe7106fc03c3efc4cd549c715a493");
    EXPECT_EQ(toHex(x25519(scalar, point)),
              "95cbde9476e8907d7aade45cb4b873f8"
              "8b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748BasePointAlice)
{
    // RFC 7748 section 6.1: Alice's key pair.
    Bytes a = fromHex("77076d0a7318a57d3c16c17251b26645"
                      "df4c2f87ebc0992ab177fba51db92c2a");
    EXPECT_EQ(toHex(x25519Base(a)),
              "8520f0098930a754748b7ddcb43ef75a"
              "0dbf3a0d26381af4eba4a98eaa9b4e6a");
}

TEST(X25519, Rfc7748SharedSecret)
{
    Bytes a = fromHex("77076d0a7318a57d3c16c17251b26645"
                      "df4c2f87ebc0992ab177fba51db92c2a");
    Bytes b = fromHex("5dab087e624a8a4b79e17f8b83800ee6"
                      "6f3bb1292618b6fd1c2f8b27ff88e0eb");
    Bytes a_pub = x25519Base(a);
    Bytes b_pub = x25519Base(b);
    Bytes shared = fromHex("4a5d9d5ba4ce2de1728e3bf480350f25"
                           "e07e21c947d19e3376f09b3c1e161742");
    EXPECT_EQ(x25519(a, b_pub), shared);
    EXPECT_EQ(x25519(b, a_pub), shared);
}

/** RFC 7748 5.2: k, u <- X25519(k, u), k, starting from k = u = 9. */
std::string
iterated(int rounds)
{
    Bytes k(32, 0), u(32, 0);
    k[0] = 9;
    u[0] = 9;
    for (int i = 0; i < rounds; ++i) {
        Bytes next = x25519(k, u);
        u = k;
        k = next;
    }
    return toHex(k);
}

TEST(X25519, Rfc7748IteratedOnce)
{
    EXPECT_EQ(iterated(1), "422c8e7a6227d7bca1350b3e2bb7279f"
                           "7897b87bb6854b783c60e80311ae3079");
}

TEST(X25519, Rfc7748IteratedThousand)
{
    EXPECT_EQ(iterated(1000), "684cf59ba83309552800ef566f2f4d3c"
                              "1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, FixedBaseMatchesLadder)
{
    // x25519Base takes the edwards25519 comb; x25519(k, 9) the
    // Montgomery ladder. Both must agree on every scalar.
    Bytes nine(32, 0);
    nine[0] = 9;
    std::vector<Bytes> scalars = {Bytes(32, 0), Bytes(32, 0xff)};
    Random rng(7748);
    for (int i = 0; i < 512; ++i) {
        Bytes k(32);
        for (auto &b : k)
            b = static_cast<std::uint8_t>(rng.next());
        scalars.push_back(k);
    }
    for (const Bytes &k : scalars)
        EXPECT_EQ(toHex(x25519Base(k)), toHex(x25519(k, nine))) << toHex(k);
}

TEST(X25519, DiffieHellmanAgreesForRandomKeys)
{
    Random rng(1234);
    for (int trial = 0; trial < 8; ++trial) {
        Bytes a(32), b(32);
        for (int i = 0; i < 32; ++i) {
            a[i] = static_cast<std::uint8_t>(rng.next());
            b[i] = static_cast<std::uint8_t>(rng.next());
        }
        Bytes shared_ab = x25519(a, x25519Base(b));
        Bytes shared_ba = x25519(b, x25519Base(a));
        EXPECT_EQ(shared_ab, shared_ba) << "trial " << trial;
    }
}

TEST(X25519, ClampingMakesHighBitsIrrelevant)
{
    Bytes a(32, 0x11);
    Bytes b = a;
    b[31] |= 0x80; // cleared by clamping
    EXPECT_EQ(x25519Base(a), x25519Base(b));
}

TEST(X25519, DistinctScalarsDistinctPublics)
{
    Bytes a(32, 0x20), b(32, 0x21);
    EXPECT_NE(x25519Base(a), x25519Base(b));
}

} // namespace
} // namespace hypertee
