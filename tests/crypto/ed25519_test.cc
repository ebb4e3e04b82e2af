/** @file Ed25519 tests: RFC 8032 vectors and signature properties. */

#include <gtest/gtest.h>

#include <cstring>

#include "crypto/bytes.hh"
#include "crypto/ed25519.hh"
#include "crypto/ge25519.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

const char *kSeed1 =
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60";
const char *kPub1 =
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a";

/** One RFC 8032 section 7.1 test vector. */
struct Rfc8032Vector
{
    const char *seed;
    const char *pub;
    const char *msg;
    const char *sig;
};

const Rfc8032Vector kRfc8032[] = {
    // TEST 1: empty message.
    {kSeed1, kPub1, "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    // TEST 2: one byte.
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    // TEST 3: two bytes.
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

TEST(Ed25519, Rfc8032Test1PublicKey)
{
    EXPECT_EQ(toHex(ed25519PublicKey(fromHex(kSeed1))), kPub1);
}

TEST(Ed25519, Rfc8032Test1SignatureVerifies)
{
    Bytes seed = fromHex(kSeed1);
    Bytes msg; // empty message
    Bytes sig = ed25519Sign(seed, msg);
    EXPECT_EQ(sig.size(), 64u);
    EXPECT_TRUE(ed25519Verify(fromHex(kPub1), msg, sig));
}

TEST(Ed25519, Rfc8032VectorsPublicKeySignVerify)
{
    for (const Rfc8032Vector &v : kRfc8032) {
        Bytes seed = fromHex(v.seed);
        Bytes msg = fromHex(v.msg);
        EXPECT_EQ(toHex(ed25519PublicKey(seed)), v.pub);
        EXPECT_EQ(toHex(ed25519Sign(seed, msg)), v.sig);
        EXPECT_TRUE(ed25519Verify(fromHex(v.pub), msg, fromHex(v.sig)));
    }
}

/**
 * A signature that verifies under the identity public key: with
 * A = (0, 1), S*B - k*A = S*B for every k, so (R = S*B, S) passes for
 * any message. Only the encoding of A then decides acceptance.
 */
Bytes
identityKeySignature()
{
    std::uint8_t s[32] = {42};
    Bytes sig(64);
    geCompress(sig.data(), geScalarMultBase(s));
    std::memcpy(sig.data() + 32, s, 32);
    return sig;
}

TEST(Ed25519, VerifyRejectsNonCanonicalPublicKey)
{
    Bytes msg = bytesFromString("quote");
    Bytes sig = identityKeySignature();
    Bytes identity(32, 0);
    identity[0] = 1;
    ASSERT_TRUE(ed25519Verify(identity, msg, sig));

    // y = p + 1 reduces to the same point but is not canonical.
    Bytes p_plus_1(32, 0xff);
    p_plus_1[0] = 0xee;
    p_plus_1[31] = 0x7f;
    EXPECT_FALSE(ed25519Verify(p_plus_1, msg, sig));
}

TEST(Ed25519, VerifyRejectsNegativeZeroPublicKey)
{
    // 01 00..00 80: y = 1, x = 0 with the sign bit set.
    Bytes msg = bytesFromString("quote");
    Bytes neg_zero(32, 0);
    neg_zero[0] = 1;
    neg_zero[31] = 0x80;
    EXPECT_FALSE(ed25519Verify(neg_zero, msg, identityKeySignature()));
}

TEST(Ed25519, VerifyRejectsNonCanonicalR)
{
    // R = identity (S = 0, A = identity): canonical R passes, R
    // encoded as y = p + 1 does not.
    Bytes msg = bytesFromString("quote");
    Bytes identity(32, 0);
    identity[0] = 1;
    Bytes sig = identity;
    sig.resize(64, 0);
    ASSERT_TRUE(ed25519Verify(identity, msg, sig));

    Bytes bad = sig;
    std::memset(bad.data(), 0xff, 32);
    bad[0] = 0xee;
    bad[31] = 0x7f;
    EXPECT_FALSE(ed25519Verify(identity, msg, bad));
}

TEST(Ed25519, SignaturesAreDeterministic)
{
    Bytes seed = fromHex(kSeed1);
    Bytes msg = bytesFromString("enclave measurement report");
    EXPECT_EQ(ed25519Sign(seed, msg), ed25519Sign(seed, msg));
}

TEST(Ed25519, VerifyRejectsTamperedMessage)
{
    Bytes seed = fromHex(kSeed1);
    Bytes pub = ed25519PublicKey(seed);
    Bytes msg = bytesFromString("platform certificate");
    Bytes sig = ed25519Sign(seed, msg);

    Bytes tampered = msg;
    tampered[0] ^= 1;
    EXPECT_TRUE(ed25519Verify(pub, msg, sig));
    EXPECT_FALSE(ed25519Verify(pub, tampered, sig));
}

TEST(Ed25519, VerifyRejectsTamperedSignature)
{
    Bytes seed = fromHex(kSeed1);
    Bytes pub = ed25519PublicKey(seed);
    Bytes msg = bytesFromString("attestation quote");
    Bytes sig = ed25519Sign(seed, msg);

    for (std::size_t i : {0u, 31u, 32u, 63u}) {
        Bytes bad = sig;
        bad[i] ^= 0x40;
        EXPECT_FALSE(ed25519Verify(pub, msg, bad)) << "byte " << i;
    }
}

TEST(Ed25519, VerifyRejectsWrongKey)
{
    Bytes seed1 = fromHex(kSeed1);
    Bytes seed2(32, 0x07);
    Bytes msg = bytesFromString("report");
    Bytes sig = ed25519Sign(seed1, msg);
    EXPECT_FALSE(ed25519Verify(ed25519PublicKey(seed2), msg, sig));
}

TEST(Ed25519, VerifyRejectsMalformedInputs)
{
    Bytes seed = fromHex(kSeed1);
    Bytes pub = ed25519PublicKey(seed);
    Bytes msg = bytesFromString("x");
    Bytes sig = ed25519Sign(seed, msg);

    EXPECT_FALSE(ed25519Verify(Bytes(31, 0), msg, sig));
    EXPECT_FALSE(ed25519Verify(pub, msg, Bytes(63, 0)));
    // Signature with S >= L must be rejected (malleability guard).
    Bytes bad = sig;
    for (int i = 32; i < 64; ++i)
        bad[i] = 0xff;
    EXPECT_FALSE(ed25519Verify(pub, msg, bad));
}

TEST(Ed25519, RandomKeysSignAndVerify)
{
    Random rng(99);
    for (int trial = 0; trial < 4; ++trial) {
        Bytes seed(32);
        for (auto &b : seed)
            b = static_cast<std::uint8_t>(rng.next());
        Bytes pub = ed25519PublicKey(seed);
        Bytes msg(1 + trial * 37, static_cast<std::uint8_t>(trial));
        Bytes sig = ed25519Sign(seed, msg);
        EXPECT_TRUE(ed25519Verify(pub, msg, sig)) << "trial " << trial;
    }
}

TEST(Ed25519, DifferentMessagesDifferentSignatures)
{
    Bytes seed = fromHex(kSeed1);
    EXPECT_NE(ed25519Sign(seed, bytesFromString("a")),
              ed25519Sign(seed, bytesFromString("b")));
}

} // namespace
} // namespace hypertee
