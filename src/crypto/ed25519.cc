#include "crypto/ed25519.hh"

#include <cstring>

#include "crypto/ge25519.hh"
#include "crypto/sha512.hh"
#include "sim/logging.hh"

namespace hypertee
{

namespace
{

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// ----- scalar arithmetic mod the group order L -----
//
// Constant time throughout: the scalars include the secret key and the
// signing nonce, so no branch or index depends on their values.

/** A scalar below L in 4x64-bit little-endian words. */
struct U256
{
    u64 w[4] = {0, 0, 0, 0};
};

/** L = 2^252 + 27742317777372353535851937790883648493. */
constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                       0x1000000000000000ULL};

/** floor(2^512 / L), the Barrett constant. */
constexpr u64 kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                        0xffffffffffffffebULL, 0xffffffffffffffffULL,
                        0xfULL};

/** out = the low @p n words of a * b (schoolbook). */
void
mulWords(u64 *out, int n, const u64 *a, int na, const u64 *b, int nb)
{
    for (int i = 0; i < n; ++i)
        out[i] = 0;
    for (int i = 0; i < na && i < n; ++i) {
        u64 carry = 0;
        for (int j = 0; j < nb && i + j < n; ++j) {
            u128 v = (u128)a[i] * b[j] + out[i + j] + carry;
            out[i + j] = (u64)v;
            carry = (u64)(v >> 64);
        }
        if (i + nb < n)
            out[i + nb] = carry;
    }
}

/** r -= L when r >= L (r has five words), by borrow mask. */
void
condSubL(u64 r[5])
{
    u64 d[5];
    u64 borrow = 0;
    for (int i = 0; i < 5; ++i) {
        u128 v = (u128)r[i] - (i < 4 ? kL[i] : 0) - borrow;
        d[i] = (u64)v;
        borrow = (u64)(v >> 127);
    }
    const u64 keep_r = 0 - borrow; // all ones when r < L
    for (int i = 0; i < 5; ++i)
        r[i] = (r[i] & keep_r) | (d[i] & ~keep_r);
}

/**
 * x mod L for x < 2^512 in eight words: Barrett reduction (HAC
 * 14.42 with base 2^64, k = 4). The quotient estimate q3 is at most
 * two below the true quotient, so x - q3 * L < 3L and two
 * conditional subtractions finish the job.
 */
U256
reduceWide(const u64 x[8])
{
    u64 q2[10];
    mulWords(q2, 10, x + 3, 5, kMu, 5); // floor(x / 2^192) * mu
    u64 r2[5];
    mulWords(r2, 5, q2 + 5, 5, kL, 4); // (floor(q2 / 2^320) * L) mod 2^320

    u64 r[5];
    u64 borrow = 0;
    for (int i = 0; i < 5; ++i) {
        u128 v = (u128)x[i] - r2[i] - borrow;
        r[i] = (u64)v;
        borrow = (u64)(v >> 127);
    }
    condSubL(r);
    condSubL(r);
    return {{r[0], r[1], r[2], r[3]}};
}

/** Little-endian bytes to words; @p len a multiple of 8, at most 64. */
void
loadWords(u64 out[8], const std::uint8_t *le_bytes, std::size_t len)
{
    for (int i = 0; i < 8; ++i)
        out[i] = 0;
    for (std::size_t i = 0; i < len; ++i)
        out[i / 8] |= (u64)le_bytes[i] << (8 * (i % 8));
}

/** A 64-byte hash output, read as a little-endian integer, mod L. */
U256
scReduce64(const std::uint8_t le_bytes[64])
{
    u64 x[8];
    loadWords(x, le_bytes, 64);
    return reduceWide(x);
}

U256
scFromBytes(const std::uint8_t le_bytes[32])
{
    u64 x[8];
    loadWords(x, le_bytes, 32);
    return reduceWide(x);
}

void
scToBytes(std::uint8_t out[32], const U256 &a)
{
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 8; ++j)
            out[8 * i + j] = static_cast<std::uint8_t>(a.w[i] >> (8 * j));
    }
}

/** (a * b + c) mod L; a * b + c < L^2 + L < 2^512. */
U256
scMulAdd(const U256 &a, const U256 &b, const U256 &c)
{
    u64 x[8];
    mulWords(x, 8, a.w, 4, b.w, 4);
    u64 carry = 0;
    for (int i = 0; i < 8; ++i) {
        u128 v = (u128)x[i] + (i < 4 ? c.w[i] : 0) + carry;
        x[i] = (u64)v;
        carry = (u64)(v >> 64);
    }
    return reduceWide(x);
}

/** S < L (RFC 8032 malleability check); S is public. */
bool
scIsCanonical(const std::uint8_t le_bytes[32])
{
    u64 v[8];
    loadWords(v, le_bytes, 32);
    for (int i = 3; i >= 0; --i) {
        if (v[i] != kL[i])
            return v[i] < kL[i];
    }
    return false; // S == L
}

struct ExpandedKey
{
    std::uint8_t scalar[32]; // clamped secret scalar a
    std::uint8_t prefix[32]; // RFC 8032 nonce prefix
    std::uint8_t publicKey[32];
};

ExpandedKey
expandSeed(const Bytes &seed)
{
    fatalIf(seed.size() != 32, "ed25519 seed must be 32 bytes");
    ExpandedKey k;
    Bytes h = Sha512::digest(seed);
    std::memcpy(k.scalar, h.data(), 32);
    std::memcpy(k.prefix, h.data() + 32, 32);
    k.scalar[0] &= 248;
    k.scalar[31] &= 63;
    k.scalar[31] |= 64;
    geCompress(k.publicKey, geScalarMultBase(k.scalar));
    return k;
}

} // namespace

Bytes
ed25519PublicKey(const Bytes &seed)
{
    ExpandedKey k = expandSeed(seed);
    return Bytes(k.publicKey, k.publicKey + 32);
}

Bytes
ed25519Sign(const Bytes &seed, const Bytes &message)
{
    ExpandedKey k = expandSeed(seed);

    Sha512 hr;
    hr.update(k.prefix, 32);
    hr.update(message);
    auto r_hash = hr.finish();
    U256 r = scReduce64(r_hash.data());
    std::uint8_t r_bytes[32];
    scToBytes(r_bytes, r);

    std::uint8_t r_enc[32];
    geCompress(r_enc, geScalarMultBase(r_bytes));

    Sha512 hk;
    hk.update(r_enc, 32);
    hk.update(k.publicKey, 32);
    hk.update(message);
    auto k_hash = hk.finish();
    U256 kk = scReduce64(k_hash.data());

    U256 a = scFromBytes(k.scalar);
    U256 s = scMulAdd(kk, a, r);

    Bytes sig(64);
    std::memcpy(sig.data(), r_enc, 32);
    scToBytes(sig.data() + 32, s);
    return sig;
}

bool
ed25519Verify(const Bytes &public_key, const Bytes &message,
              const Bytes &signature)
{
    if (public_key.size() != 32 || signature.size() != 64)
        return false;
    if (!scIsCanonical(signature.data() + 32))
        return false;

    GeP3 a_point, r_point;
    if (!geDecompress(a_point, public_key.data()))
        return false;
    if (!geDecompress(r_point, signature.data()))
        return false;

    Sha512 hk;
    hk.update(signature.data(), 32);
    hk.update(public_key);
    hk.update(message);
    auto k_hash = hk.finish();
    U256 k = scReduce64(k_hash.data());
    std::uint8_t k_bytes[32];
    scToBytes(k_bytes, k);

    // S*B == R + k*A, tested as S*B - k*A == R in one pass.
    GeP3 check =
        geDoubleScalarMultVartime(signature.data() + 32, k_bytes, a_point);
    return geEqual(check, r_point);
}

} // namespace hypertee
