/**
 * @file
 * Arithmetic in GF(2^255 - 19) with 5x51-bit limbs (donna layout).
 * Shared by the X25519 key agreement (local/remote attestation DH)
 * and the Ed25519 signatures (attestation certificates).
 */

#ifndef HYPERTEE_CRYPTO_FE25519_HH
#define HYPERTEE_CRYPTO_FE25519_HH

#include <array>
#include <cstdint>

namespace hypertee
{

/** A field element; limb i carries bits [51*i, 51*i+51). */
using Fe = std::array<std::uint64_t, 5>;

/** 2^51 - 1: the bits one limb holds once carried. */
inline constexpr std::uint64_t kFeMask51 = (std::uint64_t(1) << 51) - 1;

Fe feFromUint(std::uint64_t v);

/** Load 32 little-endian bytes, masking the top bit. */
Fe feFromBytes(const std::uint8_t bytes[32]);

/** Store fully reduced, 32 little-endian bytes. */
void feToBytes(std::uint8_t out[32], const Fe &f);

// The operations below are the inner loop of every Curve25519
// computation, so they are defined here for inlining. Each returns
// limbs below 2^51 + 2^15 and accepts any such element; feMul and
// feSq accept limbs up to 2^52.

inline Fe
feZero()
{
    return {0, 0, 0, 0, 0};
}

inline Fe
feOne()
{
    return {1, 0, 0, 0, 0};
}

/** One pass of base-2^51 carry propagation with the mod-p fold. */
inline void
feCarry(Fe &h)
{
    // The carries out of each limb are taken from the limbs before
    // any is added in, so the five steps do not wait on one another.
    const std::uint64_t c0 = h[0] >> 51, c1 = h[1] >> 51, c2 = h[2] >> 51,
                        c3 = h[3] >> 51, c4 = h[4] >> 51;
    h[0] = (h[0] & kFeMask51) + 19 * c4;
    h[1] = (h[1] & kFeMask51) + c0;
    h[2] = (h[2] & kFeMask51) + c1;
    h[3] = (h[3] & kFeMask51) + c2;
    h[4] = (h[4] & kFeMask51) + c3;
}

inline Fe
feAdd(const Fe &a, const Fe &b)
{
    Fe h = {a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3],
            a[4] + b[4]};
    feCarry(h);
    return h;
}

inline Fe
feSub(const Fe &a, const Fe &b)
{
    // Add 2p before subtracting so limbs never underflow.
    constexpr std::uint64_t two_p0 = 0xfffffffffffdaULL; // 2*(2^51-19)
    constexpr std::uint64_t two_pi = 0xffffffffffffeULL; // 2*(2^51-1)
    Fe h = {a[0] + two_p0 - b[0], a[1] + two_pi - b[1],
            a[2] + two_pi - b[2], a[3] + two_pi - b[3],
            a[4] + two_pi - b[4]};
    feCarry(h);
    return h;
}

inline Fe
feNeg(const Fe &a)
{
    return feSub(feZero(), a);
}

/**
 * Carry the five 128-bit column sums of a product into limbs: one
 * chain through the columns, the top carry folded back times 19, and
 * one more step so limb 0 is carried again.
 */
inline Fe
feReduceWide(unsigned __int128 r0, unsigned __int128 r1,
             unsigned __int128 r2, unsigned __int128 r3,
             unsigned __int128 r4)
{
    using u64 = std::uint64_t;
    Fe h;
    r1 += static_cast<u64>(r0 >> 51); h[0] = static_cast<u64>(r0) & kFeMask51;
    r2 += static_cast<u64>(r1 >> 51); h[1] = static_cast<u64>(r1) & kFeMask51;
    r3 += static_cast<u64>(r2 >> 51); h[2] = static_cast<u64>(r2) & kFeMask51;
    r4 += static_cast<u64>(r3 >> 51); h[3] = static_cast<u64>(r3) & kFeMask51;
    const u64 top = static_cast<u64>(r4 >> 51);
    h[4] = static_cast<u64>(r4) & kFeMask51;
    h[0] += 19 * top;
    h[1] += h[0] >> 51;
    h[0] &= kFeMask51;
    return h;
}

inline Fe
feMul(const Fe &a, const Fe &b)
{
    using u128 = unsigned __int128;
    const std::uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3],
                        a4 = a[4];
    const std::uint64_t b1_19 = 19 * b[1], b2_19 = 19 * b[2],
                        b3_19 = 19 * b[3], b4_19 = 19 * b[4];
    const std::uint64_t b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3],
                        b4 = b[4];

    u128 r0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
              (u128)a3 * b2_19 + (u128)a4 * b1_19;
    u128 r1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
              (u128)a3 * b3_19 + (u128)a4 * b2_19;
    u128 r2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
              (u128)a3 * b4_19 + (u128)a4 * b3_19;
    u128 r3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
              (u128)a3 * b0 + (u128)a4 * b4_19;
    u128 r4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
              (u128)a3 * b1 + (u128)a4 * b0;
    return feReduceWide(r0, r1, r2, r3, r4);
}

/** feMul(a, a) with the symmetric cross terms merged: 15 products. */
inline Fe
feSq(const Fe &a)
{
    using u128 = unsigned __int128;
    const std::uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3],
                        a4 = a[4];
    const std::uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2,
                        d3 = 2 * a3;
    const std::uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;

    u128 r0 = (u128)a0 * a0 + (u128)d1 * a4_19 + (u128)d2 * a3_19;
    u128 r1 = (u128)d0 * a1 + (u128)d2 * a4_19 + (u128)a3 * a3_19;
    u128 r2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)d3 * a4_19;
    u128 r3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19;
    u128 r4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
    return feReduceWide(r0, r1, r2, r3, r4);
}

/** a * s for a small constant s (below 2^20). */
inline Fe
feMulSmall(const Fe &a, std::uint64_t s)
{
    using u128 = unsigned __int128;
    return feReduceWide((u128)a[0] * s, (u128)a[1] * s, (u128)a[2] * s,
                        (u128)a[3] * s, (u128)a[4] * s);
}

/** Conditional swap (data-independent addressing). */
inline void
feCswap(Fe &a, Fe &b, bool swap)
{
    const std::uint64_t m = 0 - static_cast<std::uint64_t>(swap);
    const Fe t = {m & (a[0] ^ b[0]), m & (a[1] ^ b[1]), m & (a[2] ^ b[2]),
                  m & (a[3] ^ b[3]), m & (a[4] ^ b[4])};
    a = {a[0] ^ t[0], a[1] ^ t[1], a[2] ^ t[2], a[3] ^ t[3], a[4] ^ t[4]};
    b = {b[0] ^ t[0], b[1] ^ t[1], b[2] ^ t[2], b[3] ^ t[3], b[4] ^ t[4]};
}

/** dst = src when @p move, without branching on it. */
inline void
feCmov(Fe &dst, const Fe &src, bool move)
{
    const std::uint64_t m = 0 - static_cast<std::uint64_t>(move);
    dst = {dst[0] ^ (m & (dst[0] ^ src[0])), dst[1] ^ (m & (dst[1] ^ src[1])),
           dst[2] ^ (m & (dst[2] ^ src[2])), dst[3] ^ (m & (dst[3] ^ src[3])),
           dst[4] ^ (m & (dst[4] ^ src[4]))};
}

/** Multiplicative inverse (a^(p-2), addition chain); 1/0 is 0. */
Fe feInvert(const Fe &a);

/** a^((p-5)/8) (addition chain), the core of the square root. */
Fe fePow2523(const Fe &a);

/** True when the canonical encoding is all zero. */
bool feIsZero(const Fe &a);

/** Sign bit: lowest bit of the canonical encoding. */
bool feIsNegative(const Fe &a);

/** True when canonical encodings match. */
bool feEqual(const Fe &a, const Fe &b);

/** sqrt(-1) in the field, 2^((p-1)/4). */
Fe feSqrtM1();

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_FE25519_HH
