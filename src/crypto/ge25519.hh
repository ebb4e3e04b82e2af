/**
 * @file
 * The edwards25519 group (-x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255-19))
 * in extended coordinates, the layer between the field arithmetic
 * (fe25519) and the protocols built on it: Ed25519 signatures and the
 * fixed-base half of X25519.
 *
 * Two scalar multiplications are offered, one per kind of input:
 *  - geScalarMultBase, a constant-time signed radix-16 comb over a
 *    precomputed table of base-point multiples, for secret scalars
 *    (key generation, signing nonces, X25519 key derivation);
 *  - geDoubleScalarMultVartime, a variable-time Straus/wNAF double
 *    multiplication, for signature verification only.
 */

#ifndef HYPERTEE_CRYPTO_GE25519_HH
#define HYPERTEE_CRYPTO_GE25519_HH

#include <cstdint>

#include "crypto/fe25519.hh"

namespace hypertee
{

/** Extended point (X:Y:Z:T) with x = X/Z, y = Y/Z, xy = T/Z. */
struct GeP3
{
    Fe x, y, z, t;
};

/** The neutral element (0, 1). */
GeP3 geIdentity();

/** The RFC 8032 base point B (y = 4/5, x even). */
GeP3 geBase();

/** p + q (unified add-2008-hwcd-3). */
GeP3 geAdd(const GeP3 &p, const GeP3 &q);

/** 2p (dbl-2008-hwcd, 4M + 4S). */
GeP3 geDbl(const GeP3 &p);

/** -p. */
GeP3 geNeg(const GeP3 &p);

/** True when @p p and @p q are the same point (projective compare). */
bool geEqual(const GeP3 &p, const GeP3 &q);

/** RFC 8032 encoding: canonical y with the sign of x in bit 255. */
void geCompress(std::uint8_t out[32], const GeP3 &p);

/**
 * RFC 8032 section 5.1.3 decoding. Rejects a y that is not reduced
 * (y >= p), a y with no x on the curve, and x = 0 with the sign bit
 * set.
 */
bool geDecompress(GeP3 &out, const std::uint8_t in[32]);

/**
 * scalar * B for a 32-byte little-endian scalar below 2^255, in
 * constant time: no branch or table index depends on the scalar.
 */
GeP3 geScalarMultBase(const std::uint8_t scalar[32]);

/**
 * s * B - k * A for scalars below 2^253. Variable time -- callers
 * must pass public values only.
 */
GeP3 geDoubleScalarMultVartime(const std::uint8_t s[32],
                               const std::uint8_t k[32], const GeP3 &a);

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_GE25519_HH
