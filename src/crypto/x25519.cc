#include "crypto/x25519.hh"

#include <cstring>

#include "crypto/fe25519.hh"
#include "crypto/ge25519.hh"
#include "sim/logging.hh"

namespace hypertee
{

namespace
{

/** RFC 7748 clamping: clear the cofactor bits and fix bit 254. */
void
clamp(std::uint8_t k[32], const Bytes &scalar)
{
    std::memcpy(k, scalar.data(), 32);
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
}

} // namespace

// htlint: hot-loop
Bytes
x25519(const Bytes &scalar, const Bytes &point)
{
    fatalIf(scalar.size() != 32 || point.size() != 32,
            "x25519 arguments must be 32 bytes");

    std::uint8_t k[32];
    clamp(k, scalar);

    const Fe x1 = feFromBytes(point.data());
    Fe x2 = feOne(), z2 = feZero();
    Fe x3 = x1, z3 = feOne();
    bool swap = false;

    for (int t = 254; t >= 0; --t) {
        bool k_t = (k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        feCswap(x2, x3, swap);
        feCswap(z2, z3, swap);
        swap = k_t;

        Fe a = feAdd(x2, z2);
        Fe aa = feSq(a);
        Fe b = feSub(x2, z2);
        Fe bb = feSq(b);
        Fe e = feSub(aa, bb);
        Fe c = feAdd(x3, z3);
        Fe d = feSub(x3, z3);
        Fe da = feMul(d, a);
        Fe cb = feMul(c, b);

        Fe t0 = feAdd(da, cb);
        x3 = feSq(t0);
        Fe t1 = feSub(da, cb);
        z3 = feMul(x1, feSq(t1));
        x2 = feMul(aa, bb);
        z2 = feMul(e, feAdd(aa, feMulSmall(e, 121665)));
    }
    feCswap(x2, x3, swap);
    feCswap(z2, z3, swap);

    Fe out = feMul(x2, feInvert(z2));
    Bytes result(32);
    feToBytes(result.data(), out);
    return result;
}

Bytes
x25519Base(const Bytes &scalar)
{
    fatalIf(scalar.size() != 32, "x25519 scalar must be 32 bytes");
    std::uint8_t k[32];
    clamp(k, scalar);

    // k * B on edwards25519 with the constant-time comb, then the
    // birational map to Curve25519: u = (1 + y) / (1 - y), which in
    // projective coordinates is (Z + Y) / (Z - Y). B maps to u = 9.
    GeP3 p = geScalarMultBase(k);
    Fe u = feMul(feAdd(p.z, p.y), feInvert(feSub(p.z, p.y)));
    Bytes result(32);
    feToBytes(result.data(), u);
    return result;
}

} // namespace hypertee
