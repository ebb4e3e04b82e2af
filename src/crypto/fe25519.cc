#include "crypto/fe25519.hh"

#include <cstring>

namespace hypertee
{

namespace
{

using u64 = std::uint64_t;

/**
 * Sequential carry: unlike feCarry, each limb absorbs the carry of
 * the one below before its own is taken, so limbs 1 to 4 end below
 * 2^51 exactly, as the byte packing needs.
 */
void
carryPass(Fe &h)
{
    u64 c;
    c = h[0] >> 51; h[0] &= kFeMask51; h[1] += c;
    c = h[1] >> 51; h[1] &= kFeMask51; h[2] += c;
    c = h[2] >> 51; h[2] &= kFeMask51; h[3] += c;
    c = h[3] >> 51; h[3] &= kFeMask51; h[4] += c;
    c = h[4] >> 51; h[4] &= kFeMask51; h[0] += 19 * c;
}

} // namespace

Fe
feFromUint(u64 v)
{
    Fe f{v & kFeMask51, (v >> 51) & kFeMask51, 0, 0, 0};
    return f;
}

Fe
feFromBytes(const std::uint8_t bytes[32])
{
    auto load64 = [&](int off) {
        u64 v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | bytes[off + i];
        return v;
    };
    u64 w0 = load64(0);
    u64 w1 = load64(8);
    u64 w2 = load64(16);
    u64 w3 = load64(24);

    Fe f;
    f[0] = w0 & kFeMask51;
    f[1] = ((w0 >> 51) | (w1 << 13)) & kFeMask51;
    f[2] = ((w1 >> 38) | (w2 << 26)) & kFeMask51;
    f[3] = ((w2 >> 25) | (w3 << 39)) & kFeMask51;
    // The mask drops bit 255 of the encoding, as required.
    f[4] = (w3 >> 12) & kFeMask51;
    return f;
}

void
feToBytes(std::uint8_t out[32], const Fe &f)
{
    Fe h = f;
    carryPass(h);
    carryPass(h);
    carryPass(h);

    // h now < 2^255 + small; reduce mod p exactly.
    // Compute h + 19 and use the carry out of bit 255 to decide
    // whether h >= p (standard trick).
    Fe t = h;
    t[0] += 19;
    u64 c;
    c = t[0] >> 51; t[0] &= kFeMask51; t[1] += c;
    c = t[1] >> 51; t[1] &= kFeMask51; t[2] += c;
    c = t[2] >> 51; t[2] &= kFeMask51; t[3] += c;
    c = t[3] >> 51; t[3] &= kFeMask51; t[4] += c;
    u64 ge_p = t[4] >> 51; // 1 iff h + 19 >= 2^255, i.e. h >= p

    // If so, h - p = (h + 19) - 2^255; selected without a branch.
    t[4] &= kFeMask51;
    const u64 m = 0 - ge_p;
    for (int i = 0; i < 5; ++i)
        h[i] = (h[i] & ~m) | (t[i] & m);

    u64 w0 = h[0] | (h[1] << 51);
    u64 w1 = (h[1] >> 13) | (h[2] << 38);
    u64 w2 = (h[2] >> 26) | (h[3] << 25);
    u64 w3 = (h[3] >> 39) | (h[4] << 12);

    auto store64 = [&](int off, u64 v) {
        for (int i = 0; i < 8; ++i)
            out[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    store64(0, w0);
    store64(8, w1);
    store64(16, w2);
    store64(24, w3);
}

namespace
{

/** a^(2^n): @p n successive squarings (one out-of-line copy). */
[[gnu::noinline]] Fe
feSqN(Fe a, int n)
{
    for (int i = 0; i < n; ++i)
        a = feSq(a);
    return a;
}

/**
 * The shared prefix of the inversion and square-root chains (ref10):
 * returns a^(2^250 - 1) and sets @p a11 = a^11.
 */
Fe
fePow2250m1(const Fe &a, Fe &a11)
{
    Fe a2 = feSq(a);                              // 2
    Fe a9 = feMul(feSqN(a2, 2), a);               // 9
    a11 = feMul(a9, a2);                          // 11
    Fe e5 = feMul(feSq(a11), a9);                 // 2^5 - 1
    Fe e10 = feMul(feSqN(e5, 5), e5);             // 2^10 - 1
    Fe e20 = feMul(feSqN(e10, 10), e10);          // 2^20 - 1
    Fe e40 = feMul(feSqN(e20, 20), e20);          // 2^40 - 1
    Fe e50 = feMul(feSqN(e40, 10), e10);          // 2^50 - 1
    Fe e100 = feMul(feSqN(e50, 50), e50);         // 2^100 - 1
    Fe e200 = feMul(feSqN(e100, 100), e100);      // 2^200 - 1
    return feMul(feSqN(e200, 50), e50);           // 2^250 - 1
}

} // namespace

Fe
feInvert(const Fe &a)
{
    // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11: 254 S + 11 M.
    Fe a11;
    Fe e250 = fePow2250m1(a, a11);
    return feMul(feSqN(e250, 5), a11);
}

Fe
fePow2523(const Fe &a)
{
    // (p - 5) / 8 = 2^252 - 3 = (2^250 - 1) * 2^2 + 1.
    Fe a11;
    Fe e250 = fePow2250m1(a, a11);
    return feMul(feSqN(e250, 2), a);
}

bool
feIsZero(const Fe &a)
{
    std::uint8_t b[32];
    feToBytes(b, a);
    std::uint8_t acc = 0;
    for (auto v : b)
        acc |= v;
    return acc == 0;
}

bool
feIsNegative(const Fe &a)
{
    std::uint8_t b[32];
    feToBytes(b, a);
    return b[0] & 1;
}

bool
feEqual(const Fe &a, const Fe &b)
{
    std::uint8_t ba[32], bb[32];
    feToBytes(ba, a);
    feToBytes(bb, b);
    return std::memcmp(ba, bb, 32) == 0;
}

Fe
feSqrtM1()
{
    return {0x61b274a0ea0b0ULL, 0xd5a5fc8f189dULL, 0x7ef5e9cbd0c60ULL,
            0x78595a6804c9eULL, 0x2b8324804fc1dULL};
}

} // namespace hypertee
