#include "crypto/ge25519.hh"

#include <cstring>

namespace hypertee
{

namespace
{

using u64 = std::uint64_t;

/** Projective (X:Y:Z); doubling needs no T. */
struct GeP2
{
    Fe x, y, z;
};

/** Completed ((X:Z), (Y:T)): x = X/Z, y = Y/T. Sums land here. */
struct GeP1P1
{
    Fe x, y, z, t;
};

/** Addend form of a P3 point: (Y+X, Y-X, Z, 2dT). */
struct GeCached
{
    Fe yPlusX, yMinusX, z, t2d;
};

/** Affine addend (y+x, y-x, 2dxy) -- the base-point tables. */
struct GePrecomp
{
    Fe yPlusX, yMinusX, xy2d;
};

/** d = -121665/121666. */
const Fe kD = {0x34dca135978a3ULL, 0x1a8283b156ebdULL, 0x5e7a26001c029ULL,
               0x739c663a03cbbULL, 0x52036cee2b6ffULL};

/** 2d. */
const Fe kD2 = {0x69b9426b2f159ULL, 0x35050762add7aULL, 0x3cf44c0038052ULL,
                0x6738cc7407977ULL, 0x2406d9dc56dffULL};

GeP2
p3ToP2(const GeP3 &p)
{
    return {p.x, p.y, p.z};
}

// The group steps below are kept out of line ([[gnu::noinline]]): each
// inlines a dozen field multiplies, and one copy of each instead of
// one per call site keeps the code (and the resident set) small at a
// cost of one call per step.

[[gnu::noinline]] GeP2
p1p1ToP2(const GeP1P1 &p)
{
    return {feMul(p.x, p.t), feMul(p.y, p.z), feMul(p.z, p.t)};
}

[[gnu::noinline]] GeP3
p1p1ToP3(const GeP1P1 &p)
{
    return {feMul(p.x, p.t), feMul(p.y, p.z), feMul(p.z, p.t),
            feMul(p.x, p.y)};
}

[[gnu::noinline]] GeCached
toCached(const GeP3 &p)
{
    return {feAdd(p.y, p.x), feSub(p.y, p.x), p.z, feMul(p.t, kD2)};
}

/** dbl-2008-hwcd for a = -1: 4 squarings, no multiplies. */
[[gnu::noinline]] GeP1P1
dbl(const GeP2 &p)
{
    Fe xx = feSq(p.x);
    Fe yy = feSq(p.y);
    Fe zz2 = feSq(p.z);
    zz2 = feAdd(zz2, zz2);
    Fe xy2 = feSq(feAdd(p.x, p.y));
    GeP1P1 r;
    r.y = feAdd(yy, xx);
    r.z = feSub(yy, xx);
    r.x = feSub(xy2, r.y);
    r.t = feSub(zz2, r.z);
    return r;
}

/** p + q (add-2008-hwcd-3). */
[[gnu::noinline]] GeP1P1
add(const GeP3 &p, const GeCached &q)
{
    Fe a = feMul(feAdd(p.y, p.x), q.yPlusX);
    Fe b = feMul(feSub(p.y, p.x), q.yMinusX);
    Fe c = feMul(q.t2d, p.t);
    Fe zz = feMul(p.z, q.z);
    Fe zz2 = feAdd(zz, zz);
    GeP1P1 r;
    r.x = feSub(a, b);
    r.y = feAdd(a, b);
    r.z = feAdd(zz2, c);
    r.t = feSub(zz2, c);
    return r;
}

/** p + q for an affine q (Z2 = 1). */
[[gnu::noinline]] GeP1P1
madd(const GeP3 &p, const GePrecomp &q)
{
    Fe a = feMul(feAdd(p.y, p.x), q.yPlusX);
    Fe b = feMul(feSub(p.y, p.x), q.yMinusX);
    Fe c = feMul(q.xy2d, p.t);
    Fe z2 = feAdd(p.z, p.z);
    GeP1P1 r;
    r.x = feSub(a, b);
    r.y = feAdd(a, b);
    r.z = feAdd(z2, c);
    r.t = feSub(z2, c);
    return r;
}

// -(x, y) = (-x, y): in the addend forms, y+x and y-x trade places
// and the xy term changes sign.

GeCached
negCached(const GeCached &q)
{
    return {q.yMinusX, q.yPlusX, q.z, feNeg(q.t2d)};
}

GePrecomp
negPrecomp(const GePrecomp &q)
{
    return {q.yMinusX, q.yPlusX, feNeg(q.xy2d)};
}

// ----- base-point tables -----

/** Comb rows: comb[i * kCombCols + j] = (j + 1) * 256^i * B. */
constexpr int kCombRows = 32;
constexpr int kCombCols = 8;
/** Odd multiples for the Straus wNAF: odd[j] = (2j + 1) * B. */
constexpr int kOddMultiples = 8;
static_assert(kOddMultiples <= kCombCols, "toPrecomp batches one row");

struct BaseTables
{
    GePrecomp comb[kCombRows * kCombCols];
    GePrecomp odd[kOddMultiples];
};

// Table construction runs once per process: [[gnu::cold]] has it
// compiled for size.

/** Normalise @p n <= 8 points to affine form with one inversion. */
[[gnu::cold]] void
toPrecomp(GePrecomp *out, const GeP3 *pts, int n)
{
    // Montgomery's trick: prefix[i] = z_0 * ... * z_{i-1}.
    Fe prefix[kCombCols];
    Fe acc = feOne();
    for (int i = 0; i < n; ++i) {
        prefix[i] = acc;
        acc = feMul(acc, pts[i].z);
    }
    Fe inv = feInvert(acc);
    for (int i = n; i-- > 0;) {
        Fe zinv = feMul(inv, prefix[i]);
        inv = feMul(inv, pts[i].z);
        Fe x = feMul(pts[i].x, zinv);
        Fe y = feMul(pts[i].y, zinv);
        out[i] = {feAdd(y, x), feSub(y, x), feMul(feMul(x, y), kD2)};
    }
}

[[gnu::cold]] BaseTables
buildBaseTables()
{
    BaseTables tables;
    GeP3 pts[kCombCols];
    GeP3 row = geBase();
    for (int i = 0; i < kCombRows; ++i) {
        GeP3 q = row;
        for (int j = 0; j < kCombCols; ++j) {
            pts[j] = q;
            q = geAdd(q, row);
        }
        toPrecomp(&tables.comb[i * kCombCols], pts, kCombCols);
        for (int k = 0; k < 8; ++k)
            row = geDbl(row);
    }

    GeP3 b = geBase();
    GeP3 b2 = geDbl(b);
    for (int j = 0; j < kOddMultiples; ++j) {
        pts[j] = b;
        b = geAdd(b, b2);
    }
    toPrecomp(tables.odd, pts, kOddMultiples);
    return tables;
}

/** Built once per process on first use; read-only afterwards. */
const BaseTables &
baseTables()
{
    static const BaseTables tables = buildBaseTables();
    return tables;
}

// ----- constant-time comb -----

/** 1 when a == b, else 0, for a, b < 2^31, without branching. */
unsigned
ctEqual(unsigned a, unsigned b)
{
    return ((a ^ b) - 1u) >> 31;
}

/**
 * Entry |b| - 1 of comb row @p pos, negated when b < 0; the identity
 * when b = 0. Scans the whole row with conditional moves: neither the
 * branch pattern nor the memory addresses depend on the secret b.
 */
GePrecomp
selectComb(int pos, int b)
{
    const unsigned ub = static_cast<unsigned>(b);
    const unsigned neg = ub >> 31;
    const unsigned babs = (ub ^ (0u - neg)) + neg;

    GePrecomp t = {feOne(), feOne(), feZero()};
    const GePrecomp *row = &baseTables().comb[pos * kCombCols];
    for (int j = 0; j < kCombCols; ++j) {
        const bool hit = ctEqual(babs, static_cast<unsigned>(j + 1));
        feCmov(t.yPlusX, row[j].yPlusX, hit);
        feCmov(t.yMinusX, row[j].yMinusX, hit);
        feCmov(t.xy2d, row[j].xy2d, hit);
    }
    GePrecomp minus = negPrecomp(t);
    feCmov(t.yPlusX, minus.yPlusX, neg);
    feCmov(t.yMinusX, minus.yMinusX, neg);
    feCmov(t.xy2d, minus.xy2d, neg);
    return t;
}

// ----- variable-time Straus -----

/**
 * Width-5 non-adjacent form of a scalar below 2^253: odd digits in
 * [-15, 15], any two non-zero digits at least 5 positions apart.
 */
void
wnaf5(int out[256], const std::uint8_t s[32])
{
    u64 w[5] = {0, 0, 0, 0, 0};
    for (int i = 0; i < 32; ++i)
        w[i / 8] |= static_cast<u64>(s[i]) << (8 * (i % 8));
    std::memset(out, 0, 256 * sizeof(int));

    u64 carry = 0;
    for (int pos = 0; pos < 256;) {
        const int word = pos / 64, bit = pos % 64;
        u64 bits = w[word] >> bit;
        if (bit > 59)
            bits |= w[word + 1] << (64 - bit);
        const u64 window = carry + (bits & 31);
        if ((window & 1) == 0) {
            ++pos;
            continue;
        }
        if (window < 16) {
            carry = 0;
            out[pos] = static_cast<int>(window);
        } else {
            carry = 1;
            out[pos] = static_cast<int>(window) - 32;
        }
        pos += 5;
    }
}

} // namespace

GeP3
geIdentity()
{
    return {feZero(), feOne(), feOne(), feZero()};
}

GeP3
geBase()
{
    return {
        {0x62d608f25d51aULL, 0x412a4b4f6592aULL, 0x75b7171a4b31dULL,
         0x1ff60527118feULL, 0x216936d3cd6e5ULL},
        {0x6666666666658ULL, 0x4ccccccccccccULL, 0x1999999999999ULL,
         0x3333333333333ULL, 0x6666666666666ULL},
        feOne(),
        {0x68ab3a5b7dda3ULL, 0x00eea2a5eadbbULL, 0x2af8df483c27eULL,
         0x332b375274732ULL, 0x67875f0fd78b7ULL},
    };
}

GeP3
geAdd(const GeP3 &p, const GeP3 &q)
{
    return p1p1ToP3(add(p, toCached(q)));
}

GeP3
geDbl(const GeP3 &p)
{
    return p1p1ToP3(dbl(p3ToP2(p)));
}

GeP3
geNeg(const GeP3 &p)
{
    return {feNeg(p.x), p.y, p.z, feNeg(p.t)};
}

bool
geEqual(const GeP3 &p, const GeP3 &q)
{
    return feEqual(feMul(p.x, q.z), feMul(q.x, p.z)) &&
           feEqual(feMul(p.y, q.z), feMul(q.y, p.z));
}

void
geCompress(std::uint8_t out[32], const GeP3 &p)
{
    Fe zinv = feInvert(p.z);
    Fe x = feMul(p.x, zinv);
    Fe y = feMul(p.y, zinv);
    feToBytes(out, y);
    out[31] = static_cast<std::uint8_t>(out[31] | (feIsNegative(x) << 7));
}

bool
geDecompress(GeP3 &out, const std::uint8_t in[32])
{
    const bool sign = (in[31] & 0x80) != 0;
    Fe y = feFromBytes(in);

    // feFromBytes reduces mod p; a y that does not round-trip was
    // not canonical.
    std::uint8_t canon[32];
    feToBytes(canon, y);
    canon[31] = static_cast<std::uint8_t>(canon[31] | (in[31] & 0x80));
    if (std::memcmp(canon, in, 32) != 0)
        return false;

    // x^2 = u / v with u = y^2 - 1, v = d y^2 + 1;
    // candidate x = u v^3 (u v^7)^((p-5)/8).
    Fe y2 = feSq(y);
    Fe u = feSub(y2, feOne());
    Fe v = feAdd(feMul(kD, y2), feOne());
    Fe v3 = feMul(feSq(v), v);
    Fe v7 = feMul(feSq(v3), v);
    Fe x = feMul(feMul(u, v3), fePow2523(feMul(u, v7)));

    Fe vx2 = feMul(v, feSq(x));
    if (!feEqual(vx2, u)) {
        if (!feEqual(vx2, feNeg(u)))
            return false; // u/v is not a square: not on the curve
        x = feMul(x, feSqrtM1());
    }
    if (feIsZero(x) && sign)
        return false; // -0 is not a valid encoding
    if (feIsNegative(x) != sign)
        x = feNeg(x);

    out = {x, y, feOne(), feMul(x, y)};
    return true;
}

// htlint: hot-loop
GeP3
geScalarMultBase(const std::uint8_t scalar[32])
{
    // Signed radix-16 digits e[i] in [-8, 8): scalar = sum e[i] 16^i.
    int e[64];
    for (int i = 0; i < 32; ++i) {
        e[2 * i] = scalar[i] & 15;
        e[2 * i + 1] = (scalar[i] >> 4) & 15;
    }
    int carry = 0;
    for (int i = 0; i < 63; ++i) {
        e[i] += carry;
        carry = (e[i] + 8) >> 4;
        e[i] -= carry << 4;
    }
    e[63] += carry;

    // sum over odd i, times 16, plus sum over even i; digit i uses
    // row i / 2 because 16^i = 16^(i mod 2) * 256^(i / 2).
    GeP3 h = geIdentity();
    for (int i = 1; i < 64; i += 2)
        h = p1p1ToP3(madd(h, selectComb(i / 2, e[i])));
    GeP2 s = p3ToP2(h);
    s = p1p1ToP2(dbl(s));
    s = p1p1ToP2(dbl(s));
    s = p1p1ToP2(dbl(s));
    h = p1p1ToP3(dbl(s));
    for (int i = 0; i < 64; i += 2)
        h = p1p1ToP3(madd(h, selectComb(i / 2, e[i])));
    return h;
}

// htlint: hot-loop
GeP3
geDoubleScalarMultVartime(const std::uint8_t s[32], const std::uint8_t k[32],
                          const GeP3 &a)
{
    // Branches and table indices below follow the scalar digits.
    // That is safe only because every input is public: in Ed25519
    // verification s is the signature's S, k = H(R || A || M) and A
    // the public key.
    int sn[256], kn[256];
    wnaf5(sn, s);
    wnaf5(kn, k);

    // Odd multiples of -A: ai[j] = (2j + 1) * (-A).
    GeCached ai[kOddMultiples];
    GeP3 neg_a = geNeg(a);
    GeP3 neg_a2 = geDbl(neg_a);
    ai[0] = toCached(neg_a);
    for (int j = 1; j < kOddMultiples; ++j)
        ai[j] = toCached(p1p1ToP3(add(neg_a2, ai[j - 1])));
    const GePrecomp *bi = baseTables().odd;

    int top = 255;
    while (top >= 0 && sn[top] == 0 && kn[top] == 0)
        --top;

    GeP1P1 r = {feZero(), feOne(), feOne(), feOne()};
    for (int i = top; i >= 0; --i) {
        r = dbl(p1p1ToP2(r));
        if (kn[i] > 0)
            r = add(p1p1ToP3(r), ai[kn[i] / 2]);
        else if (kn[i] < 0)
            r = add(p1p1ToP3(r), negCached(ai[-kn[i] / 2]));
        if (sn[i] > 0)
            r = madd(p1p1ToP3(r), bi[sn[i] / 2]);
        else if (sn[i] < 0)
            r = madd(p1p1ToP3(r), negPrecomp(bi[-sn[i] / 2]));
    }
    return p1p1ToP3(r);
}

} // namespace hypertee
