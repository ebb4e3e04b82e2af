#include "crypto/sha256.hh"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernels.hh"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace hypertee
{

namespace
{

alignas(16) constexpr std::uint32_t kTable[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

Sha256::Sha256()
{
    _state[0] = 0x6a09e667;
    _state[1] = 0xbb67ae85;
    _state[2] = 0x3c6ef372;
    _state[3] = 0xa54ff53a;
    _state[4] = 0x510e527f;
    _state[5] = 0x9b05688c;
    _state[6] = 0x1f83d9ab;
    _state[7] = 0x5be0cd19;
}

void
sha256CompressScalar(std::uint32_t state[8], const std::uint8_t *data,
                     std::size_t nblocks)
{
    for (; nblocks > 0; --nblocks, data += Sha256::blockSize) {
        const std::uint8_t *block = data;
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (std::uint32_t(block[4 * i]) << 24) |
                   (std::uint32_t(block[4 * i + 1]) << 16) |
                   (std::uint32_t(block[4 * i + 2]) << 8) |
                   std::uint32_t(block[4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                               (w[i - 15] >> 3);
            std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                               (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2],
                      d = state[3], e = state[4], f = state[5],
                      g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            std::uint32_t ch = (e & f) ^ (~e & g);
            std::uint32_t temp1 = h + s1 + ch + kTable[i] + w[i];
            std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)

namespace
{

// SHA-NI keeps the working variables as two vectors, ABEF and CDGH
// (named from lane 3 down), and sha256rnds2 runs two rounds on the
// low two lanes of a W+K vector. Every function here carries the
// target attribute so no -march flag is needed; only the dispatcher
// calls into them, after CPUID says the instructions exist.

/** Rounds t..t+3 on message words @p w (W[t..t+3]). */
__attribute__((target("sha,sse4.1,ssse3"))) inline void
shaNiRounds(__m128i &abef, __m128i &cdgh, __m128i w, std::size_t t)
{
    const __m128i wk = _mm_add_epi32(
        w, _mm_load_si128(reinterpret_cast<const __m128i *>(kTable + t)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/** Four big-endian message words. */
__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i
shaNiLoad(const std::uint8_t *p)
{
    const __m128i bswap = _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10,
                                        9, 8, 15, 14, 13, 12);
    return _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)), bswap);
}

/** W[t..t+3] from the four preceding message vectors, oldest first. */
__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i
shaNiSchedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3)
{
    const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                    _mm_alignr_epi8(w3, w2, 4));
    return _mm_sha256msg2_epu32(t, w3);
}

} // namespace

__attribute__((target("sha,sse4.1,ssse3"))) void
sha256CompressShaNi(std::uint32_t state[8], const std::uint8_t *data,
                    std::size_t nblocks)
{
    // state[] = A..H -> ABEF, CDGH.
    const __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    const __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; nblocks > 0; --nblocks, data += Sha256::blockSize) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w0 = shaNiLoad(data);
        __m128i w1 = shaNiLoad(data + 16);
        __m128i w2 = shaNiLoad(data + 32);
        __m128i w3 = shaNiLoad(data + 48);
        shaNiRounds(abef, cdgh, w0, 0);
        shaNiRounds(abef, cdgh, w1, 4);
        shaNiRounds(abef, cdgh, w2, 8);
        shaNiRounds(abef, cdgh, w3, 12);
        for (std::size_t t = 16; t < 64; t += 16) {
            w0 = shaNiSchedule(w0, w1, w2, w3);
            shaNiRounds(abef, cdgh, w0, t);
            w1 = shaNiSchedule(w1, w2, w3, w0);
            shaNiRounds(abef, cdgh, w1, t + 4);
            w2 = shaNiSchedule(w2, w3, w0, w1);
            shaNiRounds(abef, cdgh, w2, t + 8);
            w3 = shaNiSchedule(w3, w0, w1, w2);
            shaNiRounds(abef, cdgh, w3, t + 12);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // ABEF, CDGH -> state[] = A..H.
    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#endif // __x86_64__

const char *
sha256KernelName(Sha256Kernel kernel)
{
    return kernel == Sha256Kernel::ShaNi ? "shani" : "scalar";
}

namespace
{

/** SHA (leaf 7 EBX bit 29), SSSE3 and SSE4.1 (leaf 1 ECX bits 9, 19). */
bool
cpuHasShaNi()
{
#if defined(__x86_64__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_max(0, nullptr) < 7)
        return false;
    __cpuid(1, eax, ebx, ecx, edx);
    const bool ssse3 = (ecx & (1u << 9)) != 0;
    const bool sse41 = (ecx & (1u << 19)) != 0;
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    const bool sha = (ebx & (1u << 29)) != 0;
    return sha && ssse3 && sse41;
#else
    return false;
#endif
}

} // namespace

Sha256Kernel
sha256ActiveKernel()
{
    // Immutable once set, and set by the first hash on any thread (a
    // magic static), so no static initializer can see it unchosen.
    static const Sha256Kernel kernel =
        cpuHasShaNi() ? Sha256Kernel::ShaNi : Sha256Kernel::Scalar;
    return kernel;
}

namespace
{

void
compress(std::uint32_t state[8], const std::uint8_t *data,
         std::size_t nblocks)
{
#if defined(__x86_64__)
    if (sha256ActiveKernel() == Sha256Kernel::ShaNi) {
        sha256CompressShaNi(state, data, nblocks);
        return;
    }
#endif
    sha256CompressScalar(state, data, nblocks);
}

} // namespace

void
Sha256::update(const std::uint8_t *data, std::size_t len)
{
    if (len == 0)
        return;
    _bitLen += std::uint64_t(len) * 8;
    if (_bufLen > 0) {
        const std::size_t take = std::min(len, blockSize - _bufLen);
        std::memcpy(_buffer + _bufLen, data, take);
        _bufLen += take;
        data += take;
        len -= take;
        if (_bufLen < blockSize)
            return;
        compress(_state, _buffer, 1);
        _bufLen = 0;
    }
    // Whole blocks go straight from the caller's buffer.
    const std::size_t nblocks = len / blockSize;
    if (nblocks > 0) {
        compress(_state, data, nblocks);
        data += nblocks * blockSize;
        len -= nblocks * blockSize;
    }
    if (len > 0) {
        std::memcpy(_buffer, data, len);
        _bufLen = len;
    }
}

std::array<std::uint8_t, Sha256::digestSize>
Sha256::finish()
{
    // 0x80, zeros to byte 56 of a block, then the big-endian bit
    // length; an extra block when the 0x80 leaves no room for it.
    _buffer[_bufLen++] = 0x80;
    if (_bufLen > blockSize - 8) {
        std::memset(_buffer + _bufLen, 0, blockSize - _bufLen);
        compress(_state, _buffer, 1);
        _bufLen = 0;
    }
    std::memset(_buffer + _bufLen, 0, blockSize - 8 - _bufLen);
    for (std::size_t i = 0; i < 8; ++i)
        _buffer[blockSize - 8 + i] =
            static_cast<std::uint8_t>(_bitLen >> (56 - 8 * i));
    compress(_state, _buffer, 1);

    std::array<std::uint8_t, digestSize> out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(_state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(_state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(_state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(_state[i]);
    }
    return out;
}

Bytes
Sha256::digest(const std::uint8_t *data, std::size_t len)
{
    Sha256 h;
    h.update(data, len);
    auto d = h.finish();
    return Bytes(d.begin(), d.end());
}

Bytes
Sha256::digest(const Bytes &data)
{
    return digest(data.data(), data.size());
}

} // namespace hypertee
