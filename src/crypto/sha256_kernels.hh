/**
 * @file
 * The SHA-256 compression kernels behind Sha256 (internal; not part of
 * the public crypto API). Sha256 runs the portable scalar kernel on
 * every host and the x86-64 SHA-NI kernel when CPUID reports SHA,
 * SSSE3 and SSE4.1. Both produce identical state; only host time
 * differs. Simulated time comes from CryptoEngine, never from here.
 * Tests and bench_micro include this header to exercise each kernel
 * directly and to name the one in use.
 */

#ifndef HYPERTEE_CRYPTO_SHA256_KERNELS_HH
#define HYPERTEE_CRYPTO_SHA256_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace hypertee
{

enum class Sha256Kernel
{
    Scalar,
    ShaNi,
};

/** "scalar" or "shani". */
const char *sha256KernelName(Sha256Kernel kernel);

/** The kernel Sha256 runs: ShaNi when CPUID reports SHA, SSSE3 and
 *  SSE4.1, else Scalar. Chosen once, on first use. */
Sha256Kernel sha256ActiveKernel();

/** Compress @p nblocks consecutive 64-byte blocks into @p state with
 *  the portable FIPS 180-4 kernel, the reference for the other. */
void sha256CompressScalar(std::uint32_t state[8],
                          const std::uint8_t *data, std::size_t nblocks);

#if defined(__x86_64__)
/** The SHA-NI kernel. Call it only where sha256ActiveKernel() is
 *  ShaNi: on other CPUs it faults. */
void sha256CompressShaNi(std::uint32_t state[8],
                         const std::uint8_t *data, std::size_t nblocks);
#endif

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_SHA256_KERNELS_HH
