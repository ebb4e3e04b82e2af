/**
 * @file
 * SHA-256 (FIPS 180-4). Used for enclave measurement (EMEAS), key
 * derivation, HMAC, and attestation report digests. On x86-64 hosts
 * with the SHA extensions the compression runs on SHA-NI
 * (sha256_kernels.hh); that changes host time only, never a digest or
 * simulated time, which CryptoEngine charges.
 */

#ifndef HYPERTEE_CRYPTO_SHA256_HH
#define HYPERTEE_CRYPTO_SHA256_HH

#include <array>
#include <cstdint>

#include "crypto/bytes.hh"

namespace hypertee
{

class Sha256
{
  public:
    static constexpr std::size_t digestSize = 32;
    static constexpr std::size_t blockSize = 64;

    Sha256();

    /** Absorb more message bytes. */
    void update(const std::uint8_t *data, std::size_t len);
    void update(const Bytes &data) { update(data.data(), data.size()); }

    /** Finish and return the 32-byte digest; the object is spent. */
    std::array<std::uint8_t, digestSize> finish();

    /** One-shot convenience. */
    static Bytes digest(const Bytes &data);
    static Bytes digest(const std::uint8_t *data, std::size_t len);

  private:
    std::uint32_t _state[8];
    std::uint64_t _bitLen = 0;
    std::uint8_t _buffer[blockSize];
    std::size_t _bufLen = 0;
};

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_SHA256_HH
