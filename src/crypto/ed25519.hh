/**
 * @file
 * Ed25519 signatures (RFC 8032), used by the EMS to sign platform and
 * enclave attestation certificates with the Endorsement Key (EK) and
 * the derived Attestation Key (AK).
 *
 * Key generation and signing run in constant time (the fixed-base
 * comb of ge25519 and a branch-free mod-L reduction); verification
 * handles only public values and uses a faster variable-time path.
 */

#ifndef HYPERTEE_CRYPTO_ED25519_HH
#define HYPERTEE_CRYPTO_ED25519_HH

#include "crypto/bytes.hh"

namespace hypertee
{

/**
 * A 32-byte seed expanded once (RFC 8032, Section 5.1.5): the clamped
 * secret scalar, the nonce prefix and the public key. A key that signs
 * more than once keeps one of these, so each signature skips the
 * seed's SHA-512 and its fixed-base scalar multiplication. The secret
 * halves are wiped on destruction.
 */
class Ed25519Key
{
  public:
    explicit Ed25519Key(const Bytes &seed);
    Ed25519Key(const Ed25519Key &) = default;
    Ed25519Key &operator=(const Ed25519Key &) = default;
    ~Ed25519Key();

  private:
    friend Bytes ed25519PublicKey(const Ed25519Key &key);
    friend Bytes ed25519Sign(const Ed25519Key &key, const Bytes &message);

    std::uint8_t _scalar[32]; ///< clamped secret scalar a
    std::uint8_t _prefix[32]; ///< nonce prefix
    std::uint8_t _publicKey[32];
};

/** The 32-byte public key of @p key. */
Bytes ed25519PublicKey(const Ed25519Key &key);

/** Sign @p message with @p key; 64-byte result. */
Bytes ed25519Sign(const Ed25519Key &key, const Bytes &message);

/** Derive the 32-byte public key for a 32-byte seed. */
Bytes ed25519PublicKey(const Bytes &seed);

/** Sign @p message with the key seeded by @p seed; 64-byte result. */
Bytes ed25519Sign(const Bytes &seed, const Bytes &message);

/** Verify a 64-byte signature against a 32-byte public key. */
bool ed25519Verify(const Bytes &public_key, const Bytes &message,
                   const Bytes &signature);

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_ED25519_HH
