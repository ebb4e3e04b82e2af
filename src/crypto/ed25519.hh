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

/** Derive the 32-byte public key for a 32-byte seed. */
Bytes ed25519PublicKey(const Bytes &seed);

/** Sign @p message with the key seeded by @p seed; 64-byte result. */
Bytes ed25519Sign(const Bytes &seed, const Bytes &message);

/** Verify a 64-byte signature against a 32-byte public key. */
bool ed25519Verify(const Bytes &public_key, const Bytes &message,
                   const Bytes &signature);

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_ED25519_HH
