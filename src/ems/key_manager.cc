#include "ems/key_manager.hh"

#include "crypto/ed25519.hh"
#include "crypto/hmac.hh"
#include "sim/logging.hh"

namespace hypertee
{

namespace
{

const Bytes &
checkedEkSeed(const EFuse &efuse)
{
    fatalIf(efuse.endorsementSeed.size() != 32,
            "EK seed must be 32 bytes");
    return efuse.endorsementSeed;
}

} // namespace

KeyManager::KeyManager(const EFuse &efuse)
    : _endorsementKey(checkedEkSeed(efuse)), _sealedKey(efuse.sealedKey)
{
    fatalIf(_sealedKey.size() != 32, "SK must be 32 bytes");
}

Bytes
KeyManager::derive(const char *label, const Bytes &context,
                   std::size_t len) const
{
    Bytes info = bytesFromString(label);
    info.insert(info.end(), context.begin(), context.end());
    return hkdf(_sealedKey.get(), bytesFromString("hypertee-kdf"),
                info, len);
}

Bytes
KeyManager::endorsementPublicKey() const
{
    return ed25519PublicKey(_endorsementKey);
}

Bytes
KeyManager::signWithEk(const Bytes &message) const
{
    return ed25519Sign(_endorsementKey, message);
}

Bytes
KeyManager::attestationKeySeed(const Bytes &salt) const
{
    return derive("attestation-key", salt, 32);
}

Bytes
KeyManager::attestationPublicKey(const Bytes &salt) const
{
    return ed25519PublicKey(attestationKeySeed(salt));
}

Bytes
KeyManager::signWithAk(const Bytes &salt, const Bytes &message) const
{
    return ed25519Sign(attestationKeySeed(salt), message);
}

Bytes
KeyManager::memoryKey(const Bytes &measurement) const
{
    return derive("memory-key", measurement, 16);
}

Bytes
KeyManager::sealingKey(const Bytes &measurement) const
{
    return derive("sealing-key", measurement, 32);
}

Bytes
KeyManager::reportKey(const Bytes &challenger_measurement) const
{
    return derive("report-key", challenger_measurement, 32);
}

Bytes
KeyManager::sharedMemoryKey(EnclaveId sender, ShmId shm) const
{
    Bytes ctx;
    for (int i = 0; i < 4; ++i)
        ctx.push_back(static_cast<std::uint8_t>(sender >> (8 * i)));
    for (int i = 0; i < 4; ++i)
        ctx.push_back(static_cast<std::uint8_t>(shm >> (8 * i)));
    return derive("shm-key", ctx, 16);
}

} // namespace hypertee
