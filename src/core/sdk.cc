#include "core/sdk.hh"

#include "crypto/hmac.hh"
#include "crypto/x25519.hh"
#include "sim/logging.hh"

namespace hypertee
{

EnclaveHandle::EnclaveHandle(HyperTeeSystem &sys, unsigned core,
                             const EnclaveConfig &config,
                             bool charge_core)
    : _sys(&sys), _core(core), _chargeCore(charge_core)
{
    InvokeResult r = call(PrimitiveOp::ECreate, PrivMode::Supervisor,
                          {config.stackPages, config.heapPages,
                           config.maxShmPages});
    if (r.accepted && r.response.status == PrimStatus::Ok)
        _id = static_cast<EnclaveId>(r.response.results.at(0));
}

InvokeResult
EnclaveHandle::call(PrimitiveOp op, PrivMode mode, WordList args,
                    Bytes payload)
{
    InvokeResult r = _sys->emCall(_core).invoke(op, mode, std::move(args),
                                                std::move(payload));
    _lastStatus = r.response.status;
    _lastLatency = r.latency;
    _totalLatency += r.latency;
    if (_chargeCore)
        _sys->core(_core).chargeStall(r.latency);
    return r;
}

bool
EnclaveHandle::addPage(Addr va, const Bytes &content, std::uint64_t perms)
{
    Bytes page = content;
    page.resize(pageSize, 0);
    InvokeResult r = call(PrimitiveOp::EAdd, PrivMode::Supervisor,
                          {_id, va, perms}, std::move(page));
    return r.accepted && r.response.status == PrimStatus::Ok;
}

bool
EnclaveHandle::addImage(const Bytes &image, Addr base,
                        std::uint64_t perms)
{
    for (Addr off = 0; off < image.size(); off += pageSize) {
        auto first = image.begin() + off;
        auto last = image.begin() +
                    std::min<Addr>(off + pageSize, image.size());
        if (!addPage(base + off, Bytes(first, last), perms))
            return false;
    }
    return true;
}

Bytes
EnclaveHandle::measure()
{
    InvokeResult r =
        call(PrimitiveOp::EMeas, PrivMode::Supervisor, {_id});
    if (!r.accepted || r.response.status != PrimStatus::Ok)
        return {};
    return r.response.payload;
}

bool
EnclaveHandle::enter()
{
    InvokeResult r =
        call(PrimitiveOp::EEnter, PrivMode::Supervisor, {_id});
    return r.accepted && r.response.status == PrimStatus::Ok;
}

bool
EnclaveHandle::exit()
{
    InvokeResult r = call(PrimitiveOp::EExit, PrivMode::User, {});
    return r.accepted && r.response.status == PrimStatus::Ok;
}

bool
EnclaveHandle::resume()
{
    InvokeResult r =
        call(PrimitiveOp::EResume, PrivMode::User, {_id});
    return r.accepted && r.response.status == PrimStatus::Ok;
}

Addr
EnclaveHandle::alloc(std::size_t pages)
{
    InvokeResult r = call(PrimitiveOp::EAlloc, PrivMode::User, {pages});
    if (!r.accepted || r.response.status != PrimStatus::Ok)
        return 0;
    return r.response.results.at(0);
}

Addr
EnclaveHandle::allocAt(Addr va, std::size_t pages)
{
    InvokeResult r =
        call(PrimitiveOp::EAlloc, PrivMode::User, {pages, va});
    if (!r.accepted || r.response.status != PrimStatus::Ok)
        return 0;
    return r.response.results.at(0);
}

bool
EnclaveHandle::free(Addr va, std::size_t pages)
{
    InvokeResult r =
        call(PrimitiveOp::EFree, PrivMode::User, {va, pages});
    return r.accepted && r.response.status == PrimStatus::Ok;
}

ShmId
EnclaveHandle::shmCreate(std::size_t pages, std::uint64_t max_perms)
{
    InvokeResult r = call(PrimitiveOp::EShmGet, PrivMode::User,
                          {pages, max_perms});
    if (!r.accepted || r.response.status != PrimStatus::Ok)
        return 0;
    return static_cast<ShmId>(r.response.results.at(0));
}

bool
EnclaveHandle::shmShare(ShmId shm, EnclaveId receiver,
                        std::uint64_t perms)
{
    InvokeResult r = call(PrimitiveOp::EShmShr, PrivMode::User,
                          {shm, receiver, perms});
    return r.accepted && r.response.status == PrimStatus::Ok;
}

Addr
EnclaveHandle::shmAttach(ShmId shm, std::uint64_t perms)
{
    InvokeResult r =
        call(PrimitiveOp::EShmAt, PrivMode::User, {shm, perms});
    if (!r.accepted || r.response.status != PrimStatus::Ok)
        return 0;
    return r.response.results.at(0);
}

bool
EnclaveHandle::shmDetach(ShmId shm)
{
    InvokeResult r = call(PrimitiveOp::EShmDt, PrivMode::User, {shm});
    return r.accepted && r.response.status == PrimStatus::Ok;
}

bool
EnclaveHandle::shmDestroy(ShmId shm)
{
    InvokeResult r = call(PrimitiveOp::EShmDes, PrivMode::User, {shm});
    return r.accepted && r.response.status == PrimStatus::Ok;
}

Bytes
EnclaveHandle::attest(const Bytes &nonce16,
                      const Bytes &verifier_dh_pub32)
{
    panicIf(nonce16.size() != 16, "attest nonce must be 16 bytes");
    panicIf(verifier_dh_pub32.size() != 32,
            "verifier DH public must be 32 bytes");
    Bytes payload = nonce16;
    payload.insert(payload.end(), verifier_dh_pub32.begin(),
                   verifier_dh_pub32.end());
    InvokeResult r = call(PrimitiveOp::EAttest, PrivMode::User, {},
                          std::move(payload));
    if (!r.accepted || r.response.status != PrimStatus::Ok)
        return {};
    return r.response.payload;
}

bool
EnclaveHandle::destroy()
{
    InvokeResult r =
        call(PrimitiveOp::EDestroy, PrivMode::Supervisor, {_id});
    return r.accepted && r.response.status == PrimStatus::Ok;
}

// -------------------------------------------------------- RemoteVerifier

RemoteVerifier::RemoteVerifier(std::uint64_t seed)
{
    Random rng(seed);
    _nonce.resize(16);
    for (auto &b : _nonce)
        b = static_cast<std::uint8_t>(rng.next());
    _dhPriv.resize(32);
    for (auto &b : _dhPriv)
        b = static_cast<std::uint8_t>(rng.next());
    _dhPub = x25519Base(_dhPriv);
}

Bytes
RemoteVerifier::challenge() const
{
    return _nonce;
}

bool
RemoteVerifier::verify(const Bytes &quote_payload, const Bytes &ek_public,
                       const Bytes &expected_measurement) const
{
    AttestationQuote quote;
    if (!AttestationQuote::deserialize(quote_payload, quote))
        return false;
    return verifyQuote(quote, ek_public, expected_measurement, _nonce);
}

Bytes
RemoteVerifier::sessionKey(const Bytes &quote_payload) const
{
    AttestationQuote quote;
    if (!AttestationQuote::deserialize(quote_payload, quote))
        return {};
    Bytes shared = x25519(_dhPriv, quote.dhPublic);
    return hkdf(shared, _nonce, bytesFromString("sigma-session"), 32);
}

} // namespace hypertee
