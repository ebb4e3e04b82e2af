/**
 * @file
 * HyperTEE SDK: the programmer-facing API (Figure 2).
 *
 * A HostApp builds an EnclaveHandle, loads pages, finalizes the
 * measurement, and enters the enclave; every method maps onto one
 * Table II primitive routed through the core's EMCall gate. Each
 * call's round-trip latency is charged to the owning core so
 * workload timing includes management overhead, exactly like the
 * paper's Enclave-* measurement scenarios.
 */

#ifndef HYPERTEE_CORE_SDK_HH
#define HYPERTEE_CORE_SDK_HH

#include "core/system.hh"
#include "ems/attestation.hh"

namespace hypertee
{

/** HostApp-side handle to one enclave bound to one CS core. */
class EnclaveHandle
{
  public:
    /**
     * ECREATE on @p core. Returns an invalid handle (id()==0) when
     * creation is rejected.
     * @param charge_core whether primitive round-trip latency stalls
     *        the owning core (set false for pure-timing harnesses).
     */
    EnclaveHandle(HyperTeeSystem &sys, unsigned core,
                  const EnclaveConfig &config, bool charge_core = true);

    EnclaveId id() const { return _id; }
    bool valid() const { return _id != invalidEnclaveId; }

    /** EADD one page of code/data at @p va. */
    bool addPage(Addr va, const Bytes &content, std::uint64_t perms);

    /** EADD a whole image starting at @p base (zero-padded tail). */
    bool addImage(const Bytes &image, Addr base, std::uint64_t perms);

    /** EMEAS: finalize and return the measurement. */
    Bytes measure();

    /** EENTER / EEXIT / ERESUME. */
    bool enter();
    bool exit();
    bool resume();

    /** EALLOC: returns the VA of the new region (0 on failure). */
    Addr alloc(std::size_t pages);

    /** EALLOC at a fixed VA (page-fault handling path). */
    Addr allocAt(Addr va, std::size_t pages);

    /** EFREE. */
    bool free(Addr va, std::size_t pages);

    /** ESHMGET / ESHMSHR / ESHMAT / ESHMDT / ESHMDES. */
    ShmId shmCreate(std::size_t pages, std::uint64_t max_perms);
    bool shmShare(ShmId shm, EnclaveId receiver, std::uint64_t perms);
    Addr shmAttach(ShmId shm, std::uint64_t perms);
    bool shmDetach(ShmId shm);
    bool shmDestroy(ShmId shm);

    /** EATTEST: returns the serialized quote (empty on failure). */
    Bytes attest(const Bytes &nonce16, const Bytes &verifier_dh_pub32);

    /** EDESTROY (invoked by the OS on the HostApp's behalf). */
    bool destroy();

    PrimStatus lastStatus() const { return _lastStatus; }
    Tick lastLatency() const { return _lastLatency; }
    Tick totalPrimitiveLatency() const { return _totalLatency; }

    /** Stop charging primitive latency to the core (pure timing). */
    void setChargeCore(bool on) { _chargeCore = on; }

  private:
    InvokeResult call(PrimitiveOp op, PrivMode mode, WordList args,
                      Bytes payload = {});

    HyperTeeSystem *_sys;
    unsigned _core;
    EnclaveId _id = invalidEnclaveId;
    PrimStatus _lastStatus = PrimStatus::Ok;
    Tick _lastLatency = 0;
    Tick _totalLatency = 0;
    bool _chargeCore = true;
};

/**
 * Remote-user side of SIGMA remote attestation (Section VI): owns
 * the nonce and the ephemeral DH share, verifies quotes against the
 * CA-certified EK, and derives the session key.
 */
class RemoteVerifier
{
  public:
    explicit RemoteVerifier(std::uint64_t seed);

    const Bytes &nonce() const { return _nonce; }
    const Bytes &dhPublic() const { return _dhPub; }

    /** Challenge payload to hand to EnclaveHandle::attest(). */
    Bytes challenge() const;

    /** Full quote verification (EK chain, AK sig, measurement). */
    bool verify(const Bytes &quote_payload, const Bytes &ek_public,
                const Bytes &expected_measurement) const;

    /** Post-verification session key (HKDF over the DH secret). */
    Bytes sessionKey(const Bytes &quote_payload) const;

  private:
    Bytes _nonce;
    Bytes _dhPriv;
    Bytes _dhPub;
};

} // namespace hypertee

#endif // HYPERTEE_CORE_SDK_HH
