/**
 * @file
 * EMCall: the trusted call gate between CS software and the EMS
 * (Section III-B).
 *
 * EMCall runs at the highest CS privilege level (machine mode in the
 * RISC-V prototype) and is the only component allowed to talk to the
 * mailbox. It implements the paper's four protections:
 *
 *  1. cross-privilege restriction — every primitive is bound to the
 *     privilege mode of Table II and other modes are rejected;
 *  2. request-forgery prevention — the current enclaveID is
 *     encapsulated by EMCall itself, never taken from the caller;
 *  3. unique request/response binding — responses can only be
 *     polled with the originating request id;
 *  4. atomic CS register update — EENTER/ERESUME/EEXIT context
 *     switches (page-table base, IS_ENCLAVE, TLB flush) happen in
 *     one uninterruptible gate invocation.
 *
 * Response retrieval polls the mailbox (never the untrusted CS
 * interrupt path) and adds randomized jitter that obfuscates EMS
 * service-time observation (Section III-C).
 */

#ifndef HYPERTEE_EMCALL_EMCALL_HH
#define HYPERTEE_EMCALL_EMCALL_HH

#include <functional>

#include "fabric/ihub.hh"
#include "fabric/primitive.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace hypertee
{

/** What invoke() hands back to the calling core. */
struct InvokeResult
{
    bool accepted = false;       ///< false: blocked at the gate
    PrimitiveResponse response;
    Tick latency = 0;            ///< full round-trip time
};

/** Exception causes EMCall routes (Section III-B). */
enum class ExcCause
{
    PageFault,
    MisalignedAccess,
    IllegalInstruction,
    TimerInterrupt,
    ExternalInterrupt,
};

enum class ExcRoute
{
    ToEms, ///< memory-management exceptions
    ToCsOs,
};

/** CS-register context-switch hooks, one gate per CS core. */
struct EmCallHooks
{
    /**
     * Atomically switch page-table base + IS_ENCLAVE + flush TLB.
     * @param enclave target context (invalidEnclaveId = host).
     */
    std::function<void(EnclaveId enclave, bool enclave_mode)>
        switchContext;
    /** Flush TLB entries after a bitmap update. */
    std::function<void()> flushTlb;
};

struct EmCallParams
{
    Cycles gateEntryCycles = 160;  ///< trap + checks + marshalling
    Cycles gateExitCycles = 120;
    Tick pollInterval = 80'000;    ///< 80 ns between response polls
    Tick pollJitterMax = 120'000;  ///< randomized obfuscation window
    std::uint64_t csFreqHz = 2'500'000'000ULL;
    /**
     * Request-id namespace base. Each core's gate gets a disjoint
     * range so ids stay unique across the shared mailbox.
     */
    std::uint64_t reqIdBase = 0;
};

class EmCall
{
  public:
    EmCall(Mailbox *mailbox, const EmCallParams &params,
           std::uint64_t jitter_seed = 0x3c0de);

    /** Install per-core context-switch hooks. */
    void setHooks(EmCallHooks hooks) { _hooks = std::move(hooks); }

    /**
     * Gate a primitive invocation.
     * @param op the primitive
     * @param mode privilege mode of the calling software
     * @param args primitive arguments (enclaveID is NOT among them;
     *             the gate adds the tracked identity itself)
     */
    InvokeResult invoke(PrimitiveOp op, PrivMode mode, WordList args,
                        Bytes payload = {});

    /** Identity tracking: which context runs on this core now. */
    EnclaveId currentEnclave() const { return _currentEnclave; }
    bool inEnclave() const { return _inEnclave; }

    /** Exception routing decision (Section III-B). */
    static ExcRoute route(ExcCause cause);

    /**
     * Asynchronous exit: an interrupt/exception arrived while an
     * enclave was running. EMCall records the cause and PC, decides
     * the route, and for CS-handled causes parks the enclave and
     * switches the core back to the host context (the state an
     * ERESUME later restores). EMS-routed causes (page faults) do
     * not leave the enclave: the gate resolves them via primitives.
     * @return the routing decision taken.
     */
    ExcRoute asyncExit(ExcCause cause, std::uint64_t pc);

    /** Is an AEX pending (enclave parked, awaiting ERESUME)? */
    bool aexPending() const { return _aexEnclave != invalidEnclaveId; }
    EnclaveId aexEnclave() const { return _aexEnclave; }
    std::uint64_t aexPc() const { return _aexPc; }

    /** ERESUME the parked enclave; false when none is pending. */
    bool resumeFromAex();

    std::uint64_t blockedCrossPrivilege() const { return _blockedPriv; }
    std::uint64_t requestsIssued() const { return _issued; }

    /** Disable the polling jitter (ablation benchmark). */
    void setObfuscation(bool on) { _obfuscate = on; }

  private:
    Tick cyclesToTicks(Cycles c) const;

    Mailbox *_mailbox;
    EmCallParams _p;
    EmCallHooks _hooks;
    Random _rng;
    std::uint64_t _nextReqId = 1;
    EnclaveId _currentEnclave = invalidEnclaveId;
    bool _inEnclave = false;
    bool _obfuscate = true;
    std::uint64_t _blockedPriv = 0;
    std::uint64_t _issued = 0;
    EnclaveId _aexEnclave = invalidEnclaveId;
    std::uint64_t _aexPc = 0;
};

} // namespace hypertee

#endif // HYPERTEE_EMCALL_EMCALL_HH
