#include "emcall/emcall.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace hypertee
{

EmCall::EmCall(Mailbox *mailbox, const EmCallParams &params,
               std::uint64_t jitter_seed)
    : _mailbox(mailbox), _p(params), _rng(jitter_seed),
      _nextReqId(params.reqIdBase + 1)
{
    panicIf(mailbox == nullptr, "EMCall needs the mailbox");
}

Tick
EmCall::cyclesToTicks(Cycles c) const
{
    return c * (ticksPerSecond / _p.csFreqHz);
}

InvokeResult
EmCall::invoke(PrimitiveOp op, PrivMode mode, WordList args,
               Bytes payload)
{
    InvokeResult result;
    result.latency = cyclesToTicks(_p.gateEntryCycles);

    // The gate owns the round trip, so it owns the trace span: one
    // "EMCALL <prim>" span covers gate entry -> mailbox enqueue ->
    // doorbell/EMS service -> response poll -> gate exit, with the
    // mailbox and EMS events nesting inside it on the timeline. It is
    // recorded on the way out, once the round-trip latency is known.
    auto &trace = TraceSink::global();
    const Tick t0 = trace.now();

    auto close_span = [&](bool accepted) {
        if (trace.on(TraceCategory::EmCall)) {
            trace.span(TraceCategory::EmCall,
                       std::string("EMCALL ") + primitiveName(op), t0,
                       t0 + result.latency);
            trace.arg("accepted", accepted ? 1.0 : 0.0);
        }
        // Keep the timeline moving even when only other categories
        // are recording, so their events stay ordered.
        if (trace.enabled())
            trace.advanceTo(t0 + result.latency);
    };

    // Protection 1: cross-privilege requests are blocked at the gate.
    if (mode != requiredPrivilege(op) && mode != PrivMode::Machine) {
        ++_blockedPriv;
        result.accepted = false;
        result.response.status = PrimStatus::PermissionDenied;
        close_span(false);
        return result;
    }

    // Protection 2: the gate encapsulates the *tracked* identity.
    const std::uint64_t req_id = _nextReqId++;
    PrimitiveRequest req;
    req.reqId = req_id;
    req.op = op;
    req.caller = _currentEnclave;
    req.mode = mode;
    req.args = std::move(args);
    req.payload = std::move(payload);

    // Scheduling obfuscation: requests leave the Tx queue with a
    // randomized dispatch slot.
    if (_obfuscate)
        result.latency += _rng.below(_p.pollJitterMax);

    result.latency += _mailbox->transferLatency();
    // Park the timeline at the enqueue point so the mailbox/EMS
    // events emitted inside pushRequest land at the right offset
    // within this span.
    if (trace.enabled())
        trace.advanceTo(t0 + result.latency);
    if (!_mailbox->pushRequest(std::move(req))) {
        result.accepted = false;
        result.response.status = PrimStatus::Busy;
        close_span(false);
        return result;
    }
    ++_issued;

    // Protection 3: poll only our own response id. The doorbell-fed
    // EMS runtime services the queue; in the functional model the
    // response is available after the doorbell returns, and the
    // serviceTime recorded by the EMS is added to the round trip.
    PrimitiveResponse resp;
    int polls = 1;
    while (!_mailbox->pollResponse(req_id, resp)) {
        ++polls;
        panicIf(polls > 1'000'000, "EMS never answered request ",
                req_id, " (", primitiveName(op), ")");
    }
    result.latency += Tick(polls) * _p.pollInterval;
    if (_obfuscate)
        result.latency += _rng.below(_p.pollJitterMax);
    result.latency += resp.completedAt; // EMS-side service time
    result.latency += _mailbox->transferLatency();
    result.latency += cyclesToTicks(_p.gateExitCycles);

    // Protection 4: atomic CS register updates on context switches.
    if (resp.status == PrimStatus::Ok) {
        if ((resp.flags & kFlagEnterEnclave) && !resp.results.empty()) {
            EnclaveId target = static_cast<EnclaveId>(resp.results[0]);
            _currentEnclave = target;
            _inEnclave = true;
            if (_hooks.switchContext)
                _hooks.switchContext(target, true);
        } else if (resp.flags & kFlagExitEnclave) {
            _currentEnclave = invalidEnclaveId;
            _inEnclave = false;
            if (_hooks.switchContext)
                _hooks.switchContext(invalidEnclaveId, false);
        }
        if ((resp.flags & kFlagFlushTlb) && _hooks.flushTlb)
            _hooks.flushTlb();
    }

    close_span(true);
    result.accepted = true;
    result.response = std::move(resp);
    return result;
}

ExcRoute
EmCall::asyncExit(ExcCause cause, std::uint64_t pc)
{
    ExcRoute r = route(cause);
    if (!_inEnclave)
        return r; // nothing enclave-side to park
    if (r == ExcRoute::ToCsOs) {
        // Park the enclave: record the resume point, restore the
        // host context atomically, and let the CS OS handle the
        // interrupt. Enclave registers would be scrubbed here.
        _aexEnclave = _currentEnclave;
        _aexPc = pc;
        _currentEnclave = invalidEnclaveId;
        _inEnclave = false;
        if (_hooks.switchContext)
            _hooks.switchContext(invalidEnclaveId, false);
    }
    // ToEms: the gate itself forwards the fault (e.g. the EALLOC
    // page-fault path); the enclave context stays live.
    return r;
}

bool
EmCall::resumeFromAex()
{
    if (_aexEnclave == invalidEnclaveId)
        return false;
    EnclaveId target = _aexEnclave;
    InvokeResult r = invoke(PrimitiveOp::EResume, PrivMode::User,
                            {target});
    if (!r.accepted || r.response.status != PrimStatus::Ok)
        return false;
    _aexEnclave = invalidEnclaveId;
    _aexPc = 0;
    return true;
}

ExcRoute
EmCall::route(ExcCause cause)
{
    switch (cause) {
      case ExcCause::PageFault:
      case ExcCause::MisalignedAccess:
        return ExcRoute::ToEms;
      case ExcCause::IllegalInstruction:
      case ExcCause::TimerInterrupt:
      case ExcCause::ExternalInterrupt:
        return ExcRoute::ToCsOs;
    }
    return ExcRoute::ToCsOs;
}

} // namespace hypertee
