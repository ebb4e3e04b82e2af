// Fixture: a KDF-derived memory key is re-encoded with toHex (taint
// preserving) and handed to the trace, once through an HT_TRACE macro
// and once as a span name. The Chrome trace file is host-visible, so
// both leak the enclave's memory key.
#include "ems/key_manager.hh"
#include "sim/trace.hh"

namespace hypertee
{

void
traceKey(const KeyManager &km, const Bytes &meas)
{
    Bytes key = km.memoryKey(meas);
    HT_TRACE_INSTANT1("ems", "configure", "key", toHex(key)); // BAD
}

void
traceKeySpan(const KeyManager &km, const Bytes &meas, Tick t)
{
    Bytes key = km.memoryKey(meas);
    TraceSink::global().span(TraceCategory::Ems, toHex(key), t,
                             t + 1); // BAD
}

} // namespace hypertee
