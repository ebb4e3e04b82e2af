// Fixture: only a digest of the key reaches the trace. sha3_256 is a
// sanitizer -- the digest reveals nothing computationally useful, so
// tracing it for correlation/debugging is fine. Walking the key with
// std::begin/std::end is container access, not a trace sink.
#include "ems/key_manager.hh"
#include "sim/trace.hh"

namespace hypertee
{

void
traceKeyDigest(const KeyManager &km, const Bytes &meas)
{
    Bytes key = km.memoryKey(meas);
    HT_TRACE_INSTANT1("ems", "configure", "key", toHex(sha3_256(key)));
    (void)std::begin(key);
    (void)std::end(key);
}

} // namespace hypertee
