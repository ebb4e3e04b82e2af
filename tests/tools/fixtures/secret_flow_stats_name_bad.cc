// Fixture: a stat named after key material. ShardStats exports every
// stat name verbatim as a --stats-json key, so naming a counter with
// the hex of a derived key leaks that key to the host.
#include "crypto/bytes.hh"
#include "ems/key_manager.hh"
#include "sim/shard.hh"

namespace hypertee
{

void
countKeyUse(const KeyManager &km, const Bytes &meas, ShardStats &stats)
{
    Bytes key = km.memoryKey(meas);
    ++stats.scalar("uses." + toHex(key)); // BAD
}

} // namespace hypertee
