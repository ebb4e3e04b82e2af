// Fixture: a Distribution held by value in a bench. ShardStats is the
// only container the stats export reads, so this one would silently
// vanish from the --stats-json output.
#include "sim/stats.hh"

namespace hypertee
{

void
runBench()
{
    Distribution lat; // BAD: outside every ShardStats
    lat.sample(1.0);
}

} // namespace hypertee
