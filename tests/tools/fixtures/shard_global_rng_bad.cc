// Fixture: three namespace-scope RNGs read from a shard body. Each is
// shared by the shards that read it -- the thread_local one too, as a
// worker runs many shards in turn -- and each has a hard-coded seed,
// so shard-escape and seed-flow must both report all three.

#include "sim/random.hh"
#include "sim/shard.hh"

namespace hypertee
{

Random g_paren(42);
Random g_brace{42};
thread_local Random t_rng{3};

std::uint64_t
drawAll(ShardContext &)
{
    return g_paren.next() + g_brace.next() + t_rng.next();
}

} // namespace hypertee
