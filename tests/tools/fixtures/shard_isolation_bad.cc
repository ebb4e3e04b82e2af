// Fixture: the shared-state findings of the retired shard-isolation
// rule, now reached from a shard body. Linted under src/ or bench/,
// shard-escape must report each of the four: a global Random, a
// static EventQueue, a static function-local Random, and the
// function-local static behind a singleton that has no lock.

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/shard.hh"

namespace hypertee
{

Random g_rng{42}; // global mutable RNG: draw order depends on scheduling

static EventQueue g_queue; // shared queue across shards

unsigned
pickWorker()
{
    // Shared across every shard that lands on this code path.
    static Random worker_rng{7};
    return static_cast<unsigned>(worker_rng.next() % 8);
}

// A process-wide registry with no lock: every shard bumps one count.
struct Registry
{
    static Registry &
    instance()
    {
        static Registry registry;
        return registry;
    }

    unsigned hits = 0;
};

void
shardBody(ShardContext &)
{
    g_rng.next();
    g_queue.now();
    pickWorker();
    ++Registry::instance().hits;
}

} // namespace hypertee
