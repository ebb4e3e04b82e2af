/**
 * @file
 * Per-shard simulation state for the parallel driver.
 *
 * A shard is one independent unit of simulation work (one SLO curve,
 * one workload profile, one allocation-size sweep point). Each shard
 * owns every mutable object it touches — its own System/EventQueue
 * via whatever it constructs, its own Random stream via ShardContext
 * — so shards can run on any worker thread in any order and still
 * produce bit-identical results. The htlint `shard-escape` rule
 * (no unguarded mutable state reachable from shard code) and
 * `seed-flow` rule (every Random seeded from ShardContext or the CLI
 * seed) enforce that contract.
 *
 * ShardStats is the result side: a shard accumulates named stats it
 * owns by value; the driver merges shard results in shard-index
 * order, which reproduces the exact stat stream of a sequential run
 * (Scalar sums, Distribution sample concatenation). The merged
 * ShardStats is also what --stats-json exports.
 */

#ifndef HYPERTEE_SIM_SHARD_HH
#define HYPERTEE_SIM_SHARD_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "sim/random.hh"
#include "sim/stats.hh"

namespace hypertee
{

class JsonWriter;

/**
 * Derive the RNG seed of shard @p shard_index from @p global_seed.
 *
 * SplitMix64-style stream split: the global seed selects a SplitMix64
 * stream and the shard index selects a position in it, then one more
 * mixing round decorrelates neighbouring indices. The result depends
 * only on (global_seed, shard_index) — never on thread count or
 * scheduling — so per-shard Random streams are reproducible and
 * pairwise independent for any worker-pool size.
 */
std::uint64_t shardSeed(std::uint64_t global_seed,
                        std::uint64_t shard_index);

/** Everything a shard body may depend on besides its own locals. */
struct ShardContext
{
    std::size_t index = 0; ///< this shard's id in [0, count)
    std::size_t count = 1; ///< total shards in the run
    unsigned jobs = 1;     ///< worker threads serving the run
    std::uint64_t seed = 0; ///< shardSeed(global_seed, index)
    Random rng{0};          ///< private stream seeded with `seed`
};

/**
 * Mergeable, owning stat container: the only one in the simulator.
 *
 * ShardStats owns its Scalars and Distributions, so a shard's results
 * survive the shard body, merge across shards, and export as one
 * --stats-json group. Components sample through the references the
 * accessors return. Accessors create-on-first-use; merge() combines
 * by name.
 */
class ShardStats
{
  public:
    ShardStats() = default;
    // The mutex is identity, not state: copies/moves transfer the
    // stat maps under the source's lock and get a fresh mutex.
    ShardStats(const ShardStats &other);
    ShardStats(ShardStats &&other) noexcept;
    ShardStats &operator=(const ShardStats &other);
    ShardStats &operator=(ShardStats &&other) noexcept;

    /**
     * The stat named @p name, created on first use. Each call takes
     * the mutex and searches a string-keyed std::map, so a caller that
     * samples per event resolves its stats once and keeps the
     * reference. It stays valid until this container is destroyed or
     * assigned to: std::map nodes never move, and moving the
     * container hands them to the new one.
     */
    Scalar &scalar(const std::string &name);
    /** As scalar(), for a Distribution. */
    Distribution &distribution(const std::string &name);

    /** Lookup without creating; nullptr when absent. */
    const Scalar *findScalar(const std::string &name) const;
    const Distribution *findDistribution(const std::string &name) const;

    /**
     * Fold @p other into this container. Stats present on both sides
     * merge element-wise (sum / sample concatenation);
     * stats present only in @p other are copied. Merging shard
     * results in shard-index order is the determinism contract: the
     * outcome is independent of which worker ran which shard.
     */
    void merge(const ShardStats &other);

    /**
     * Emit this container as the JSON object of group @p name:
     * "name", then "scalars" and "distributions", each keyed by stat
     * name in sorted order; distributions carry count and, when
     * non-empty, min/mean/p50/p90/p99/p999/max. Implemented in
     * stats_export.cc beside JsonWriter.
     */
    void writeJson(JsonWriter &w, const std::string &name) const;

  private:
    /**
     * Guards the stat maps: each shard owns its ShardStats, but
     * nothing stops a bench from handing one container to several
     * shard bodies, and map insertion is not safe to race. The lock
     * makes the container structure safe; references returned by the
     * accessors are still single-writer by the shard contract.
     */
    mutable std::mutex _mutex;
    std::map<std::string, Scalar> _scalars; // htlint: guarded-by(_mutex)
    // htlint: guarded-by(_mutex)
    std::map<std::string, Distribution> _distributions;
};

} // namespace hypertee

#endif // HYPERTEE_SIM_SHARD_HH
