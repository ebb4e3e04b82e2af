/**
 * @file
 * Tests for the sharded parallel simulation driver: seed splitting,
 * worker-pool dispatch, shard-ordered result collection, ShardStats
 * merging and trace shard tagging. The end-to-end determinism
 * contract (every sharded bench gives the same bytes at any --jobs)
 * is checked by the bench registry in tests/golden/golden_test.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel.hh"
#include "sim/shard.hh"
#include "sim/stats_export.hh"
#include "sim/trace.hh"

using namespace hypertee;

namespace
{

TEST(ShardSeed, DependsOnlyOnSeedAndIndex)
{
    EXPECT_EQ(shardSeed(42, 0), shardSeed(42, 0));
    EXPECT_EQ(shardSeed(42, 17), shardSeed(42, 17));
    EXPECT_NE(shardSeed(42, 0), shardSeed(43, 0));
    EXPECT_NE(shardSeed(42, 0), shardSeed(42, 1));
}

TEST(ShardSeed, StreamsAreDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
        for (std::uint64_t i = 0; i < 1000; ++i)
            seen.insert(shardSeed(seed, i));
    }
    EXPECT_EQ(seen.size(), 3000u);
}

TEST(ShardSeed, NeighbouringIndicesDecorrelated)
{
    // Consecutive shard indices must not produce near-identical
    // seeds; the mixing rounds should flip a healthy share of bits.
    for (std::uint64_t i = 0; i < 64; ++i) {
        std::uint64_t diff = shardSeed(7, i) ^ shardSeed(7, i + 1);
        int flipped = 0;
        for (; diff; diff >>= 1)
            flipped += static_cast<int>(diff & 1);
        EXPECT_GE(flipped, 10) << "index " << i;
    }
}

TEST(Parallel, DefaultJobCountPositive)
{
    EXPECT_GE(defaultJobCount(), 1u);
}

TEST(Parallel, RunsEachShardExactlyOnce)
{
    constexpr std::size_t count = 32;
    std::vector<std::atomic<int>> hits(count);
    runShards(count, 4, 42, [&](ShardContext &ctx) {
        ASSERT_LT(ctx.index, count);
        EXPECT_EQ(ctx.count, count);
        EXPECT_EQ(ctx.jobs, 4u);
        hits[ctx.index].fetch_add(1);
    });
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
}

TEST(Parallel, ContextSeedAndRngMatchShardSeed)
{
    constexpr std::uint64_t global_seed = 1234;
    std::vector<std::uint64_t> seeds(8);
    std::vector<std::uint64_t> draws(8);
    runShards(8, 3, global_seed, [&](ShardContext &ctx) {
        seeds[ctx.index] = ctx.seed;
        draws[ctx.index] = ctx.rng.next();
    });
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(seeds[i], shardSeed(global_seed, i));
        Random reference(shardSeed(global_seed, i));
        EXPECT_EQ(draws[i], reference.next());
    }
}

TEST(Parallel, SingleJobRunsInline)
{
    const std::thread::id caller = std::this_thread::get_id();
    runShards(4, 1, 42, [&](ShardContext &ctx) {
        (void)ctx;
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(Parallel, MoreJobsThanShards)
{
    std::vector<std::atomic<int>> hits(2);
    runShards(2, 16, 42,
              [&](ShardContext &ctx) { hits[ctx.index].fetch_add(1); });
    EXPECT_EQ(hits[0].load(), 1);
    EXPECT_EQ(hits[1].load(), 1);
}

TEST(Parallel, ZeroShardsIsANoOp)
{
    bool called = false;
    runShards(0, 4, 42, [&](ShardContext &) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, ExceptionPropagatesFromWorker)
{
    auto boom = [](ShardContext &ctx) {
        if (ctx.index == 3)
            throw std::runtime_error("shard 3 failed");
    };
    EXPECT_THROW(runShards(8, 4, 42, boom), std::runtime_error);
    EXPECT_THROW(runShards(8, 1, 42, boom), std::runtime_error);
}

TEST(Parallel, ShardMapPreservesShardOrder)
{
    auto results = shardMap<std::size_t>(
        16, 4, 42, [](ShardContext &ctx) { return ctx.index * 10; });
    ASSERT_EQ(results.size(), 16u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i * 10);
}

/** Per-shard RNG consumption, independent of the worker count. */
std::vector<std::uint64_t>
rngFingerprint(unsigned jobs)
{
    return shardMap<std::uint64_t>(12, jobs, 99,
                                   [](ShardContext &ctx) {
                                       std::uint64_t acc = 0;
                                       for (int i = 0; i < 100; ++i)
                                           acc ^= ctx.rng.next();
                                       return acc;
                                   });
}

TEST(Parallel, ResultsInvariantUnderJobCount)
{
    const auto reference = rngFingerprint(1);
    EXPECT_EQ(rngFingerprint(2), reference);
    EXPECT_EQ(rngFingerprint(4), reference);
    EXPECT_EQ(rngFingerprint(7), reference);
}

TEST(ShardStats, MergeCombinesByName)
{
    ShardStats a;
    a.scalar("hits").set(3);
    a.distribution("d").sample(1);
    a.distribution("d").sample(2);

    ShardStats b;
    b.scalar("hits").set(4);
    b.scalar("only_b").set(7);
    b.distribution("d").sample(3);

    a.merge(b);
    EXPECT_DOUBLE_EQ(a.scalar("hits").value(), 7.0);
    EXPECT_DOUBLE_EQ(a.scalar("only_b").value(), 7.0);
    // Samples concatenate in shard order: a's before b's.
    const std::vector<double> expect = {1, 2, 3};
    EXPECT_EQ(a.distribution("d").samples(), expect);
}

TEST(ShardStats, ShardedMergeExportMatchesSequential)
{
    // The same sample stream accumulated sequentially vs split into
    // per-shard ShardStats and merged must export identical JSON.
    ShardStats sequential;
    ShardStats merged;
    for (std::size_t shard = 0; shard < 5; ++shard) {
        ShardStats part;
        for (int i = 0; i < 40; ++i) {
            double v = double(shard * 40 + i);
            sequential.scalar("total") += v;
            sequential.distribution("dist").sample(v);
            part.scalar("total") += v;
            part.distribution("dist").sample(v);
        }
        merged.merge(part);
    }
    std::ostringstream seq_json, par_json;
    dumpStatsJson(seq_json, {{"stats", &sequential}});
    dumpStatsJson(par_json, {{"stats", &merged}});
    EXPECT_EQ(seq_json.str(), par_json.str());
}

/**
 * Shard bodies that read quantiles *mid-run* — between samples,
 * before merging. When quantile() sorted the live sample vector in
 * place, the post-merge sample order depended on whether (and when)
 * a shard happened to read a quantile, so --jobs runs whose shards
 * polled at different points diverged byte-wise. The sort-a-scratch
 * fix makes the export invariant.
 */
std::string
statsJsonWithMidRunQuantiles(unsigned jobs)
{
    std::vector<ShardStats> parts = shardMap<ShardStats>(
        6, jobs, 1234, [](ShardContext &ctx) {
            ShardStats stats;
            Distribution &d = stats.distribution("lat");
            double p99 = 0;
            for (int i = 0; i < 200; ++i) {
                d.sample(double(ctx.rng.next() % 10'000));
                // Poll the quantile at a shard-dependent cadence so
                // different shards interleave reads differently.
                if (i % int(3 + ctx.index) == 0)
                    p99 = d.quantile(0.99);
            }
            stats.scalar("last_p99").set(p99);
            return stats;
        });
    ShardStats merged;
    for (const ShardStats &p : parts)
        merged.merge(p);
    std::ostringstream json;
    dumpStatsJson(json, {{"stats", &merged}});
    return json.str();
}

TEST(ShardStats, MidRunQuantileReadsKeepExportJobCountInvariant)
{
    const std::string reference = statsJsonWithMidRunQuantiles(1);
    EXPECT_EQ(statsJsonWithMidRunQuantiles(4), reference);
    EXPECT_EQ(statsJsonWithMidRunQuantiles(3), reference);
}

TEST(TraceShardTag, EventsCarryRecordingShard)
{
    auto &sink = TraceSink::global();
    sink.clear();
    sink.setEnabled(true);
    runShards(8, 4, 42, [&](ShardContext &ctx) {
        sink.instant(TraceCategory::Ems,
                     "shard" + std::to_string(ctx.index),
                     Tick(ctx.index));
        // arg() decorates the calling thread's last event even while
        // other shards record concurrently.
        sink.arg("idx", double(ctx.index));
    });
    EXPECT_EQ(sink.eventCount(), 8u);
    for (const TraceEvent &ev : sink.events()) {
        EXPECT_EQ(ev.name, "shard" + std::to_string(ev.tid));
        ASSERT_EQ(ev.args.size(), 1u);
        EXPECT_DOUBLE_EQ(ev.args[0].second, double(ev.tid));
    }
    sink.setEnabled(false);
    sink.clear();
}

} // namespace
