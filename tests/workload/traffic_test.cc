/**
 * @file
 * EMS scheduler unit tests: FleetTrafficSim serving scripted
 * closed-loop clients, where every service time is known, so
 * queueing, batching, admission and jitter can be checked to the tick.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "workload/traffic.hh"

namespace hypertee
{
namespace
{

/** Unbatched, jitter-free closed loop with clients that never think. */
FleetTrafficParams
quiet(unsigned cores, unsigned clients, std::uint64_t requests)
{
    FleetTrafficParams p;
    p.mode = FleetLoadMode::ClosedLoop;
    p.clients = clients;
    p.requests = requests;
    p.thinkTime = 0;
    p.thinkJitter = 0;
    p.emsCores = cores;
    p.queueCapacity = clients;
    p.batchMax = 1;
    p.batchOverhead = 0;
    p.transportOverhead = 100'000;
    return p;
}

/** Run the scheduler over scripted clients; stats land under `t.`. */
ShardStats
runScripted(const FleetTrafficParams &p,
            const std::vector<std::string> &client_class,
            ScriptedSource::Cost cost)
{
    ShardStats stats;
    FleetTrafficSim sim(
        p, std::make_unique<ScriptedSource>(client_class, std::move(cost)),
        "t", stats);
    sim.run();
    EXPECT_EQ(sim.offered(), sim.completed() + sim.rejected());
    return stats;
}

const std::vector<double> &
latencies(const ShardStats &stats, const std::string &cls)
{
    const Distribution *d = stats.findDistribution("t." + cls + "_latency");
    static const std::vector<double> none;
    return d ? d->samples() : none;
}

ScriptedSource::Cost
constant(Tick service)
{
    return [service](std::uint32_t, std::uint64_t) { return service; };
}

TEST(EmsScheduler, SingleClientLatencyIsServicePlusTransport)
{
    ShardStats s = runScripted(quiet(1, 1, 3), {"c"}, constant(1'000'000));
    ASSERT_EQ(latencies(s, "c").size(), 3u);
    for (double lat : latencies(s, "c"))
        EXPECT_EQ(lat, 1'100'000.0);
}

TEST(EmsScheduler, SecondClientQueuesBehindFirstOnOneCore)
{
    auto cost = [](std::uint32_t c, std::uint64_t) {
        return Tick(c == 0 ? 5'000'000 : 1'000'000);
    };
    ShardStats s = runScripted(quiet(1, 2, 2), {"a", "b"}, cost);
    EXPECT_EQ(latencies(s, "a").at(0), 5'100'000.0);
    EXPECT_EQ(latencies(s, "b").at(0), 6'100'000.0) << "b waits behind a";
}

TEST(EmsScheduler, TwoCoresServeConcurrently)
{
    auto cost = [](std::uint32_t c, std::uint64_t) {
        return Tick(c == 0 ? 5'000'000 : 1'000'000);
    };
    ShardStats s = runScripted(quiet(2, 2, 2), {"a", "b"}, cost);
    EXPECT_EQ(latencies(s, "b").at(0), 1'100'000.0)
        << "no serialization with a second EMS core";
}

TEST(EmsScheduler, TailLatencyDoesNotGrowWithCores)
{
    auto p99 = [](unsigned cores) {
        ShardStats s = runScripted(quiet(cores, 8, 400),
                                   std::vector<std::string>(8, "c"),
                                   constant(2'000'000));
        std::vector<double> all = latencies(s, "c");
        EXPECT_EQ(all.size(), 400u);
        std::sort(all.begin(), all.end());
        return all[all.size() * 99 / 100];
    };
    EXPECT_GT(p99(1), p99(2));
    EXPECT_GE(p99(2), p99(4));
}

TEST(EmsScheduler, ClosedLoopIssuesItsWholeBudget)
{
    ShardStats s = runScripted(quiet(2, 1, 100), {"c"}, constant(10'000));
    EXPECT_EQ(latencies(s, "c").size(), 100u);
    EXPECT_EQ(s.scalar("t.completed").value(), 100.0);
}

TEST(EmsScheduler, JitterSpreadsLatencies)
{
    FleetTrafficParams p = quiet(1, 1, 50);
    p.jitterMax = 500'000;
    ShardStats s = runScripted(p, {"c"}, constant(1'000'000));
    const std::vector<double> &lat = latencies(s, "c");
    ASSERT_EQ(lat.size(), 50u);
    // Dispatch and poll delays each add U[0, jitterMax].
    for (double l : lat) {
        EXPECT_GE(l, 1'100'000.0);
        EXPECT_LE(l, 2'100'000.0);
    }
    EXPECT_GT(std::set<double>(lat.begin(), lat.end()).size(), 20u);
}

TEST(EmsScheduler, BatchMembersCompleteAtCumulativeOffsets)
{
    // Client a finds the core idle and is served alone; b, c and d
    // queue meanwhile and leave in one batch that pays the overhead
    // once, each member finishing at its cumulative offset.
    FleetTrafficParams p = quiet(1, 4, 4);
    p.batchMax = 3;
    p.batchOverhead = 700'000;
    auto cost = [](std::uint32_t c, std::uint64_t) {
        const Tick service[] = {1'000'000, 1'000'000, 2'000'000,
                                3'000'000};
        return service[c];
    };
    ShardStats s = runScripted(p, {"a", "b", "c", "d"}, cost);
    const double batch_start = 700'000 + 1'000'000; // a's batch ends
    EXPECT_EQ(latencies(s, "a").at(0), batch_start + 100'000);
    EXPECT_EQ(latencies(s, "b").at(0),
              batch_start + 700'000 + 1'000'000 + 100'000);
    EXPECT_EQ(latencies(s, "c").at(0),
              batch_start + 700'000 + 3'000'000 + 100'000);
    EXPECT_EQ(latencies(s, "d").at(0),
              batch_start + 700'000 + 6'000'000 + 100'000);
}

TEST(EmsScheduler, FullQueueRejectsAndClientRetriesAfterTransportAndThink)
{
    // One core, room for one waiting request, three clients whose
    // starts are staggered within the 1 ms think time. The first is
    // in service for 20 ms, the second waits, and the third is
    // rejected and retries every transport + think = 2 ms until the
    // queue frees up: ten rejections wherever the stagger put them
    // (retrying after transport or think alone would exhaust the
    // budget first, with eleven). The budget ends at the third
    // client's admission.
    FleetTrafficParams p = quiet(1, 3, 13);
    p.queueCapacity = 1;
    p.thinkTime = 1'000'000'000;
    p.transportOverhead = 1'000'000'000;
    ShardStats stats;
    FleetTrafficSim sim(
        p,
        std::make_unique<ScriptedSource>(std::vector<std::string>(3, "c"),
                                         constant(20'000'000'000)),
        "t", stats);
    sim.run();
    EXPECT_EQ(sim.rejected(), 10u);
    EXPECT_EQ(sim.completed(), 3u);
    EXPECT_EQ(stats.scalar("t.c_offered").value(), 13.0);
    EXPECT_EQ(stats.scalar("t.c_rejected").value(), 10.0);
}

TEST(EmsScheduler, PerClassStatsAreCreatedOnFirstUseAndSharedByName)
{
    // Clients 0 and 1 share class "a"; client 2 is "b". All three
    // start at tick 0 with one core and room for one waiting request:
    // a0 is served, a1 waits, b finds the queue full. The 10 ms
    // transport then spreads the round trips apart: b is rejected,
    // a never is.
    FleetTrafficParams p = quiet(1, 3, 40);
    p.queueCapacity = 1;
    p.transportOverhead = 10'000'000;
    std::vector<std::uint64_t> admitted(3, 0);
    auto cost = [&admitted](std::uint32_t c, std::uint64_t) {
        ++admitted.at(c);
        return Tick(c == 2 ? 300'000 : 1'000'000);
    };
    ShardStats stats;
    FleetTrafficSim sim(
        p,
        std::make_unique<ScriptedSource>(
            std::vector<std::string>{"a", "a", "b"}, cost),
        "t", stats);
    sim.run();
    ASSERT_GT(sim.rejected(), 0u);
    ASSERT_GT(sim.completed(), 0u);

    EXPECT_EQ(stats.findScalar("t.a_rejected"), nullptr)
        << "a was never rejected but has a _rejected stat";
    ASSERT_NE(stats.findScalar("t.b_rejected"), nullptr);

    double offered_sum = 0;
    for (const char *cls : {"a", "b"}) {
        const std::string key = std::string("t.") + cls;
        const Scalar *offered = stats.findScalar(key + "_offered");
        const Distribution *lat = stats.findDistribution(key + "_latency");
        ASSERT_NE(offered, nullptr) << cls;
        ASSERT_NE(lat, nullptr) << cls;
        offered_sum += offered->value();
        // Every admitted request completes, so the rest were rejected.
        const double rejected = offered->value() - double(lat->count());
        const Scalar *rej = stats.findScalar(key + "_rejected");
        EXPECT_EQ(rej ? rej->value() : 0.0, rejected) << cls;
    }
    EXPECT_EQ(offered_sum, double(sim.offered()));

    // Both "a" clients completed requests into the one Distribution.
    EXPECT_GT(admitted[0], 0u);
    EXPECT_GT(admitted[1], 0u);
    EXPECT_EQ(stats.findDistribution("t.a_latency")->count(),
              admitted[0] + admitted[1]);
    EXPECT_EQ(stats.findDistribution("t.b_latency")->count(), admitted[2]);
}

TEST(EmsScheduler, SmallFleetChurnKeepsTheLiveSetConsistent)
{
    // A fleet of two or three slots random-walks between empty and
    // full, so a destroy often removes the last or the only live slot,
    // and a slot moved by a swap-remove is soon destroyed itself.
    for (std::size_t slots : {2u, 3u}) {
        FleetTrafficParams p;
        p.enclaveSlots = slots;
        p.requests = 20'000;
        p.offeredRatePerSec = 100'000;
        p.seed = 7;
        auto run = [&p](ShardStats &stats) {
            FleetTrafficSim sim(p, "f", stats);
            sim.run();
            EXPECT_EQ(sim.offered(), p.requests);
            EXPECT_EQ(sim.offered(), sim.completed() + sim.rejected());
            return std::vector<std::uint64_t>{sim.offered(),
                                              sim.completed(),
                                              sim.rejected(),
                                              sim.endTime()};
        };
        ShardStats first, second;
        const std::vector<std::uint64_t> a = run(first);
        const std::vector<std::uint64_t> b = run(second);
        EXPECT_EQ(a, b) << slots << " slots";

        const Scalar *peak = first.findScalar("f.peak_live_enclaves");
        ASSERT_NE(peak, nullptr);
        EXPECT_LE(peak->value(), double(slots));
        for (const char *op : {"create", "destroy"}) {
            const std::string key = std::string("f.") + op + "_latency";
            const Distribution *d1 = first.findDistribution(key);
            const Distribution *d2 = second.findDistribution(key);
            ASSERT_NE(d1, nullptr) << key;
            ASSERT_NE(d2, nullptr) << key;
            EXPECT_GT(d1->count(), 1000u) << key;
            EXPECT_EQ(d1->samples(), d2->samples()) << key;
        }
    }
}

} // namespace
} // namespace hypertee
