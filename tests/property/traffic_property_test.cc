/**
 * @file
 * Property tests for the fleet-traffic arrival processes and the
 * closed-loop driver (workload/traffic.hh).
 *
 * The generators feed the fleet SLO bench, so their statistics are
 * load-bearing: a Poisson source whose CV drifts from 1 misreports
 * the knee, and a closed loop that overshoots its client count is an
 * open loop in disguise. Each property is checked across seeds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/shard.hh"
#include "workload/traffic.hh"

namespace hypertee
{
namespace
{

struct SampleMoments
{
    double mean = 0;
    double variance = 0;
    double cv = 0; ///< coefficient of variation, stddev / mean
};

SampleMoments
moments(const std::vector<double> &xs)
{
    SampleMoments m;
    for (double x : xs)
        m.mean += x;
    m.mean /= double(xs.size());
    for (double x : xs)
        m.variance += (x - m.mean) * (x - m.mean);
    m.variance /= double(xs.size() - 1);
    m.cv = std::sqrt(m.variance) / m.mean;
    return m;
}

std::vector<double>
draw(InterarrivalProcess &proc, std::size_t n)
{
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(double(proc.next()));
    return xs;
}

class ArrivalSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ArrivalSeeds, PoissonMeanMatchesRate)
{
    const double rate = 50'000;
    PoissonArrivals poisson(rate, shardSeed(GetParam(), 0));
    SampleMoments m = moments(draw(poisson, 50'000));
    double analytic_mean = double(ticksPerSecond) / rate;
    // 50k exponential draws: the sample mean's standard error is
    // mean/sqrt(n) ~ 0.45% of the mean. 3% is a >6-sigma band.
    EXPECT_NEAR(m.mean, analytic_mean, 0.03 * analytic_mean);
}

TEST_P(ArrivalSeeds, PoissonIsMemorylessCvOne)
{
    PoissonArrivals poisson(80'000, shardSeed(GetParam(), 1));
    SampleMoments m = moments(draw(poisson, 50'000));
    // Exponential interarrivals: CV = 1 exactly, in expectation.
    EXPECT_NEAR(m.cv, 1.0, 0.05);
    // And the variance agrees with mean^2 (second moment check).
    EXPECT_NEAR(m.variance, m.mean * m.mean,
                0.10 * m.mean * m.mean);
}

MmppArrivals::Params
fastMmpp()
{
    // Short dwells so a bounded sample covers thousands of
    // quiet/burst cycles and the time-average converges.
    MmppArrivals::Params p;
    p.quietRatePerSec = 20'000;
    p.burstRatePerSec = 200'000;
    p.meanQuietSec = 4e-4;
    p.meanBurstSec = 1e-4;
    return p;
}

TEST_P(ArrivalSeeds, MmppMeanMatchesAnalyticRate)
{
    MmppArrivals mmpp(fastMmpp(), shardSeed(GetParam(), 2));
    SampleMoments m = moments(draw(mmpp, 200'000));
    double analytic = mmpp.analyticMeanInterarrivalTicks();
    // 200k draws span ~7000 modulation cycles; 5% is conservative.
    EXPECT_NEAR(m.mean, analytic, 0.05 * analytic);
}

TEST_P(ArrivalSeeds, MmppIsBurstierThanPoisson)
{
    MmppArrivals mmpp(fastMmpp(), shardSeed(GetParam(), 3));
    SampleMoments m = moments(draw(mmpp, 200'000));
    // Rate modulation makes the interarrival CV strictly exceed the
    // Poisson value of 1 — that burstiness is the point of the MMPP.
    EXPECT_GT(m.cv, 1.1);
}

TEST_P(ArrivalSeeds, GeneratorsDeterministicGivenShardSeed)
{
    std::uint64_t seed = shardSeed(GetParam(), 4);
    PoissonArrivals a(60'000, seed), b(60'000, seed);
    MmppArrivals ma(fastMmpp(), seed), mb(fastMmpp(), seed);
    for (int i = 0; i < 1'000; ++i) {
        ASSERT_EQ(a.next(), b.next()) << "draw " << i;
        ASSERT_EQ(ma.next(), mb.next()) << "draw " << i;
    }
    // Neighbouring shard indices must decorrelate, not repeat.
    PoissonArrivals c(60'000, shardSeed(GetParam(), 5));
    bool differs = false;
    PoissonArrivals a2(60'000, seed);
    for (int i = 0; i < 64 && !differs; ++i)
        differs = a2.next() != c.next();
    EXPECT_TRUE(differs) << "shard splits collided";
}

TEST_P(ArrivalSeeds, ClosedLoopNeverExceedsClientCount)
{
    FleetTrafficParams p;
    p.mode = FleetLoadMode::ClosedLoop;
    p.clients = 32;
    p.thinkTime = 1'000'000;
    p.thinkJitter = 1'000'000;
    p.requests = 2'000;
    p.enclaveSlots = 64;
    p.queueCapacity = 16; // small queue: rejection/retry path runs
    p.pool.initialPages = 1024;
    p.seed = shardSeed(GetParam(), 6);

    ShardStats stats;
    FleetTrafficSim sim(p, "prop", stats);
    sim.run();

    EXPECT_LE(sim.peakInFlight(), std::uint64_t(p.clients));
    EXPECT_GT(sim.completed(), 0u);
    EXPECT_EQ(sim.offered(), sim.completed() + sim.rejected());
    EXPECT_LE(stats.scalar("prop.peak_live_enclaves").value(),
              double(p.enclaveSlots));
}

TEST_P(ArrivalSeeds, FleetSimDeterministicGivenSeed)
{
    FleetTrafficParams p;
    p.mode = FleetLoadMode::OpenPoisson;
    p.offeredRatePerSec = 150'000;
    p.requests = 3'000;
    p.enclaveSlots = 128;
    p.queueCapacity = 64;
    p.pool.initialPages = 2048;
    p.seed = shardSeed(GetParam(), 7);

    ShardStats s1, s2;
    FleetTrafficSim a(p, "det", s1), b(p, "det", s2);
    a.run();
    b.run();
    EXPECT_EQ(a.endTime(), b.endTime());
    EXPECT_EQ(a.completed(), b.completed());
    EXPECT_EQ(a.rejected(), b.rejected());
    EXPECT_EQ(s1.distribution("det.attest_latency").samples(),
              s2.distribution("det.attest_latency").samples());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrivalSeeds,
                         ::testing::Values(1, 7, 42, 1337, 90210));

} // namespace
} // namespace hypertee
