/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/stats.hh"

namespace hypertee
{
namespace
{

TEST(Scalar, AccumulatesAndSets)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.set(10);
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
}

TEST(Distribution, TracksExtremaAndMean)
{
    Distribution d;
    for (double v : {5.0, 1.0, 9.0, 3.0})
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_DOUBLE_EQ(d.mean(), 4.5);
}

TEST(Distribution, QuantileNearestRank)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.quantile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.00), 100.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
}

TEST(Distribution, QuantileSingleSample)
{
    Distribution d;
    d.sample(42.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.99), 42.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 42.0);
}

TEST(Distribution, QuantileEdgeRanks)
{
    Distribution d;
    for (int i = 1; i <= 7; ++i)
        d.sample(i);
    // q=0 clamps to the first sample, q=1 must hit the last.
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 7.0);
    // Nearest-rank p90 of 7 samples: ceil(0.9 * 7) = 7. The old
    // round-half-up formula picked rank 6 here.
    EXPECT_DOUBLE_EQ(d.quantile(0.9), 7.0);
}

TEST(Distribution, QuantileMedianEvenCount)
{
    Distribution d;
    for (double v : {10.0, 20.0, 30.0, 40.0})
        d.sample(v);
    // Nearest-rank median of even n is the lower middle:
    // ceil(0.5 * 4) = rank 2.
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 20.0);
    // ceil(0.29 * 100)-style representation error must not push the
    // rank up: 0.75 * 4 = 3 exactly.
    EXPECT_DOUBLE_EQ(d.quantile(0.75), 30.0);
}

TEST(Distribution, P999SmallSampleCountsCollapseToMax)
{
    // Nearest-rank: for n < 1000, ceil(0.999 * n) == n, so the p999
    // must be exactly the maximum — never an interpolated or
    // out-of-range value.
    for (int n : {1, 2, 10, 99, 100, 500, 999}) {
        Distribution d;
        for (int i = 1; i <= n; ++i)
            d.sample(i);
        EXPECT_DOUBLE_EQ(d.quantile(0.999), double(n))
            << "n=" << n;
        EXPECT_DOUBLE_EQ(d.quantile(0.999), d.quantile(1.0))
            << "n=" << n;
    }
}

TEST(Distribution, P999ExactAtOneThousandSamples)
{
    // n = 1000 is the first count where the p999 separates from the
    // max: ceil(0.999 * 1000) = 999 (and the epsilon guard must not
    // let representation error push it to rank 1000).
    Distribution d;
    for (int i = 1; i <= 1000; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.quantile(0.999), 999.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 1000.0);

    // One more sample: ceil(0.999 * 1001) = 1000, still below max.
    d.sample(1001);
    EXPECT_DOUBLE_EQ(d.quantile(0.999), 1000.0);
}

TEST(Distribution, P999OfMergedShardsMatchesGlobalSort)
{
    // Shard merging concatenates sample sequences; the merged p999
    // must equal the nearest-rank p999 of the union, including when
    // every extreme value lives in one shard.
    Distribution shard0, shard1, shard2;
    for (int i = 1; i <= 600; ++i)
        shard0.sample(i);
    for (int i = 601; i <= 1200; ++i)
        shard1.sample(i);
    // The tail outliers all land in the last shard.
    for (int i = 0; i < 300; ++i)
        shard2.sample(1'000'000 + i);

    Distribution merged;
    merged.merge(shard0);
    merged.merge(shard1);
    merged.merge(shard2);
    ASSERT_EQ(merged.count(), 1500u);
    // ceil(0.999 * 1500) = 1499 -> second-from-last outlier.
    EXPECT_DOUBLE_EQ(merged.quantile(0.999), 1'000'298.0);
    EXPECT_DOUBLE_EQ(merged.quantile(1.0), 1'000'299.0);
}

TEST(Distribution, FractionAtOrBelow)
{
    Distribution d;
    for (int i = 1; i <= 10; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.fractionAtOrBelow(5.0), 0.5);
    EXPECT_DOUBLE_EQ(d.fractionAtOrBelow(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.fractionAtOrBelow(10.0), 1.0);
    EXPECT_DOUBLE_EQ(d.fractionAtOrBelow(100.0), 1.0);
}

TEST(Distribution, SamplingAfterQuantileStillWorks)
{
    Distribution d;
    d.sample(2);
    d.sample(1);
    EXPECT_DOUBLE_EQ(d.max(), 2.0);
    d.sample(7);
    EXPECT_DOUBLE_EQ(d.max(), 7.0);
    EXPECT_EQ(d.count(), 3u);
}

TEST(Distribution, SamplesStayInInsertionOrderAcrossQuantileReads)
{
    // quantile()/min()/max() sort a scratch copy; samples() must keep
    // insertion order, because shard merging concatenates sample
    // sequences and byte-compares them across --jobs values.
    Distribution d;
    const std::vector<double> inserted = {5, 1, 4, 2, 3};
    for (double v : inserted)
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_EQ(d.samples(), inserted);
}

TEST(Distribution, MergeAfterQuantileReproducesSequentialOrder)
{
    // The bug this pins down: sorting _samples in place during a
    // quantile read, then merging, produced a sample order that
    // depended on *when* the quantile was read. Shard 0's samples
    // must precede shard 1's, each in insertion order, regardless.
    Distribution shard0, shard1;
    shard0.sample(9);
    shard0.sample(3);
    EXPECT_DOUBLE_EQ(shard0.quantile(0.99), 9.0); // read mid-run
    shard1.sample(7);
    shard1.sample(1);

    Distribution merged;
    merged.merge(shard0);
    merged.merge(shard1);
    EXPECT_EQ(merged.samples(), (std::vector<double>{9, 3, 7, 1}));

    // And the same merge without the interleaved read is identical.
    Distribution s0b, merged_b;
    s0b.sample(9);
    s0b.sample(3);
    merged_b.merge(s0b);
    merged_b.merge(shard1);
    EXPECT_EQ(merged.samples(), merged_b.samples());
    EXPECT_DOUBLE_EQ(merged.mean(), 5.0);
    EXPECT_DOUBLE_EQ(merged.quantile(1.0), 9.0);
}

TEST(Distribution, IncrementalSortStaysCorrectAcrossInterleaving)
{
    // Quantile reads interleaved with further sampling and merging
    // must agree with a from-scratch sort at every point.
    Distribution d;
    std::uint64_t x = 1;
    std::vector<double> all;
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 100; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            double v = static_cast<double>(x >> 40);
            d.sample(v);
            all.push_back(v);
        }
        std::vector<double> sorted = all;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_DOUBLE_EQ(d.min(), sorted.front());
        EXPECT_DOUBLE_EQ(d.max(), sorted.back());
        // nearest-rank p50: rank ceil(n/2), zero-based (n+1)/2 - 1
        EXPECT_DOUBLE_EQ(d.quantile(0.5),
                         sorted[(sorted.size() + 1) / 2 - 1]);
        EXPECT_EQ(d.samples(), all);
    }
}

TEST(Distribution, ClearResetsRunningState)
{
    Distribution d;
    d.sample(10);
    d.sample(20);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 20.0);
    d.clear();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    d.sample(4);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 4.0);
}

} // namespace
} // namespace hypertee
