/**
 * @file
 * Lightweight statistics package.
 *
 * Two kinds are provided: Scalar counters and sample-retaining
 * Distributions (used for the Table IV primitive latencies and the
 * Figure 6 SLO latency curves). Stats live by name in a ShardStats
 * (sim/shard.hh), the one container --stats-json exports.
 */

#ifndef HYPERTEE_SIM_STATS_HH
#define HYPERTEE_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace hypertee
{

/** A monotonically growing counter. */
class Scalar
{
  public:
    void operator++() { ++_value; }
    void operator+=(double v) { _value += v; }
    void set(double v) { _value = v; }
    double value() const { return _value; }

    /** Shard merge: counts accumulated in parallel shards add up. */
    void merge(const Scalar &other) { _value += other._value; }

  private:
    double _value = 0;
};

/**
 * Sample distribution retaining every observation, supporting exact
 * quantiles (e.g. the 99th-percentile SLO latency in Figure 6).
 */
class Distribution
{
  public:
    void
    sample(double v)
    {
        _samples.push_back(v);
        _sum += v;
        _scratchValid = false;
    }

    /** Pre-size the sample store so the hot path never reallocates. */
    void reserve(std::size_t n) { _samples.reserve(n); }

    std::uint64_t count() const { return _samples.size(); }

    double
    mean() const
    {
        return _samples.empty()
                   ? 0.0
                   : _sum / static_cast<double>(_samples.size());
    }

    double min() const;
    double max() const;

    /** Exact quantile via nearest-rank; q in [0, 1]. */
    double quantile(double q) const;

    /** Fraction of samples <= threshold. */
    double fractionAtOrBelow(double threshold) const;

    /**
     * The observations, always in insertion order. Quantile reads
     * sort a scratch copy, never this vector, so interleaving
     * quantile() with merge() or with a byte-compare of samples() is
     * safe at any point.
     */
    const std::vector<double> &samples() const { return _samples; }

    /**
     * Shard merge: append @p other's samples in their insertion
     * order, so merging shards 0..N-1 in index order reproduces the
     * exact sample sequence of a sequential run. Quantiles over the
     * merged distribution equal quantiles of the concatenated sample
     * set (nearest-rank; sorting makes them order-insensitive).
     */
    void merge(const Distribution &other);

    void
    clear()
    {
        _samples.clear();
        _sum = 0;
        _scratch.clear();
        _scratchValid = false;
    }

  private:
    /** Bring the sorted scratch copy up to date when stale. */
    void ensureSorted() const;

    std::vector<double> _samples; ///< insertion order, never sorted
    double _sum = 0;              ///< running total for O(1) mean
    /**
     * Sorted copy of a prefix of _samples (all of it once
     * _scratchValid). Maintained incrementally: a quantile read sorts
     * only the samples that arrived since the last read and merges
     * them in, so sample-heavy workloads with periodic quantile reads
     * pay O(new log new + n) per read, not O(n log n).
     */
    mutable std::vector<double> _scratch;
    mutable bool _scratchValid = false;
};

} // namespace hypertee

#endif // HYPERTEE_SIM_STATS_HH
