#include "sim/stats.hh"

#include <cmath>

namespace hypertee
{

void
Distribution::ensureSorted() const
{
    if (_scratchValid)
        return;
    // Sort a scratch copy, not _samples: samples() must stay in
    // insertion order because merge() concatenates shard sample
    // sequences and the determinism contract byte-compares them.
    //
    // Invariant: _scratch is always a sorted copy of the first
    // _scratch.size() samples (sample/merge only append; clear()
    // empties both), so only the new tail needs sorting before one
    // linear merge.
    const std::size_t sorted = _scratch.size();
    _scratch.insert(_scratch.end(), _samples.begin() +
                    static_cast<std::ptrdiff_t>(sorted),
                    _samples.end());
    const auto mid = _scratch.begin() +
                     static_cast<std::ptrdiff_t>(sorted);
    std::sort(mid, _scratch.end());
    std::inplace_merge(_scratch.begin(), mid, _scratch.end());
    _scratchValid = true;
}

double
Distribution::min() const
{
    panicIf(_samples.empty(), "min() of empty distribution");
    ensureSorted();
    return _scratch.front();
}

double
Distribution::max() const
{
    panicIf(_samples.empty(), "max() of empty distribution");
    ensureSorted();
    return _scratch.back();
}

double
Distribution::quantile(double q) const
{
    panicIf(_samples.empty(), "quantile() of empty distribution");
    panicIf(q < 0.0 || q > 1.0, "quantile out of range: ", q);
    ensureSorted();
    if (q == 0.0)
        return _scratch.front();
    const std::size_t n = _scratch.size();
    // Nearest-rank definition: rank = ceil(q*n), clamped to [1, n].
    // The previous q*n + 0.5 rounding under-reported upper quantiles
    // at small n (e.g. p90 of 7 samples picked rank 6, not ceil(6.3)=7).
    // The epsilon absorbs representation error in q*n (0.29*100 is
    // 29.000000000000004 in binary) without shifting exact products.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return _scratch[rank - 1];
}

void
Distribution::merge(const Distribution &other)
{
    _samples.insert(_samples.end(), other._samples.begin(),
                    other._samples.end());
    _sum += other._sum;
    _scratchValid = false;
}

double
Distribution::fractionAtOrBelow(double threshold) const
{
    if (_samples.empty())
        return 0.0;
    ensureSorted();
    auto it = std::upper_bound(_scratch.begin(), _scratch.end(), threshold);
    return static_cast<double>(it - _scratch.begin()) /
           static_cast<double>(_scratch.size());
}

} // namespace hypertee
