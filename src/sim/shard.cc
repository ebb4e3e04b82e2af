#include "sim/shard.hh"

namespace hypertee
{

std::uint64_t
shardSeed(std::uint64_t global_seed, std::uint64_t shard_index)
{
    // SplitMix64 increments: walk the stream selected by the global
    // seed out to the shard's position, then one extra scramble so
    // indices 0,1,2,... do not hand neighbouring stream positions to
    // neighbouring shards.
    std::uint64_t z = global_seed +
                      (shard_index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
    return z ^ (z >> 33);
}

ShardStats::ShardStats(const ShardStats &other)
{
    std::lock_guard<std::mutex> lock(other._mutex);
    _scalars = other._scalars;
    _distributions = other._distributions;
}

ShardStats::ShardStats(ShardStats &&other) noexcept
{
    std::lock_guard<std::mutex> lock(other._mutex);
    _scalars = std::move(other._scalars);
    _distributions = std::move(other._distributions);
}

ShardStats &
ShardStats::operator=(const ShardStats &other)
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(_mutex, other._mutex);
    _scalars = other._scalars;
    _distributions = other._distributions;
    return *this;
}

ShardStats &
ShardStats::operator=(ShardStats &&other) noexcept
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(_mutex, other._mutex);
    _scalars = std::move(other._scalars);
    _distributions = std::move(other._distributions);
    return *this;
}

Scalar &
ShardStats::scalar(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _scalars[name];
}

Distribution &
ShardStats::distribution(const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _distributions[name];
}

const Scalar *
ShardStats::findScalar(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _scalars.find(name);
    return it == _scalars.end() ? nullptr : &it->second;
}

const Distribution *
ShardStats::findDistribution(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _distributions.find(name);
    return it == _distributions.end() ? nullptr : &it->second;
}

void
ShardStats::merge(const ShardStats &other)
{
    if (this == &other)
        return;
    std::scoped_lock lock(_mutex, other._mutex);
    for (const auto &[name, s] : other._scalars)
        _scalars[name].merge(s);
    for (const auto &[name, d] : other._distributions)
        _distributions[name].merge(d);
}

} // namespace hypertee
