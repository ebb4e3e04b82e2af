// Fixture: a component that samples into references handed out by a
// ShardStats, so every stat it touches reaches the export.
#include "sim/shard.hh"

namespace hypertee
{

class Component
{
  public:
    explicit Component(ShardStats &stats)
        : _hits(stats.scalar("hits")), _misses(stats.scalar("misses")),
          _latency(stats.distribution("latency"))
    {}

    void
    access(bool hit, double ticks)
    {
        if (hit)
            ++_hits;
        else
            ++_misses;
        _latency.sample(ticks);
    }

  private:
    Scalar &_hits;
    Scalar &_misses;
    Distribution &_latency;
};

} // namespace hypertee
