/**
 * @file
 * Structured (JSON) export for the statistics package.
 *
 * dumpStatsJson renders named ShardStats (sim/shard.hh) as the
 * --stats-json document. It lives here (ShardStats::writeJson too,
 * shard.hh only declares it) together with the small machinery it
 * needs: a streaming JsonWriter that handles escaping and comma
 * placement (the repo's one JSON writer), and jsonLooksValid(), used
 * by tests and by the bench harness to verify that emitted files
 * actually parse before reporting success.
 */

#ifndef HYPERTEE_SIM_STATS_EXPORT_HH
#define HYPERTEE_SIM_STATS_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hypertee
{

class ShardStats;

/**
 * Minimal streaming JSON writer. Tracks nesting so members are
 * comma-separated correctly; the caller is responsible for pairing
 * begin/end calls and for calling key() before each object member.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : _os(os) {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    void key(std::string_view name);

    void value(double v);
    void value(std::uint64_t v);
    void value(std::string_view v);
    void value(const char *v);
    void value(bool v);

    /** key(name) + value(v). */
    template <typename T>
    void
    member(std::string_view name, const T &v)
    {
        key(name);
        value(v);
    }

  private:
    void separate();
    void writeString(std::string_view s);

    std::ostream &_os;
    /** One entry per open container: has a member been written? */
    std::vector<bool> _hasMember;
    bool _pendingKey = false;
};

/** One --stats-json group: its name and the stats it exports. */
struct NamedStats
{
    std::string name;
    const ShardStats *stats;
};

/**
 * Render @p groups as one JSON object keyed by group name, in the
 * order given; each value is ShardStats::writeJson's object.
 */
void dumpStatsJson(std::ostream &os,
                   const std::vector<NamedStats> &groups);

/**
 * Strict syntax check over a complete JSON document: true exactly
 * when JsonValue::parse (sim/json.hh) accepts @p text.
 */
bool jsonLooksValid(const std::string &text);

} // namespace hypertee

#endif // HYPERTEE_SIM_STATS_EXPORT_HH
