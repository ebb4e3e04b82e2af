#include "sim/stats_export.hh"

#include <cmath>
#include <cstdio>

#include "sim/json.hh"
#include "sim/shard.hh"

namespace hypertee
{

// ------------------------------------------------------------ JsonWriter

void
JsonWriter::separate()
{
    if (_pendingKey) {
        _pendingKey = false;
        return; // the key already emitted the comma and the colon
    }
    if (!_hasMember.empty()) {
        if (_hasMember.back())
            _os << ',';
        _hasMember.back() = true;
    }
}

void
JsonWriter::writeString(std::string_view s)
{
    _os << '"';
    for (char c : s) {
        switch (c) {
          case '"': _os << "\\\""; break;
          case '\\': _os << "\\\\"; break;
          case '\n': _os << "\\n"; break;
          case '\t': _os << "\\t"; break;
          case '\r': _os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                _os << buf;
            } else {
                _os << c;
            }
        }
    }
    _os << '"';
}

void
JsonWriter::beginObject()
{
    separate();
    _os << '{';
    _hasMember.push_back(false);
}

void
JsonWriter::endObject()
{
    _hasMember.pop_back();
    _os << '}';
}

void
JsonWriter::beginArray()
{
    separate();
    _os << '[';
    _hasMember.push_back(false);
}

void
JsonWriter::endArray()
{
    _hasMember.pop_back();
    _os << ']';
}

void
JsonWriter::key(std::string_view name)
{
    separate();
    writeString(name);
    _os << ':';
    _pendingKey = true;
}

void
JsonWriter::value(double v)
{
    separate();
    // Integral doubles print as integers; everything else with enough
    // digits to round-trip. NaN/Inf are not valid JSON — clamp to 0
    // rather than emit an unparseable file.
    if (!std::isfinite(v)) {
        _os << 0;
        return;
    }
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v >= -9.0e15 && v <= 9.0e15) {
        _os << static_cast<long long>(v);
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    _os << buf;
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    _os << v;
}

void
JsonWriter::value(std::string_view v)
{
    separate();
    writeString(v);
}

void
JsonWriter::value(const char *v)
{
    value(std::string_view(v));
}

void
JsonWriter::value(bool v)
{
    separate();
    _os << (v ? "true" : "false");
}

// --------------------------------------------------------- stats export

void
ShardStats::writeJson(JsonWriter &w, const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    w.beginObject();
    w.member("name", name);

    w.key("scalars");
    w.beginObject();
    for (const auto &[stat_name, s] : _scalars)
        w.member(stat_name, s.value());
    w.endObject();

    w.key("distributions");
    w.beginObject();
    for (const auto &[stat_name, d] : _distributions) {
        w.key(stat_name);
        w.beginObject();
        w.member("count", d.count());
        if (d.count() > 0) {
            w.member("min", d.min());
            w.member("mean", d.mean());
            w.member("p50", d.quantile(0.50));
            w.member("p90", d.quantile(0.90));
            w.member("p99", d.quantile(0.99));
            w.member("p999", d.quantile(0.999));
            w.member("max", d.max());
        }
        w.endObject();
    }
    w.endObject();

    w.endObject();
}

void
dumpStatsJson(std::ostream &os, const std::vector<NamedStats> &groups)
{
    JsonWriter w(os);
    w.beginObject();
    for (const NamedStats &g : groups) {
        w.key(g.name);
        g.stats->writeJson(w, g.name);
    }
    w.endObject();
    os << '\n';
}

// ------------------------------------------------------- jsonLooksValid

bool
jsonLooksValid(const std::string &text)
{
    return JsonValue::parse(text).has_value();
}

} // namespace hypertee
