#include "sim/trace.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace hypertee
{

namespace
{

/** JSON string escaping for event names (categories are static). */
void
writeJsonString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** Shortest round-trippable double; avoids locale surprises. */
void
writeJsonNumber(std::ostream &os, double v)
{
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v >= -9.0e15 && v <= 9.0e15) {
        os << static_cast<long long>(v);
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

/**
 * Per-thread recording state: the shard tag stamped onto events and
 * the index of the last event this thread recorded (for arg()),
 * validated against the sink generation so clear() invalidates it.
 */
constexpr std::size_t noLastEvent = ~std::size_t(0);

thread_local unsigned t_shard = 0;
thread_local std::size_t t_lastIndex = noLastEvent;
thread_local std::uint64_t t_lastGeneration = 0;

} // namespace

void
traceSetCurrentShard(unsigned shard)
{
    t_shard = shard;
}

unsigned
traceCurrentShard()
{
    return t_shard;
}

const char *
traceCategoryName(TraceCategory cat)
{
    switch (cat) {
      case TraceCategory::EmCall: return "emcall";
      case TraceCategory::Mailbox: return "mailbox";
      case TraceCategory::Ems: return "ems";
      case TraceCategory::IHub: return "ihub";
      case TraceCategory::Bitmap: return "bitmap";
      case TraceCategory::Mmu: return "mmu";
      case TraceCategory::Tlb: return "tlb";
      case TraceCategory::Queue: return "queue";
      case TraceCategory::NumCategories: break;
    }
    return "?";
}

TraceSink &
TraceSink::global()
{
    static TraceSink sink;
    return sink;
}

TraceSink::TraceSink()
{
    // Low-volume protocol categories default on (they only cost when
    // the sink itself is enabled); the per-memory-access categories
    // default off so a trace of a billion-instruction run stays sane.
    for (auto &on : _catEnabled)
        on = true;
    setCategoryEnabled(TraceCategory::Mmu, false);
    setCategoryEnabled(TraceCategory::Tlb, false);
    setCategoryEnabled(TraceCategory::Queue, false);
}

void
TraceSink::setCategoryEnabled(TraceCategory cat, bool on)
{
    if (cat < TraceCategory::NumCategories)
        _catEnabled[static_cast<unsigned>(cat)] = on;
}

bool
TraceSink::categoryEnabled(TraceCategory cat) const
{
    return cat < TraceCategory::NumCategories &&
           _catEnabled[static_cast<unsigned>(cat)];
}

bool
TraceSink::enableCategories(const std::string &list)
{
    bool all_known = true;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string name = list.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (name == "all") {
            for (auto &on : _catEnabled)
                on = true;
            continue;
        }
        bool found = false;
        for (unsigned c = 0;
             c < static_cast<unsigned>(TraceCategory::NumCategories);
             ++c) {
            if (name == traceCategoryName(TraceCategory(c))) {
                _catEnabled[c] = true;
                found = true;
                break;
            }
        }
        all_known = all_known && found;
    }
    return all_known;
}

std::string_view
TraceSink::StringArena::intern(std::string_view s)
{
    constexpr std::size_t chunkSize = 64 * 1024;
    // Oversized names get a dedicated chunk; everything else bump-
    // allocates out of the newest shared chunk.
    if (s.size() > chunkSize) {
        auto chunk = std::make_unique<char[]>(s.size());
        std::memcpy(chunk.get(), s.data(), s.size());
        std::string_view view(chunk.get(), s.size());
        chunks.push_back(std::move(chunk));
        // The dedicated chunk is exactly full; the next small intern
        // must open a fresh shared chunk rather than append to it.
        used = chunkSize;
        return view;
    }
    if (chunks.empty() || used + s.size() > chunkSize) {
        chunks.push_back(std::make_unique<char[]>(chunkSize));
        used = 0;
    }
    char *dst = chunks.back().get() + used;
    if (!s.empty())
        std::memcpy(dst, s.data(), s.size());
    used += s.size();
    return std::string_view(dst, s.size());
}

void
TraceSink::record(TraceCategory cat, char phase, std::string_view name,
                  Tick ts, Tick dur)
{
    // The macros pre-check on(), but direct callers get the same
    // gating: a disabled sink (or category) records nothing.
    if (!on(cat)) {
        t_lastIndex = noLastEvent;
        return;
    }
    std::lock_guard<std::mutex> lock(_mutex);
    if (_events.size() >= _capacity) {
        _dropped.fetch_add(1, std::memory_order_relaxed);
        t_lastIndex = noLastEvent;
        return;
    }
    _events.push_back(TraceEvent{phase, cat, _arena.intern(name), ts,
                                 dur, t_shard, {}});
    t_lastIndex = _events.size() - 1;
    t_lastGeneration = _generation;
}

void
TraceSink::span(TraceCategory cat, std::string_view name, Tick start,
                Tick end)
{
    record(cat, 'X', name, start, end - start);
}

void
TraceSink::instant(TraceCategory cat, std::string_view name, Tick ts)
{
    record(cat, 'i', name, ts, 0);
}

void
TraceSink::arg(const char *key, double value)
{
    std::lock_guard<std::mutex> lock(_mutex);
    // Keys are string literals at every instrumentation site, so the
    // view is stable without interning.
    if (t_lastIndex != noLastEvent &&
        t_lastGeneration == _generation &&
        t_lastIndex < _events.size())
        _events[t_lastIndex].args.push(key, value);
}

void
TraceSink::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _events.clear();
    _arena.clear();
    _dropped.store(0, std::memory_order_relaxed);
    ++_generation;
    _timeline.store(0, std::memory_order_relaxed);
}

std::size_t
TraceSink::eventCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _events.size();
}

void
TraceSink::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &ev : _events) {
        if (!first)
            os << ',';
        first = false;
        os << "\n{\"name\":";
        writeJsonString(os, ev.name);
        os << ",\"cat\":\"" << traceCategoryName(ev.cat) << '"';
        os << ",\"ph\":\"" << ev.phase << '"';
        // Chrome expects microseconds; ticks are picoseconds.
        os << ",\"ts\":";
        writeJsonNumber(os, static_cast<double>(ev.ts) / 1e6);
        if (ev.phase == 'X') {
            os << ",\"dur\":";
            writeJsonNumber(os, static_cast<double>(ev.dur) / 1e6);
        }
        os << ",\"pid\":0,\"tid\":" << ev.tid;
        if (!ev.args.empty()) {
            os << ",\"args\":{";
            bool first_arg = true;
            for (const auto &[key, value] : ev.args) {
                if (!first_arg)
                    os << ',';
                first_arg = false;
                writeJsonString(os, key);
                os << ':';
                writeJsonNumber(os, value);
            }
            os << '}';
        }
        os << '}';
    }
    os << "\n]}\n";
}

bool
TraceSink::writeJsonFile(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeJson(f);
    f.flush();
    return f.good();
}

} // namespace hypertee
