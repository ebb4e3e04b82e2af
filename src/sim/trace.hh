/**
 * @file
 * Primitive-level trace events (Chrome trace_event format).
 *
 * Every headline number in the paper is a measurement of where cycles
 * go inside an enclave-management round trip; this sink records span
 * and instant events with tick timestamps so a single bench run can
 * be opened in Perfetto / chrome://tracing and show the full life of
 * every EMCall primitive: gate entry, mailbox enqueue, doorbell, EMS
 * handler span, response poll, gate exit.
 *
 * A span is one Chrome "complete" event ("ph":"X", a start and a
 * duration), recorded once both ends are known, so a trace can never
 * hold an unclosed span. Spans nest on the timeline by interval,
 * whatever order they were recorded in.
 *
 * Design constraints:
 *  - zero cost when disabled: instant sites go through the
 *    HT_TRACE_* macros, which compile out entirely under
 *    -DHYPERTEE_TRACE_DISABLED and otherwise reduce to two boolean
 *    loads when the sink (or the event's category) is off; the span
 *    sites make the same on() check before building a name;
 *  - the functional model has no global clock, so the sink keeps a
 *    monotonic timeline cursor that the EMCall gate (the component
 *    that owns round-trip latency) advances; instrumented components
 *    below it stamp events at the current cursor;
 *  - recording is thread-safe so parallel simulation shards
 *    (sim/parallel.hh) can trace concurrently: events are tagged
 *    with the recording shard's id (rendered as the Chrome "tid", so
 *    Perfetto shows one row per shard) and the buffer is guarded by
 *    a mutex. Event *order* in the file follows recording order and
 *    is therefore scheduling-dependent under --jobs > 1; timestamps
 *    and tids are not. Enable/disable, categories, capacity and
 *    clear() are configuration and must be called while the process
 *    is single-threaded (benches do this before the worker pool
 *    starts).
 */

#ifndef HYPERTEE_SIM_TRACE_HH
#define HYPERTEE_SIM_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace hypertee
{

/** Event categories; each can be enabled/disabled independently. */
enum class TraceCategory : unsigned
{
    EmCall = 0, ///< primitive round-trip spans (gate side)
    Mailbox,    ///< push/pop/doorbell/response traffic
    Ems,        ///< EMS runtime handler spans, one per primitive
    IHub,       ///< CS-side gateway accesses and blocks
    Bitmap,     ///< enclave-bitmap bit flips
    Mmu,        ///< TLB misses, PTW, bitmap checks (high volume)
    Tlb,        ///< flushes and invalidations (high volume)
    Queue,      ///< event-queue firings (high volume)
    NumCategories,
};

/** Lower-case category name, e.g. "mailbox". */
const char *traceCategoryName(TraceCategory cat);

/** One numeric event argument. first/second mirror std::pair so the
 *  move from the old vector<pair> representation is source-compatible
 *  for readers. */
struct TraceArg
{
    std::string_view first; ///< key (static string at every call site)
    double second = 0;      ///< value
};

/**
 * Fixed-capacity inline argument list. Instrumentation sites attach
 * at most one or two numeric arguments per event, so a small inline
 * array removes the per-event vector allocation the hot recording
 * path used to pay; arguments beyond the capacity are dropped.
 */
class TraceArgList
{
  public:
    static constexpr std::size_t maxArgs = 4;

    std::size_t size() const { return _count; }
    bool empty() const { return _count == 0; }
    const TraceArg &operator[](std::size_t i) const { return _args[i]; }
    const TraceArg *begin() const { return _args; }
    const TraceArg *end() const { return _args + _count; }

    /** Append; false (and no-op) when full. */
    bool
    push(std::string_view key, double value)
    {
        if (_count >= maxArgs)
            return false;
        _args[_count++] = TraceArg{key, value};
        return true;
    }

  private:
    TraceArg _args[maxArgs];
    std::uint8_t _count = 0;
};

/**
 * One recorded event; `phase` follows the Chrome convention. The name
 * is a view into the owning sink's string arena (stable until that
 * sink's clear() or destruction), so recording an event performs no
 * per-event heap allocation.
 */
struct TraceEvent
{
    char phase; ///< 'X' complete (span), 'i' instant
    TraceCategory cat;
    std::string_view name;
    Tick ts;
    Tick dur = 0; ///< span length ('X' only)
    /** Recording shard id (Chrome "tid"); 0 outside shard bodies. */
    unsigned tid = 0;
    /** Optional numeric arguments rendered into the "args" object. */
    TraceArgList args;
};

/**
 * Tag trace events recorded by the calling thread with @p shard
 * (thread-local; the parallel driver sets it around shard bodies).
 */
void traceSetCurrentShard(unsigned shard);

/** The calling thread's current shard tag. */
unsigned traceCurrentShard();

class TraceSink
{
  public:
    /** The process-wide sink every HT_TRACE macro records into. */
    static TraceSink &global();

    TraceSink();

    /** Master switch; off by default (benches enable it on --trace). */
    void setEnabled(bool on) { _enabled = on; }
    bool enabled() const { return _enabled; }

    void setCategoryEnabled(TraceCategory cat, bool on);
    bool categoryEnabled(TraceCategory cat) const;

    /**
     * Enable categories from a comma-separated list of names
     * ("mailbox,ems"); "all" enables everything, including the
     * high-volume mmu/tlb/queue categories that default to off.
     * @return false when a name was not recognized.
     */
    bool enableCategories(const std::string &list);

    /** Fast gate the macros use: sink on AND category on. */
    bool
    on(TraceCategory cat) const
    {
        return _enabled && _catEnabled[static_cast<unsigned>(cat)];
    }

    // ---- timeline cursor ----
    /** Current position on the synthetic timeline, in ticks. */
    Tick
    now() const
    {
        return _timeline.load(std::memory_order_relaxed);
    }
    /** Move the cursor forward; requests to move back are ignored. */
    void
    advanceTo(Tick t)
    {
        Tick cur = _timeline.load(std::memory_order_relaxed);
        while (t > cur &&
               !_timeline.compare_exchange_weak(
                   cur, t, std::memory_order_relaxed)) {
            // cur reloaded by compare_exchange_weak on failure
        }
    }

    // ---- recording (thread-safe) ----
    /** One span covering [@p start, @p end] (end >= start). */
    void span(TraceCategory cat, std::string_view name, Tick start,
              Tick end);
    void instant(TraceCategory cat, std::string_view name, Tick ts);
    /**
     * Attach a numeric argument to the most recent event *recorded
     * by the calling thread* (so concurrent shards cannot decorate
     * each other's events).
     */
    void arg(const char *key, double value);

    /**
     * Drop-oldest-nothing cap: once `capacity` events are recorded,
     * further events are counted in dropped() instead of stored, so a
     * runaway workload cannot eat the host's memory.
     */
    void setCapacity(std::size_t capacity) { _capacity = capacity; }
    std::uint64_t
    dropped() const
    {
        return _dropped.load(std::memory_order_relaxed);
    }

    std::size_t eventCount() const;
    /**
     * A consistent snapshot of the recorded events, copied under the
     * sink's lock so it is safe against concurrent recording. The
     * name views inside point into the sink's string arena and stay
     * valid until clear().
     */
    std::vector<TraceEvent>
    events() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _events;
    }

    /** Forget all events, drops, and the timeline cursor. */
    void clear();

    /** Emit the Chrome trace_event JSON ("traceEvents" array form). */
    void writeJson(std::ostream &os) const;

    /** Convenience: writeJson to @p path; false on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

  private:
    void record(TraceCategory cat, char phase, std::string_view name,
                Tick ts, Tick dur);

    /**
     * Chunked string storage backing TraceEvent::name views. Chunks
     * are 64 KiB, so interning is a bump-pointer memcpy (one chunk
     * allocation per ~thousand events) instead of a heap allocation
     * per event. Views stay valid until clear().
     */
    struct StringArena
    {
        /** Copy @p s into the arena; returns a stable view. */
        std::string_view intern(std::string_view s);

        void
        clear()
        {
            chunks.clear();
            used = 0;
        }

        std::vector<std::unique_ptr<char[]>> chunks;
        std::size_t used = 0; ///< bytes taken from chunks.back()
    };

    bool _enabled = false;
    bool _catEnabled[static_cast<unsigned>(TraceCategory::NumCategories)];
    /** Guards _events, _dropped increments, and _generation. */
    mutable std::mutex _mutex;
    std::vector<TraceEvent> _events; // htlint: guarded-by(_mutex)
    StringArena _arena; // htlint: guarded-by(_mutex)
    std::size_t _capacity = 1'000'000;
    std::atomic<std::uint64_t> _dropped{0};
    /** Bumped by clear() so stale per-thread "last event" indices
     *  held across a clear cannot decorate an unrelated event. */
    std::uint64_t _generation = 0; // htlint: guarded-by(_mutex)
    std::atomic<Tick> _timeline{0};
};

} // namespace hypertee

// The macros evaluate their arguments only when the category is live,
// so instrumentation can build names without paying for them in the
// (default) disabled configuration.
#ifndef HYPERTEE_TRACE_DISABLED

#define HT_TRACE_INSTANT(cat, name, ts)                                  \
    do {                                                                 \
        auto &ht_sink_ = ::hypertee::TraceSink::global();                \
        if (ht_sink_.on(cat))                                            \
            ht_sink_.instant(cat, name, ts);                             \
    } while (0)

/** Instant with one numeric argument. */
#define HT_TRACE_INSTANT1(cat, name, ts, key, value)                     \
    do {                                                                 \
        auto &ht_sink_ = ::hypertee::TraceSink::global();                \
        if (ht_sink_.on(cat)) {                                          \
            ht_sink_.instant(cat, name, ts);                             \
            ht_sink_.arg(key, static_cast<double>(value));               \
        }                                                                \
    } while (0)

#else

#define HT_TRACE_INSTANT(cat, name, ts) ((void)0)
#define HT_TRACE_INSTANT1(cat, name, ts, key, value) ((void)0)

#endif // HYPERTEE_TRACE_DISABLED

#endif // HYPERTEE_SIM_TRACE_HH
