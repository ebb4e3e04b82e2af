/**
 * @file
 * Benchmark harness pieces shared by the workloads: the span recorder
 * of the traced run, the metric list a run reports, the digest of the
 * simulated counters, and the Workload interface the run loop in
 * main.cc runs.
 *
 * Two kinds of time appear here and are never mixed:
 *  - host time (std::chrono::steady_clock): how fast the simulator
 *    runs on the host;
 *  - simulated time (Tick, picoseconds): what the modelled HyperTEE
 *    hardware would take. It is a pure function of the seed.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "crypto/bytes.hh"
#include "crypto/sha256.hh"

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank quantile of @p v (sorted in place); 0 when empty. */
inline double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(q * double(v.size()));
    return v[std::min(rank, v.size() - 1)];
}

/**
 * One traced interval. Names are string literals, so the pointer is
 * stored, never copied. An op span has parent -1; every layer call
 * made inside an op has that op's span as its parent.
 */
struct Span
{
    const char *name;
    std::int32_t parent;
    std::uint32_t op;
    std::int64_t startNs;
    std::int64_t endNs;
};

/**
 * In-memory span store of the traced run. When disabled, begin()
 * returns -1 without reading the clock, so untraced runs pay one
 * predictable branch per call site.
 */
class SpanRecorder
{
  public:
    void setEnabled(bool on) { _on = on; }
    bool enabled() const { return _on; }

    std::int32_t
    begin(const char *name)
    {
        if (!_on)
            return -1;
        auto idx = static_cast<std::int32_t>(_spans.size());
        _spans.push_back({name, _openOp, _op, nowNs(), 0});
        return idx;
    }

    void
    end(std::int32_t idx)
    {
        if (idx >= 0)
            _spans[static_cast<std::size_t>(idx)].endNs = nowNs();
    }

    void
    beginOp(std::uint64_t op)
    {
        _op = static_cast<std::uint32_t>(op);
        _openOp = begin("op");
    }

    void
    endOp()
    {
        end(_openOp);
        _openOp = -1;
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    bool _on = false;
    std::vector<Span> _spans;
    std::int32_t _openOp = -1;
    std::uint32_t _op = 0;
};

/** RAII span around one call into a layer. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, const char *name)
        : _rec(rec), _idx(rec.begin(name))
    {}
    ~Scope() { _rec.end(_idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &_rec;
    std::int32_t _idx;
};

/** Span name of each EnclaveHandle primitive, `core.<primitive>`. */
inline constexpr const char *primitiveSpans[] = {
    "core.ecreate", "core.eadd",    "core.emeas",    "core.eenter",
    "core.eexit",   "core.eattest", "core.edestroy", "core.ealloc",
    "core.efree",   "core.eshmget", "core.eshmshr",  "core.eshmat",
    "core.eshmdt",  "core.eshmdes",
};

/** Host seconds spent in a callable. */
template <class F>
double
timeSeconds(F &&f)
{
    std::int64_t t0 = nowNs();
    f();
    return double(nowNs() - t0) * 1e-9;
}

/**
 * SHA-256 over the simulated results a window produced. Values are
 * buffered and hashed once at the end, so digesting adds almost
 * nothing to the window's op times.
 */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            _buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    void
    add(const hypertee::Bytes &b)
    {
        _buf.insert(_buf.end(), b.begin(), b.end());
    }

    std::string
    hex() const
    {
        hypertee::Bytes d = hypertee::Sha256::digest(_buf);
        return hypertee::toHex(d.data(), 16);
    }

  private:
    hypertee::Bytes _buf;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Every metric a run reports, by name. */
struct Report
{
    std::vector<Metric> metrics;
    /** Human-readable lines printed beside the simulated metrics. */
    std::vector<std::string> notes;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (auto &m : metrics) {
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        }
        metrics.push_back({name, value, unit});
    }

    const Metric *
    find(const std::string &name) const
    {
        for (const auto &m : metrics)
            if (m.name == name)
                return &m;
        return nullptr;
    }
};

/** State every workload shares with the run loop. */
struct Context
{
    std::uint64_t seed = 1;
    SpanRecorder trace;
    /** True while the deterministic window runs: simulated samples
     *  and counters are collected and digested only then. */
    bool inWindow = false;
    Digest digest;
    /** Self-test control: verify each quote against a wrong
     *  measurement, so every lifecycle op must fail. */
    bool negativeControl = false;
};

/** What one op() call completed. */
struct OpOutcome
{
    /** User-visible ops done (simulated requests for fleet_traffic). */
    std::uint64_t ops = 1;
    /** Every correctness check of the op passed. */
    bool ok = true;
};

/**
 * A closed-loop workload: the run loop calls op() back to back with no
 * think time. setup() builds every system, population and warm-up op;
 * the first windowCalls() op() calls after it form the deterministic
 * window whose simulated results are reported and digested.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup() = 0;
    virtual OpOutcome op(std::uint64_t i) = 0;

    /** Untimed upkeep between ops. */
    virtual void maintain() {}

    virtual std::uint64_t windowCalls() const = 0;

    /** Snapshot the simulated counters the window is measured by. */
    virtual void beginWindow() = 0;

    /**
     * Report the window's simulated metrics and per-layer counter
     * deltas (zero where a layer is unused) and digest them.
     */
    virtual void endWindow(Report &report) = 0;

    /** Host ms of each HyperTeeSystem construction during setup(). */
    std::vector<double> systemCtorMs;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       Context &ctx);

/** Every workload name makeWorkload() accepts. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
