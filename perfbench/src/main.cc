/**
 * @file
 * perfbench: the simulator's benchmark runner.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans-out <path>] [--negative-control]
 *
 * A run sets the workload up several times (setup_s is the median),
 * then issues ops closed-loop, one after another, for --seconds of host
 * time, untraced. The first ops form a fixed window whose simulated
 * results are a pure function of the seed: the sim_* metrics, the
 * per-layer counters and the digest all come from it. With --trace 1 a
 * traced tail follows the budget: one span per call into a layer, kept
 * in memory and written to --spans-out at the end. The per-layer host
 * times come from the tail's spans, and the tracing overhead is the
 * tail's mean op time against as many untraced calls just before it.
 * The host end-to-end times are scaled by a memory-speed probe sampled
 * between op calls (SpeedProbe), which removes most of a shared host's
 * speed swings; the per-layer host times are not scaled.
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics, holding every host and per-layer
 * metric. perfbench/run.py keeps the ones BENCHMARK.json lists for the
 * mode: end_to_end with --trace 0, per_layer with --trace 1.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.hh"
#include "sim/logging.hh"
#include "sim/perf.hh"

using namespace perfbench;

namespace
{

constexpr int setupsBefore = 5;
constexpr double setupInterval = 0.5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool negativeControl = false;
    std::string spansOut;
};

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> hostMetrics = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"op_us_p50", "us"},
    {"op_us_p99", "us"},
    {"peak_rss_mb", "MiB"},
};

/** The simulated end-to-end metrics, with the workloads they apply to. */
const std::vector<std::pair<MetricDef, std::vector<std::string>>>
    simEndToEnd = {
        {{"sim_ipc", "insts/cycle"}, {"enclave_compute"}},
        {{"sim_overhead_pct", "%"}, {"enclave_compute"}},
        {{"sim_prim_us_p50", "sim_us"},
         {"enclave_lifecycle", "ems_churn", "fleet_traffic"}},
        {{"sim_prim_us_p99", "sim_us"},
         {"enclave_lifecycle", "ems_churn", "fleet_traffic"}},
        {{"sim_knee_rps", "sim_req/s"}, {"fleet_traffic"}},
};

/** The per-layer metrics, in print order; 0 where a layer is unused. */
std::vector<MetricDef>
perLayerDefs()
{
    std::vector<MetricDef> defs = {{"fail_ratio", "ratio"}};
    for (const auto &[def, applies] : simEndToEnd)
        defs.push_back(def);
    std::vector<MetricDef> layers = {
        {"trace.overhead_pct", "%"},
        {"trace.op_self_share", "ratio"},
        {"cpu.run_ns_per_inst", "ns/inst"},
        {"cpu.insts_per_s", "insts/s"},
        {"cpu.insts", "insts"},
        {"cpu.cycles", "cycles"},
        {"cpu.mispredict_ratio", "ratio"},
        {"mem.tlb_miss_ratio", "ratio"},
        {"mem.stlb_hit_ratio", "ratio"},
        {"mem.bitmap_retrievals", "count"},
        {"mem.l1d_miss_ratio", "ratio"},
        {"mem.l2_miss_ratio", "ratio"},
        {"mem.dram_accesses", "count"},
        {"mem.tlb_flushes", "count"},
        {"mem.bitmap_updates", "count"},
    };
    defs.insert(defs.end(), layers.begin(), layers.end());
    for (const char *span : primitiveSpans) {
        std::string base = span;
        defs.push_back({base + ".calls", "count"});
        defs.push_back({base + ".host_us_p50", "us"});
        defs.push_back({base + ".host_s", "s"});
        defs.push_back({base + ".sim_us_p50", "sim_us"});
    }
    std::vector<MetricDef> rest = {
        {"core.verify.host_us_p50", "us"},
        {"core.system_ctor_ms", "ms"},
        {"core.os_pool_grants", "count"},
        {"crypto.lifecycle_share", "ratio"},
        {"emcall.requests", "count"},
        {"emcall.blocked", "count"},
        {"fabric.mailbox_rejected", "count"},
        {"fabric.ihub_blocked", "count"},
        {"ems.sanity_rejections", "count"},
        {"ems.ownership_conflicts", "count"},
        {"ems.pool_os_requests", "count"},
        {"sim.events", "count"},
        {"sim.events_per_s", "events/s"},
        {"sim.ns_per_event", "ns/event"},
        {"workload.fleet_completed", "count"},
        {"workload.fleet_rejected", "count"},
        {"workload.fleet_peak_queue", "count"},
        {"workload.fleet_goodput_rps", "sim_req/s"},
    };
    defs.insert(defs.end(), rest.begin(), rest.end());
    return defs;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>] [--negative-control]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        auto eq = flag.find('=');
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
        } else if (flag != "--negative-control") {
            if (i + 1 >= argc)
                return false;
            value = argv[++i];
        }
        try {
            if (flag == "--workload")
                a.workload = value;
            else if (flag == "--seed")
                a.seed = std::stoull(value);
            else if (flag == "--seconds")
                a.seconds = std::stod(value);
            else if (flag == "--trace")
                a.trace = std::stoi(value) != 0;
            else if (flag == "--spans-out")
                a.spansOut = value;
            else if (flag == "--negative-control")
                a.negativeControl = true;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

/** Host-time view of the traced tail, from its spans. */
struct SpanTotals
{
    std::map<std::string, std::vector<double>> us;
    std::map<std::string, double> seconds;
    double opSeconds = 0;
    double opSelfSeconds = 0;
};

SpanTotals
summarize(const std::vector<Span> &spans)
{
    SpanTotals t;
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span &s : spans) {
        double sec = double(s.endNs - s.startNs) * 1e-9;
        if (s.parent >= 0)
            child_s[static_cast<std::size_t>(s.parent)] += sec;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double sec = double(s.endNs - s.startNs) * 1e-9;
        if (s.parent < 0) {
            t.opSeconds += sec;
            t.opSelfSeconds += sec - child_s[i];
            continue;
        }
        t.us[s.name].push_back(sec * 1e6);
        t.seconds[s.name] += sec;
    }
    return t;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "index,name,parent,op,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << i << ',' << s.name << ',' << s.parent << ',' << s.op << ','
            << s.startNs << ',' << s.endNs << '\n';
    }
}

/**
 * Per-layer host metrics derived from the traced tail's spans and the
 * instructions and events the simulator counted during it.
 */
void
reportSpans(Report &r, SpanTotals &t, std::uint64_t insts,
            std::uint64_t events)
{
    for (const char *span : primitiveSpans) {
        std::string name = span;
        r.set(name + ".host_us_p50", quantile(t.us[name], 0.5), "us");
        r.set(name + ".host_s", t.seconds[name], "s");
    }
    r.set("core.verify.host_us_p50", quantile(t.us["core.verify"], 0.5),
          "us");
    double run_s = t.seconds["cpu.run"];
    if (insts > 0 && run_s > 0) {
        r.set("cpu.run_ns_per_inst", run_s * 1e9 / double(insts),
              "ns/inst");
        r.set("cpu.insts_per_s", double(insts) / run_s, "insts/s");
    }
    double fleet_s = t.seconds["workload.fleet_run"];
    if (events > 0 && fleet_s > 0) {
        r.set("sim.events_per_s", double(events) / fleet_s, "events/s");
        r.set("sim.ns_per_event", fleet_s * 1e9 / double(events),
              "ns/event");
    }
    if (t.opSeconds > 0) {
        r.set("trace.op_self_share", t.opSelfSeconds / t.opSeconds,
              "ratio");
        r.set("crypto.lifecycle_share",
              (t.seconds["core.eadd"] + t.seconds["core.eattest"] +
               t.seconds["core.verify"]) /
                  t.opSeconds,
              "ratio");
    }
}

/** A "VmRSS:"-style field of /proc/self/status in KiB; -1 if absent. */
double
statusKiB(const std::string &field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind(field, 0) == 0)
            return std::stod(line.substr(field.size()));
    return -1;
}

/**
 * Memory-speed probe of the host. A shared host's vCPU switches between
 * a fast mode and one about 40% slower on memory-bound code, as
 * neighbours come and go, within a fraction of a second; the share of
 * time in each mode differs from run to run. One sample times a fixed
 * number of random read-modify-writes into a 4 MiB table (past L2), the
 * kind of access whose speed tracks those modes. The probe is this
 * file's own code, so no change to the simulator moves it.
 *
 * The workloads swing less than the probe does, each by its own share:
 * a host time t measured at probe speed p is reported as
 * t * (refNsPerAccess / p)^e, with the workload's exponent e from
 * probeExponent().
 */
class SpeedProbe
{
  public:
    /** About the probe's speed in the fast mode of the machine the
     *  bounds were tuned on (a 4-vCPU VM at 2.1 GHz). */
    static constexpr double refNsPerAccess = 10.0;

    /** Factor that scales a host time measured at @p ns per access. */
    static double
    scale(double ns, double exponent)
    {
        return std::pow(refNsPerAccess / ns, exponent);
    }

    SpeedProbe() : _table(tableWords)
    {
        for (std::size_t i = 0; i < tableWords; ++i)
            _table[i] = i;
    }

    /** Host ns per access of one sample. */
    double
    sample()
    {
        std::int64_t t0 = nowNs();
        for (int i = 0; i < accesses; ++i) {
            _x ^= _x << 13;
            _x ^= _x >> 7;
            _x ^= _x << 17;
            _table[_x & (tableWords - 1)] += _x;
        }
        return double(nowNs() - t0) / accesses;
    }

  private:
    static constexpr std::size_t tableWords = std::size_t(1) << 19;
    static constexpr int accesses = 2500;
    std::vector<std::uint64_t> _table;
    std::uint64_t _x = 0x9E3779B97F4A7C15ull;
};

/**
 * How strongly a workload's host time follows the probe: the
 * least-squares slope of log op time on log probe time over 0.1 s
 * sub-windows of 30 s runs, pooled over seeds, on the machine the
 * bounds were tuned on (correlation 0.87-0.93).
 */
double
probeExponent(const std::string &workload)
{
    if (workload == "enclave_compute")
        return 0.75;
    if (workload == "enclave_lifecycle")
        return 0.6;
    if (workload == "ems_churn")
        return 0.65;
    return 0.9; // fleet_traffic
}

/** Probe samples are taken between op calls this often (host time). */
constexpr double probeInterval = 0.005;

/** One probe sample, taken just before untraced op call @c call. */
struct ProbeSample
{
    std::size_t call;
    double nsPerAccess;
};

struct RunResult
{
    Report report;
    /**
     * Peak RSS once set-up and the window are done: a fixed amount of
     * work, so it does not grow with how many ops a fast or slow host
     * fits into the budget. The speed probe's table is not counted.
     */
    double peakRssMiB = 0;
    /** Seconds and user-visible ops of each untraced op() call. */
    std::vector<double> callSeconds;
    std::vector<std::uint64_t> callOps;
    std::vector<ProbeSample> probes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double opSeconds = 0;
    std::uint64_t timedOps = 0;
    /** Median set-up time, unscaled. */
    double setupS = 0;
    std::size_t setups = 0;
    double ctorMs = 0;
    std::uint64_t windowCalls = 0;
    std::string digest;
    /** The traced tail (--trace 1 only). */
    std::uint64_t tailCalls = 0;
    double tailSeconds = 0;
    std::uint64_t tailOps = 0;
    std::uint64_t tailInsts = 0;
    std::uint64_t tailEvents = 0;
};

/**
 * Set up, run the window, keep issuing untraced ops until the budget
 * is spent, then (with --trace 1) run the traced tail: whole windows'
 * worth of op() calls, about half a second, with every layer call
 * spanned.
 *
 * Set-up is timed setupsBefore times before the window and once more
 * every setupInterval seconds of the untraced loop on a throwaway
 * instance, so the setup_s median samples the machine across the run
 * rather than only its first moments. Between untraced op calls, the
 * speed probe is sampled every probeInterval seconds.
 */
RunResult
runWorkload(const Args &args, Context &ctx)
{
    RunResult res;
    const double rss_before_probe = statusKiB("VmRSS:");
    SpeedProbe probe;
    const double probe_kib = std::max(0.0, statusKiB("VmRSS:") -
                                               rss_before_probe);
    std::vector<double> setup_s, ctor_ms;
    auto set_up = [&] {
        std::unique_ptr<Workload> fresh = makeWorkload(args.workload, ctx);
        setup_s.push_back(timeSeconds([&] { fresh->setup(); }));
        ctor_ms.insert(ctor_ms.end(), fresh->systemCtorMs.begin(),
                       fresh->systemCtorMs.end());
        return fresh;
    };
    std::unique_ptr<Workload> w;
    for (int rep = 0; rep < setupsBefore; ++rep) {
        w.reset();
        w = set_up();
    }
    res.windowCalls = w->windowCalls();
    const auto setup_interval_ns =
        static_cast<std::int64_t>(setupInterval * 1e9);
    std::int64_t last_setup = nowNs();
    const auto probe_interval_ns =
        static_cast<std::int64_t>(probeInterval * 1e9);
    std::int64_t last_probe = nowNs();
    res.probes.push_back({0, probe.sample()});

    ctx.inWindow = true;
    w->beginWindow();
    std::uint64_t events0 = hypertee::perf::totalEventsFired();
    const std::int64_t start = nowNs();
    const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
    std::uint64_t tail_start = 0;
    std::uint64_t insts0 = 0;
    for (std::uint64_t call = 0;; ++call) {
        if (call == res.windowCalls) {
            w->endWindow(res.report);
            res.report.set("sim.events",
                           double(hypertee::perf::totalEventsFired() -
                                  events0),
                           "count");
            double hwm_kib = statusKiB("VmHWM:");
            res.peakRssMiB =
                hwm_kib < 0
                    ? double(hypertee::perf::peakRssKb()) / 1024.0
                    : (hwm_kib - probe_kib) / 1024.0;
            ctx.inWindow = false;
        }
        bool traced = ctx.trace.enabled();
        if (!traced && call >= res.windowCalls &&
            nowNs() - start >= budget_ns) {
            if (!args.trace)
                break;
            double mean_call = res.opSeconds / double(call);
            double reps = std::round(
                0.5 / (mean_call * double(res.windowCalls)));
            res.tailCalls =
                res.windowCalls * static_cast<std::uint64_t>(
                                      std::max(1.0, reps));
            tail_start = call;
            insts0 = hypertee::perf::totalInstsRetired();
            events0 = hypertee::perf::totalEventsFired();
            ctx.trace.setEnabled(true);
            traced = true;
        }
        if (traced && call == tail_start + res.tailCalls) {
            ctx.trace.setEnabled(false);
            res.tailInsts = hypertee::perf::totalInstsRetired() - insts0;
            res.tailEvents = hypertee::perf::totalEventsFired() - events0;
            break;
        }
        if (call >= res.windowCalls) {
            w->maintain();
            if (!traced && nowNs() - last_setup >= setup_interval_ns) {
                set_up();
                last_setup = nowNs();
            }
        }
        if (!traced && nowNs() - last_probe >= probe_interval_ns) {
            res.probes.push_back({res.callSeconds.size(), probe.sample()});
            last_probe = nowNs();
        }
        ctx.trace.beginOp(call);
        std::int64_t t0 = nowNs();
        OpOutcome o = w->op(call);
        std::int64_t t1 = nowNs();
        ctx.trace.endOp();
        double sec = double(t1 - t0) * 1e-9;
        res.attempted += o.ops;
        if (!o.ok)
            res.failed += o.ops;
        if (traced) {
            res.tailSeconds += sec;
            res.tailOps += o.ops;
            continue;
        }
        res.opSeconds += sec;
        res.timedOps += o.ops;
        res.callSeconds.push_back(sec);
        res.callOps.push_back(o.ops);
    }
    res.setupS = median(setup_s);
    res.setups = setup_s.size();
    res.ctorMs = median(ctor_ms);
    res.digest = ctx.digest.hex();
    return res;
}

/**
 * Host end-to-end statistics of the untraced calls, scaled to the speed
 * probe's reference speed.
 *
 * The calls are cut into consecutive sub-windows of subWindowSeconds of
 * op time. Each sub-window is scaled by SpeedProbe::scale() of the
 * median probe sample taken inside it, which removes most of the host's
 * speed modes: ops_per_s is the median scaled rate over all
 * sub-windows, op_us_p50 and op_us_p99 are over every call's scaled op
 * time. A trailing partial sub-window is dropped unless it is the only
 * one.
 */
struct HostStats
{
    double opsPerS = 0;
    double p50 = 0;
    double p99 = 0;
    /** The same statistics without scaling, for the report. */
    double rawOpsPerS = 0;
    double rawP50 = 0;
    double probeNs = 0;
    std::size_t samples = 0;
    std::size_t windows = 0;
    long long beyondP99 = 0;
};

constexpr double subWindowSeconds = 0.1;

HostStats
hostStats(const std::vector<double> &secs,
          const std::vector<std::uint64_t> &ops,
          const std::vector<ProbeSample> &probes, double exponent)
{
    std::vector<double> rates, raw_rates, us, raw_us;
    std::size_t next_probe = 0;
    double speed = probes.empty() ? SpeedProbe::refNsPerAccess
                                  : probes.front().nsPerAccess;
    auto close = [&](std::size_t begin, std::size_t end, double win_s,
                     std::uint64_t win_ops) {
        std::vector<double> ns;
        for (; next_probe < probes.size() && probes[next_probe].call < end;
             ++next_probe)
            ns.push_back(probes[next_probe].nsPerAccess);
        if (!ns.empty())
            speed = median(ns);
        double scale = SpeedProbe::scale(speed, exponent);
        raw_rates.push_back(double(win_ops) / win_s);
        rates.push_back(raw_rates.back() / scale);
        for (std::size_t i = begin; i < end; ++i) {
            raw_us.push_back(secs[i] * 1e6 / double(ops[i]));
            us.push_back(raw_us.back() * scale);
        }
    };
    std::size_t begin = 0;
    double win_s = 0;
    std::uint64_t win_ops = 0;
    for (std::size_t i = 0; i < secs.size(); ++i) {
        win_s += secs[i];
        win_ops += ops[i];
        if (win_s >= subWindowSeconds) {
            close(begin, i + 1, win_s, win_ops);
            begin = i + 1;
            win_s = 0;
            win_ops = 0;
        }
    }
    if (rates.empty() && win_s > 0)
        close(0, secs.size(), win_s, win_ops);
    HostStats h;
    h.samples = us.size();
    h.windows = rates.size();
    h.beyondP99 = static_cast<long long>(us.size()) -
                  static_cast<long long>(std::ceil(0.99 * double(us.size())));
    h.opsPerS = median(rates);
    h.p50 = quantile(us, 0.5);
    h.p99 = quantile(us, 0.99);
    h.rawOpsPerS = median(raw_rates);
    h.rawP50 = quantile(raw_us, 0.5);
    std::vector<double> all_ns;
    for (const ProbeSample &p : probes)
        all_ns.push_back(p.nsPerAccess);
    h.probeNs = probes.empty() ? SpeedProbe::refNsPerAccess : median(all_ns);
    return h;
}

void
printLine(const std::string &name, double value, const std::string &unit)
{
    std::printf("  %-22s %-14s %s\n", name.c_str(), num(value).c_str(),
                unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    hypertee::logging_detail::setVerbose(false);
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage("bad arguments");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
        return usage("unknown workload");

    Context ctx;
    ctx.seed = args.seed;
    ctx.negativeControl = args.negativeControl;
    RunResult res;
    try {
        res = runWorkload(args, ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    Report &r = res.report;

    // Fill every metric the run reports; zero where a layer is unused.
    double fail_ratio =
        res.attempted ? double(res.failed) / double(res.attempted) : 0.0;
    r.set("fail_ratio", fail_ratio, "ratio");
    r.set("core.system_ctor_ms", res.ctorMs, "ms");
    // Tracing overhead: the traced tail against as many untraced calls
    // just before it.
    std::size_t n_calls = res.callSeconds.size();
    if (res.tailOps > 0 && n_calls >= res.tailCalls) {
        double before_s = 0;
        std::uint64_t before_ops = 0;
        for (std::size_t i = n_calls - res.tailCalls; i < n_calls; ++i) {
            before_s += res.callSeconds[i];
            before_ops += res.callOps[i];
        }
        double traced = res.tailSeconds / double(res.tailOps);
        double untraced = before_s / double(before_ops);
        r.set("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
    }
    SpanTotals spans = summarize(ctx.trace.spans());
    reportSpans(r, spans, res.tailInsts, res.tailEvents);
    for (const MetricDef &d : perLayerDefs())
        if (!r.find(d.name))
            r.set(d.name, 0.0, d.unit);

    const double exponent = probeExponent(args.workload);
    HostStats host =
        hostStats(res.callSeconds, res.callOps, res.probes, exponent);
    r.set("setup_s", res.setupS * SpeedProbe::scale(host.probeNs, exponent),
          "s");
    r.set("ops_per_s", host.opsPerS, "ops/s");
    r.set("op_us_p50", host.p50, "us");
    r.set("op_us_p99", host.p99, "us");
    r.set("peak_rss_mb", res.peakRssMiB, "MiB");

    // Structural checks on the window's counters.
    bool consistent = true;
    double calls = 0;
    for (const char *span : primitiveSpans)
        calls += r.find(std::string(span) + ".calls")->value;
    if (r.find("emcall.requests")->value != calls) {
        std::printf("check failed: emcall.requests %s != sum of "
                    "core.*.calls %s\n",
                    num(r.find("emcall.requests")->value).c_str(),
                    num(calls).c_str());
        consistent = false;
    }
    for (const char *zero :
         {"emcall.blocked", "fabric.mailbox_rejected", "fabric.ihub_blocked",
          "ems.sanity_rejections", "ems.ownership_conflicts"}) {
        if (r.find(zero)->value != 0) {
            std::printf("check failed: %s is %s, expected 0\n", zero,
                        num(r.find(zero)->value).c_str());
            consistent = false;
        }
    }

    std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                num(args.seconds).c_str(), args.trace ? 1 : 0);
    std::printf("set-up: median of %zu. ops: %llu in %zu samples over "
                "%zu sub-windows of %.2f s, %lld beyond p99%s\n",
                res.setups,
                static_cast<unsigned long long>(res.timedOps),
                host.samples, host.windows, subWindowSeconds,
                host.beyondP99,
                host.beyondP99 < 10 ? " (fewer than 10: p99 is unresolved)"
                                    : "");
    std::printf("speed probe: %zu samples, median %s ns/access; host "
                "times are scaled by (%s ns / probe)^%s. Unscaled: "
                "setup_s %s, ops_per_s %s, op_us_p50 %s\n",
                res.probes.size(), num(host.probeNs).c_str(),
                num(SpeedProbe::refNsPerAccess).c_str(),
                num(exponent).c_str(), num(res.setupS).c_str(),
                num(host.rawOpsPerS).c_str(), num(host.rawP50).c_str());
    std::printf("host end-to-end (untraced ops only, scaled):\n");
    for (const MetricDef &d : hostMetrics)
        printLine(d.name, r.find(d.name)->value, d.unit);
    std::printf("simulated end-to-end (window of %llu op calls, "
                "deterministic for a seed):\n",
                static_cast<unsigned long long>(res.windowCalls));
    for (const auto &[def, applies] : simEndToEnd) {
        if (std::find(applies.begin(), applies.end(), args.workload) ==
            applies.end())
            std::printf("  %-22s %-14s %s\n", def.name.c_str(), "n/a",
                        def.unit.c_str());
        else
            printLine(def.name, r.find(def.name)->value, def.unit);
    }
    printLine("fail_ratio", fail_ratio, "ratio");
    for (const std::string &note : r.notes)
        std::printf("  note: %s\n", note.c_str());
    std::printf("digest %s\n", res.digest.c_str());

    if (args.trace && !args.spansOut.empty()) {
        try {
            writeSpans(args.spansOut, ctx.trace.spans());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s\n", e.what());
            return 1;
        }
    }

    std::string json = "{\"correct\": ";
    json += res.failed == 0 && consistent ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    std::vector<MetricDef> defs = hostMetrics;
    for (const MetricDef &d : perLayerDefs())
        defs.push_back(d);
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const Metric *m = r.find(defs[i].name);
        json += (i ? ", \"" : "\"") + m->name + "\": {\"value\": " +
                num(m->value) + ", \"unit\": \"" + m->unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
