/**
 * @file
 * Google-benchmark microbenchmarks of the building blocks: crypto
 * primitives (host-execution speed of the functional models),
 * mailbox operations, TLB/cache/page-table structures, simulation-
 * kernel hot paths (event queue, stats accumulation, trace
 * recording), and full primitive round trips through a live system.
 *
 * Unlike the figure/table benches this binary has a custom main: it
 * accepts --smoke (short --benchmark_min_time) and --perf-json=FILE
 * alongside the native --benchmark_* flags, so bench/perf_baseline
 * can fold its events/sec into the committed BENCH_<date>.json.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "core/sdk.hh"
#include "crypto/aes128.hh"
#include "crypto/ed25519.hh"
#include "crypto/sha256.hh"
#include "crypto/sha256_kernels.hh"
#include "crypto/sha3.hh"
#include "crypto/x25519.hh"
#include "mem/mmu.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "workload/profiles.hh"
#include "workload/runner.hh"

namespace hypertee
{
namespace
{

void
BM_Sha256(benchmark::State &state)
{
    Bytes data(state.range(0), 0xab);
    for (auto _ : state)
        benchmark::DoNotOptimize(Sha256::digest(data));
    state.SetBytesProcessed(state.iterations() * state.range(0));
    state.SetLabel(sha256KernelName(sha256ActiveKernel()));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void
BM_Sha3_256(benchmark::State &state)
{
    Bytes data(state.range(0), 0xcd);
    for (auto _ : state)
        benchmark::DoNotOptimize(sha3_256(data));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha3_256)->Arg(4096);

void
BM_AesCtr(benchmark::State &state)
{
    Aes128 aes(Bytes(16, 0x11));
    Bytes data(state.range(0), 0x22);
    for (auto _ : state)
        benchmark::DoNotOptimize(aes.ctrTransform(data, 7, 0));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(4096);

void
BM_Ed25519PublicKey(benchmark::State &state)
{
    Bytes seed(32, 0x42);
    for (auto _ : state)
        benchmark::DoNotOptimize(ed25519PublicKey(seed));
}
BENCHMARK(BM_Ed25519PublicKey);

void
BM_Ed25519Sign(benchmark::State &state)
{
    Bytes seed(32, 0x42);
    Bytes msg(64, 0x24);
    for (auto _ : state)
        benchmark::DoNotOptimize(ed25519Sign(seed, msg));
}
BENCHMARK(BM_Ed25519Sign);

void
BM_Ed25519Verify(benchmark::State &state)
{
    Bytes seed(32, 0x42);
    Bytes msg(64, 0x24);
    Bytes pub = ed25519PublicKey(seed);
    Bytes sig = ed25519Sign(seed, msg);
    for (auto _ : state)
        benchmark::DoNotOptimize(ed25519Verify(pub, msg, sig));
}
BENCHMARK(BM_Ed25519Verify);

/** Fixed-base X25519: public-key derivation (the comb path). */
void
BM_X25519Base(benchmark::State &state)
{
    Bytes scalar(32, 0x55);
    for (auto _ : state)
        benchmark::DoNotOptimize(x25519Base(scalar));
}
BENCHMARK(BM_X25519Base);

/** Variable-base X25519: a shared secret (the Montgomery ladder). */
void
BM_X25519Shared(benchmark::State &state)
{
    Bytes scalar(32, 0x55);
    Bytes peer = x25519Base(Bytes(32, 0x66));
    for (auto _ : state)
        benchmark::DoNotOptimize(x25519(scalar, peer));
}
BENCHMARK(BM_X25519Shared);

void
BM_TlbLookup(benchmark::State &state)
{
    Tlb tlb(32, 4);
    for (Addr i = 0; i < 32; ++i)
        tlb.insert(i << pageShift, (i + 100) << pageShift, PteRead, 0,
                   false);
    Addr va = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(va));
        va = (va + pageSize) % (32 * pageSize);
    }
}
BENCHMARK(BM_TlbLookup);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(64 * 1024, 8);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false));
        addr = (addr + 64) % (128 * 1024);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_PageTableWalk(benchmark::State &state)
{
    PhysicalMemory mem(0x8000'0000, 64 * 1024 * 1024);
    Addr cursor = 0x8000'0000;
    PageTable pt(&mem, [&] {
        Addr f = cursor;
        cursor += pageSize;
        return f;
    });
    for (Addr i = 0; i < 64; ++i)
        pt.map(0x4000'0000 + i * pageSize, 0x8010'0000 + i * pageSize,
               PteRead);
    Addr va = 0x4000'0000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk(va));
        va = 0x4000'0000 + ((va + pageSize) & (63 * pageSize));
    }
}
BENCHMARK(BM_PageTableWalk);

/**
 * A timer event that perpetually reschedules itself @p period ticks
 * ahead — the canonical discrete-event hot loop (DRAM refresh,
 * mailbox poll, context-switch quantum).
 */
struct SelfTimer
{
    SelfTimer(EventQueue &eq, Tick period)
        : event("tick", [this, &eq, period] {
              eq.schedule(&event, eq.now() + period);
          })
    {}

    Event event;
};

/**
 * Schedule/fire throughput: K live self-rescheduling timers, one
 * fired event per iteration. This is the steady-state cost every
 * simulated scenario pays per event.
 */
void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    EventQueue eq;
    const std::size_t k = static_cast<std::size_t>(state.range(0));
    std::vector<std::unique_ptr<SelfTimer>> timers;
    timers.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        timers.push_back(std::make_unique<SelfTimer>(eq, 100));
        eq.schedule(&timers[i]->event, i + 1);
    }
    for (auto _ : state)
        eq.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(4)->Arg(64)->Arg(1024);

/**
 * Reschedule storm: periodic timers are repeatedly pushed back
 * before they fire (TCP-style retransmit timers, watchdogs). Every
 * 4096 reschedules the queue is drained so the measured figure
 * includes the cost of firing through whatever bookkeeping the
 * reschedules left behind.
 */
void
BM_EventQueueRescheduleStorm(benchmark::State &state)
{
    EventQueue eq;
    constexpr std::size_t k = 16;
    std::vector<std::unique_ptr<Event>> timers;
    timers.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
        timers.push_back(std::make_unique<Event>("timer", [] {}));
    auto prime = [&] {
        for (std::size_t i = 0; i < k; ++i)
            eq.schedule(timers[i].get(), eq.now() + i + 1);
    };
    prime();
    std::size_t i = 0;
    for (auto _ : state) {
        eq.reschedule(timers[i % k].get(),
                      eq.now() + 1000 + (i % 64));
        if (++i % 4096 == 0) {
            eq.run();
            prime();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueRescheduleStorm);

/**
 * Deschedule-heavy pattern: events armed and cancelled without ever
 * firing (timeout guards on requests that complete in time).
 */
void
BM_EventQueueDescheduleHeavy(benchmark::State &state)
{
    EventQueue eq;
    constexpr std::size_t k = 32;
    std::vector<std::unique_ptr<Event>> guards;
    guards.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
        guards.push_back(std::make_unique<Event>("guard", [] {}));
    std::size_t i = 0;
    Event drain("drain", [] {});
    for (auto _ : state) {
        Event *ev = guards[i % k].get();
        eq.schedule(ev, eq.now() + 500 + (i % 16));
        eq.deschedule(ev);
        // Periodically fire one real event so time advances and the
        // queue's internal storage has to be walked.
        if (++i % 4096 == 0) {
            eq.schedule(&drain, eq.now() + 1);
            eq.run();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueDescheduleHeavy);

/**
 * The representative simulation inner loop: for every event that
 * actually fires (a DRAM response, a mailbox doorbell), several
 * timeout guards are armed and cancelled unfired, and a periodic
 * timer is pushed back. Under lazy deletion every cancellation left
 * a stale heap record that later pops had to skip past, so this
 * per-fired-event cost is where the intrusive heap pays off.
 *
 * MinTime is pinned (rather than inherited from --benchmark_min_time)
 * so this pattern dominates the events/sec figure bench_micro reports
 * into the committed BENCH_<date>.json baseline.
 */
void
BM_EventQueueSimLoop(benchmark::State &state)
{
    EventQueue eq;
    constexpr std::size_t kTimers = 16;
    constexpr std::size_t kGuards = 4;
    std::vector<std::unique_ptr<SelfTimer>> timers;
    timers.reserve(kTimers);
    for (std::size_t i = 0; i < kTimers; ++i) {
        timers.push_back(std::make_unique<SelfTimer>(eq, 100));
        eq.schedule(&timers[i]->event, i + 1);
    }
    std::vector<std::unique_ptr<Event>> guards;
    guards.reserve(kGuards);
    for (std::size_t i = 0; i < kGuards; ++i)
        guards.push_back(std::make_unique<Event>("guard", [] {}));
    std::size_t i = 0;
    for (auto _ : state) {
        Tick deadline = eq.now() + 5000 + (i % 64);
        for (auto &g : guards)
            eq.schedule(g.get(), deadline);
        eq.reschedule(&timers[i % kTimers]->event,
                      eq.now() + 150 + (i % 32));
        for (auto &g : guards)
            eq.deschedule(g.get());
        eq.step();
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSimLoop)->MinTime(0.5);

/**
 * Stats accumulation with interleaved reads: the Figure-6 pattern of
 * sampling latencies while periodically reporting quantiles.
 */
void
BM_DistributionSampleQuantile(benchmark::State &state)
{
    // htlint: allow(stat-registration)  microbenchmark-local, never exported
    Distribution d;
    std::uint64_t x = 1;
    std::size_t n = 0;
    for (auto _ : state) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        d.sample(static_cast<double>(x >> 40));
        if (++n % 65536 == 0) {
            benchmark::DoNotOptimize(d.quantile(0.99));
            benchmark::DoNotOptimize(d.mean());
            if (n % (1u << 22) == 0)
                d.clear();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DistributionSampleQuantile);

/** Trace recording cost with an argument attached to each event. */
void
BM_TraceRecordInstant(benchmark::State &state)
{
    TraceSink sink;
    sink.setEnabled(true);
    sink.setCategoryEnabled(TraceCategory::Queue, true);
    constexpr std::size_t capacity = 1u << 18;
    sink.setCapacity(capacity);
    Tick ts = 0;
    std::size_t n = 0;
    for (auto _ : state) {
        sink.instant(TraceCategory::Queue, "queue.fire", ts++);
        sink.arg("fired", static_cast<double>(ts));
        if (++n == capacity) {
            sink.clear();
            n = 0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordInstant);

void
BM_PrimitiveRoundTrip(benchmark::State &state)
{
    logging_detail::setVerbose(false);
    SystemParams p;
    p.csMemSize = 256ULL * 1024 * 1024;
    p.csCoreCount = 1;
    p.ems.pool.initialPages = 16384;
    HyperTeeSystem sys(p);
    EnclaveHandle enclave(sys, 0, EnclaveConfig{});
    enclave.setChargeCore(false);
    enclave.addImage(Bytes(pageSize, 1), EnclaveLayout::codeBase,
                     PteRead | PteExec);
    enclave.measure();
    enclave.enter();
    for (auto _ : state) {
        Addr va = enclave.alloc(1);
        enclave.free(va, 1);
    }
}
BENCHMARK(BM_PrimitiveRoundTrip);

void
BM_EnclaveWorkloadSimRate(benchmark::State &state)
{
    logging_detail::setVerbose(false);
    SystemParams p;
    p.csMemSize = 256ULL * 1024 * 1024;
    p.csCoreCount = 1;
    HyperTeeSystem sys(p);
    WorkloadRunner runner(sys);
    WorkloadProfile profile = profileByName("aes");
    profile.instructions = 200'000;
    for (auto _ : state)
        runner.runHost(profile);
    state.SetItemsProcessed(state.iterations() *
                            profile.instructions);
}
BENCHMARK(BM_EnclaveWorkloadSimRate);

} // namespace
} // namespace hypertee

/**
 * Custom main: peel off the harness flags (--smoke, --perf-json)
 * before handing the rest to google-benchmark, then emit the same
 * per-bench perf record the table/figure benches write.
 */
int
main(int argc, char **argv)
{
    using namespace hypertee;

    BenchOptions opts; // wall timer starts here
    opts.benchName = "bench_micro";
    // google-benchmark picks iteration counts adaptively, so the
    // event count varies run to run; tell bench_report not to expect
    // an exact events_fired match for this bench.
    opts.deterministicEvents = false;
    std::vector<char *> fwd;
    fwd.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            opts.smoke = true;
            continue;
        }
        const std::string flag = "--perf-json";
        if (arg.rfind(flag + "=", 0) == 0) {
            opts.perfJsonPath = arg.substr(flag.size() + 1);
            continue;
        }
        if (arg == flag && i + 1 < argc) {
            opts.perfJsonPath = argv[++i];
            continue;
        }
        fwd.push_back(argv[i]);
    }
    // Smoke mode: enough time per benchmark to be meaningful, short
    // enough that CI can afford the full suite.
    char smoke_min_time[] = "--benchmark_min_time=0.02";
    if (opts.smoke)
        fwd.push_back(smoke_min_time);

    int fwd_argc = static_cast<int>(fwd.size());
    benchmark::Initialize(&fwd_argc, fwd.data());
    if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    return writePerfJson(opts) ? 0 : 1;
}
