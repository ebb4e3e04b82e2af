/**
 * @file
 * The four benchmark workloads. Each drives the simulator's public API
 * from outside, one op after another, and times its calls into each
 * layer with the span recorder.
 *
 * Every profile, system and fleet parameter is pinned in this file
 * instead of being read from src/workload/profiles.cc or
 * fleetSloScenarios(), so retuning a figure bench cannot move this
 * benchmark. Every generated input derives from Context::seed.
 */

#include <array>
#include <cstdio>
#include <functional>
#include <iterator>
#include <stdexcept>

#include "core/sdk.hh"
#include "core/system.hh"
#include "harness.hh"
#include "sim/perf.hh"
#include "sim/shard.hh"
#include "workload/synthetic.hh"
#include "workload/traffic.hh"

using namespace hypertee;

namespace perfbench
{

namespace
{

constexpr double ticksPerUs = 1e6;

/** Seed streams split from the workload seed, one per consumer. */
enum SeedStream : std::uint64_t
{
    seedSystem = 100,
    seedEms,
    seedImage,
    seedVerifier,
    seedChurnOrder,
    seedStream,
    seedFleet,
};

std::uint64_t
subSeed(std::uint64_t seed, SeedStream stream, std::uint64_t index = 0)
{
    return shardSeed(shardSeed(seed, stream), index);
}

void
require(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("set-up failed: ") + what);
}

/** The single-core evaluation system every workload builds on. */
SystemParams
benchSystem(std::uint64_t seed)
{
    SystemParams p;
    p.csMemSize = 512ULL << 20;
    p.csCoreCount = 1;
    p.ems.cryptoEnginePresent = true;
    p.ems.pool.initialPages = 16384;
    p.ems.pool.refillBatch = 4096;
    p.seed = subSeed(seed, seedSystem);
    p.ems.seed = subSeed(seed, seedEms);
    return p;
}

std::unique_ptr<HyperTeeSystem>
buildSystem(const SystemParams &params, std::vector<double> &ctor_ms)
{
    std::unique_ptr<HyperTeeSystem> sys;
    double s = timeSeconds(
        [&] { sys = std::make_unique<HyperTeeSystem>(params); });
    ctor_ms.push_back(s * 1e3);
    return sys;
}

Bytes
seededBytes(std::uint64_t seed, std::size_t n)
{
    Random rng(seed);
    Bytes out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

/** Counters that stay 0 while only valid requests are issued. */
std::uint64_t
rejectionCount(HyperTeeSystem &sys)
{
    return sys.emCall(0).blockedCrossPrivilege() +
           sys.ihub().mailbox().requestsRejected() +
           sys.ihub().blockedCsAccesses() + sys.ems().sanityRejections() +
           sys.ems().ownership().conflicts();
}

/** Management-plane counters of one system, for window deltas. */
struct PlaneCounters
{
    std::uint64_t emcallRequests = 0;
    std::uint64_t emcallBlocked = 0;
    std::uint64_t mailboxRejected = 0;
    std::uint64_t ihubBlocked = 0;
    std::uint64_t sanityRejections = 0;
    std::uint64_t ownershipConflicts = 0;
    std::uint64_t poolOsRequests = 0;
    std::uint64_t osPoolGrants = 0;
    std::uint64_t tlbFlushes = 0;
    std::uint64_t bitmapUpdates = 0;

    static PlaneCounters
    read(HyperTeeSystem &sys)
    {
        PlaneCounters c;
        c.emcallRequests = sys.emCall(0).requestsIssued();
        c.emcallBlocked = sys.emCall(0).blockedCrossPrivilege();
        c.mailboxRejected = sys.ihub().mailbox().requestsRejected();
        c.ihubBlocked = sys.ihub().blockedCsAccesses();
        c.sanityRejections = sys.ems().sanityRejections();
        c.ownershipConflicts = sys.ems().ownership().conflicts();
        c.poolOsRequests = sys.ems().pool().osRequests();
        c.osPoolGrants = sys.osPoolGrants();
        c.tlbFlushes = sys.core(0).mmu().tlb().flushes();
        c.bitmapUpdates = sys.bitmap().updates();
        return c;
    }

    PlaneCounters
    operator-(const PlaneCounters &o) const
    {
        PlaneCounters d;
        d.emcallRequests = emcallRequests - o.emcallRequests;
        d.emcallBlocked = emcallBlocked - o.emcallBlocked;
        d.mailboxRejected = mailboxRejected - o.mailboxRejected;
        d.ihubBlocked = ihubBlocked - o.ihubBlocked;
        d.sanityRejections = sanityRejections - o.sanityRejections;
        d.ownershipConflicts = ownershipConflicts - o.ownershipConflicts;
        d.poolOsRequests = poolOsRequests - o.poolOsRequests;
        d.osPoolGrants = osPoolGrants - o.osPoolGrants;
        d.tlbFlushes = tlbFlushes - o.tlbFlushes;
        d.bitmapUpdates = bitmapUpdates - o.bitmapUpdates;
        return d;
    }

    void
    report(Report &r, Digest &digest) const
    {
        r.set("emcall.requests", double(emcallRequests), "count");
        r.set("emcall.blocked", double(emcallBlocked), "count");
        r.set("fabric.mailbox_rejected", double(mailboxRejected),
              "count");
        r.set("fabric.ihub_blocked", double(ihubBlocked), "count");
        r.set("ems.sanity_rejections", double(sanityRejections), "count");
        r.set("ems.ownership_conflicts", double(ownershipConflicts),
              "count");
        r.set("ems.pool_os_requests", double(poolOsRequests), "count");
        r.set("core.os_pool_grants", double(osPoolGrants), "count");
        r.set("mem.tlb_flushes", double(tlbFlushes), "count");
        r.set("mem.bitmap_updates", double(bitmapUpdates), "count");
        for (std::uint64_t v :
             {emcallRequests, emcallBlocked, mailboxRejected, ihubBlocked,
              sanityRejections, ownershipConflicts, poolOsRequests,
              osPoolGrants, tlbFlushes, bitmapUpdates})
            digest.add(v);
    }
};

// ------------------------------------------------------------ primitives

enum class Prim : std::size_t
{
    ECreate,
    EAdd,
    EMeas,
    EEnter,
    EExit,
    EAttest,
    EDestroy,
    EAlloc,
    EFree,
    EShmGet,
    EShmShr,
    EShmAt,
    EShmDt,
    EShmDes,
    Count,
};

constexpr std::size_t primCount = std::size_t(Prim::Count);

static_assert(std::size(primitiveSpans) == primCount,
              "one span name per primitive, in Prim order");

/**
 * Issues EnclaveHandle calls: one span per call, a status check on
 * every call, and (inside the window) the simulated round-trip latency
 * from EnclaveHandle::lastLatency().
 */
class PrimitiveLog
{
  public:
    explicit PrimitiveLog(Context &ctx) : _ctx(ctx) {}

    template <class F>
    bool
    call(Prim p, EnclaveHandle &h, F &&f)
    {
        bool ok;
        {
            Scope span(_ctx.trace, primitiveSpans[std::size_t(p)]);
            ok = f();
        }
        ok = ok && h.lastStatus() == PrimStatus::Ok;
        note(p, h);
        return ok;
    }

    /** ECREATE is the handle's constructor. */
    bool
    create(HyperTeeSystem &sys, const EnclaveConfig &cfg,
           std::unique_ptr<EnclaveHandle> &h)
    {
        {
            Scope span(_ctx.trace,
                       primitiveSpans[std::size_t(Prim::ECreate)]);
            h = std::make_unique<EnclaveHandle>(sys, 0, cfg, false);
        }
        note(Prim::ECreate, *h);
        return h->valid() && h->lastStatus() == PrimStatus::Ok;
    }

    void
    report(Report &r)
    {
        std::vector<double> all;
        for (std::size_t p = 0; p < primCount; ++p) {
            std::string name = primitiveSpans[p];
            auto &lat = _simUs[p];
            all.insert(all.end(), lat.begin(), lat.end());
            r.set(name + ".calls", double(lat.size()), "count");
            r.set(name + ".sim_us_p50", quantile(lat, 0.5), "sim_us");
        }
        r.set("sim_prim_us_p50", quantile(all, 0.5), "sim_us");
        r.set("sim_prim_us_p99", quantile(all, 0.99), "sim_us");
    }

  private:
    void
    note(Prim p, const EnclaveHandle &h)
    {
        if (!_ctx.inWindow)
            return;
        _simUs[std::size_t(p)].push_back(double(h.lastLatency()) /
                                         ticksPerUs);
        _ctx.digest.add(std::uint64_t(p));
        _ctx.digest.add(std::uint64_t(h.lastLatency()));
        _ctx.digest.add(std::uint64_t(h.lastStatus()));
    }

    Context &_ctx;
    std::array<std::vector<double>, primCount> _simUs;
};

// -------------------------------------------------------- enclave_compute

/**
 * xalancbmk_r as Fig. 10 models it: a cache-resident 96 KiB working
 * set plus a sparse 32 MiB region that makes ~0.7% of accesses miss
 * the TLB. The stream never ends; each op runs one quantum of it.
 */
WorkloadProfile
xalancbmkProfile()
{
    WorkloadProfile p;
    p.name = "xalancbmk_r";
    p.instructions = ~std::uint64_t(0);
    p.loadFrac = 0.32;
    p.storeFrac = 0.12;
    p.branchFrac = 0.16;
    p.fpFrac = 0.02;
    p.workingSetBytes = 96 * 1024;
    p.sequentialFrac = 0.60;
    p.sparseFrac = 0.0074;
    p.sparsePages = 8192;
    p.branchNoise = 0.05;
    p.imageBytes = 16 * pageSize;
    return p;
}

/** Fig. 8b MemStream at 16 MiB: pure streaming, far past the 1 MiB L2. */
WorkloadProfile
memStreamProfile16()
{
    WorkloadProfile p;
    p.name = "memstream";
    p.instructions = ~std::uint64_t(0);
    p.loadFrac = 0.45;
    p.storeFrac = 0.15;
    p.branchFrac = 0.05;
    p.fpFrac = 0.0;
    p.workingSetBytes = 16ULL << 20;
    p.sequentialFrac = 1.0;
    p.branchNoise = 0.0;
    p.imageBytes = 2 * pageSize;
    return p;
}

/** One system running one profile's stream, quantum by quantum. */
struct Side
{
    std::unique_ptr<HyperTeeSystem> sys;
    std::unique_ptr<EnclaveHandle> enclave;
    std::unique_ptr<SyntheticWorkload> stream;
    RunStats window;

    Core &core() { return sys->core(0); }
};

/**
 * The data plane. Each op runs one quantum of the xalancbmk_r stream
 * on Host-Native and on Host-Bitmap, and one quantum of the MemStream
 * stream on Host-Native and inside an enclave with encryption and
 * integrity on. The native and protected sides of a profile replay the
 * same-seed stream. Caches and TLBs start empty at each system's first
 * quantum, which is the warm-up op of setup().
 */
class EnclaveCompute final : public Workload
{
  public:
    static constexpr std::uint64_t quantum = 5'000;

    explicit EnclaveCompute(Context &ctx) : _ctx(ctx) {}

    void
    setup() override
    {
        WorkloadProfile xal = xalancbmkProfile();
        WorkloadProfile ms = memStreamProfile16();
        std::uint64_t xal_seed = subSeed(_ctx.seed, seedStream, 0);
        std::uint64_t ms_seed = subSeed(_ctx.seed, seedStream, 1);
        hostSide(_xalNative, xal, false, xal_seed);
        hostSide(_xalBitmap, xal, true, xal_seed);
        hostSide(_msNative, ms, false, ms_seed);
        enclaveSide(_msEnclave, ms, ms_seed);
        require(op(0).ok, "enclave_compute warm-up op");
    }

    OpOutcome
    op(std::uint64_t) override
    {
        bool ok = runQuantum(_xalNative);
        ok = runQuantum(_xalBitmap) && ok;
        ok = runQuantum(_msNative) && ok;
        ok = runQuantum(_msEnclave) && ok;
        return {1, ok};
    }

    std::uint64_t windowCalls() const override { return 512; }

    void
    beginWindow() override
    {
        _xalBitmap.window = {};
        _msEnclave.window = {};
        _xalNative.window = {};
        _msNative.window = {};
        _start = {readMem(_xalBitmap), readMem(_msEnclave)};
    }

    void
    endWindow(Report &r) override
    {
        const RunStats &xn = _xalNative.window, &xb = _xalBitmap.window;
        const RunStats &mn = _msNative.window, &me = _msEnclave.window;
        double xal_ovh = double(xb.ticks) / double(xn.ticks) - 1.0;
        double ms_ovh = double(me.ticks) / double(mn.ticks) - 1.0;
        r.set("sim_ipc",
              ratio(xb.instructions + me.instructions,
                    xb.cycles + me.cycles),
              "insts/cycle");
        r.set("sim_overhead_pct", 50.0 * (xal_ovh + ms_ovh), "%");
        r.notes.push_back(
            "xalancbmk_r Host-Bitmap overhead " + fmtPct(xal_ovh) +
            " (Fig. 10 reference: paper 4.6%, EXPERIMENTS.md 4.1%)");
        r.notes.push_back(
            "memstream Enclave overhead " + fmtPct(ms_ovh) +
            " (Fig. 8b reference: paper 3.1%, EXPERIMENTS.md 3.0%)");
        r.notes.push_back("sim_ipc has no reference: unvalidated");

        // cpu and mem counters are the protected side's, where the
        // HyperTEE mechanisms add cost.
        r.set("cpu.insts", double(xb.instructions + me.instructions),
              "insts");
        r.set("cpu.cycles", double(xb.cycles + me.cycles), "cycles");
        r.set("cpu.mispredict_ratio",
              ratio(xb.mispredicts + me.mispredicts,
                    xb.branches + me.branches),
              "ratio");

        MemCounters d = (readMem(_xalBitmap) - _start[0]) +
                        (readMem(_msEnclave) - _start[1]);
        r.set("mem.tlb_miss_ratio",
              ratio(d.tlbMisses, d.tlbHits + d.tlbMisses), "ratio");
        r.set("mem.stlb_hit_ratio", ratio(d.stlbHits, d.tlbMisses),
              "ratio");
        r.set("mem.bitmap_retrievals", double(d.bitmapRetrievals),
              "count");
        r.set("mem.l1d_miss_ratio",
              ratio(d.l1Misses, d.l1Hits + d.l1Misses), "ratio");
        r.set("mem.l2_miss_ratio",
              ratio(d.l2Misses, d.l2Hits + d.l2Misses), "ratio");
        r.set("mem.dram_accesses", double(d.dram), "count");
        r.set("mem.tlb_flushes", double(d.tlbFlushes), "count");
        for (std::uint64_t v :
             {d.tlbHits, d.tlbMisses, d.stlbHits, d.bitmapRetrievals,
              d.l1Hits, d.l1Misses, d.l2Hits, d.l2Misses, d.dram,
              d.tlbFlushes})
            _ctx.digest.add(v);
    }

  private:
    struct MemCounters
    {
        std::uint64_t tlbHits = 0, tlbMisses = 0, stlbHits = 0;
        std::uint64_t bitmapRetrievals = 0;
        std::uint64_t l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
        std::uint64_t dram = 0, tlbFlushes = 0;

        template <class Op>
        static MemCounters
        zip(const MemCounters &a, const MemCounters &b, Op f)
        {
            return {f(a.tlbHits, b.tlbHits),
                    f(a.tlbMisses, b.tlbMisses),
                    f(a.stlbHits, b.stlbHits),
                    f(a.bitmapRetrievals, b.bitmapRetrievals),
                    f(a.l1Hits, b.l1Hits),
                    f(a.l1Misses, b.l1Misses),
                    f(a.l2Hits, b.l2Hits),
                    f(a.l2Misses, b.l2Misses),
                    f(a.dram, b.dram),
                    f(a.tlbFlushes, b.tlbFlushes)};
        }
        MemCounters
        operator-(const MemCounters &o) const
        {
            return zip(*this, o, std::minus<std::uint64_t>());
        }
        MemCounters
        operator+(const MemCounters &o) const
        {
            return zip(*this, o, std::plus<std::uint64_t>());
        }
    };

    static MemCounters
    readMem(Side &s)
    {
        Mmu &mmu = s.core().mmu();
        MemHierarchy &h = s.core().hierarchy();
        return {mmu.tlb().hits(),  mmu.tlb().misses(),
                mmu.stlbHits(),    mmu.bitmapRetrievals(),
                h.l1().hits(),     h.l1().misses(),
                h.l2().hits(),     h.l2().misses(),
                h.dramAccesses(),  mmu.tlb().flushes()};
    }

    static std::string
    fmtPct(double fraction)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f%%", fraction * 100.0);
        return buf;
    }

    /** Host-Native (no bitmap check) or Host-Bitmap; no protection
     *  accounting either way, exactly as Fig. 10 configures them. */
    void
    hostSide(Side &s, const WorkloadProfile &p, bool bitmap_check,
             std::uint64_t stream_seed)
    {
        s.sys = buildSystem(benchSystem(_ctx.seed), systemCtorMs);
        s.core().mmu().setBitmapCheckEnabled(bitmap_check);
        s.core().hierarchy().setProtectionEnabled(false);
        Addr base = 0x2000'0000;
        Addr ws_bytes = pagesFor(p.workingSetBytes) * pageSize;
        s.sys->osMapRange(base, ws_bytes, PteRead | PteWrite);
        Addr sparse_base = base + ws_bytes;
        if (p.sparseFrac > 0)
            s.sys->osMapRange(sparse_base, p.sparsePages * pageSize,
                              PteRead | PteWrite);
        s.stream = std::make_unique<SyntheticWorkload>(p, base, sparse_base,
                                                       stream_seed);
    }

    /** Enclave-M_encrypt: the stream runs on the enclave's heap with
     *  the encryption and integrity engines on. */
    void
    enclaveSide(Side &s, const WorkloadProfile &p, std::uint64_t stream_seed)
    {
        s.sys = buildSystem(benchSystem(_ctx.seed), systemCtorMs);
        EnclaveConfig cfg;
        cfg.stackPages = 16;
        cfg.heapPages = pagesFor(p.workingSetBytes);
        cfg.maxShmPages = 256;
        s.enclave = std::make_unique<EnclaveHandle>(*s.sys, 0, cfg, false);
        require(s.enclave->valid(), "memstream ECREATE");
        Bytes image =
            seededBytes(subSeed(_ctx.seed, seedImage, 1), p.imageBytes);
        require(s.enclave->addImage(image, EnclaveLayout::codeBase,
                                    PteRead | PteExec),
                "memstream EADD");
        require(!s.enclave->measure().empty(), "memstream EMEAS");
        require(s.enclave->enter(), "memstream EENTER");
        s.stream = std::make_unique<SyntheticWorkload>(
            p, EnclaveLayout::heapBase, 0, stream_seed);
    }

    bool
    runQuantum(Side &s)
    {
        RunStats st;
        {
            Scope span(_ctx.trace, "cpu.run");
            st = s.core().run(*s.stream, quantum);
        }
        if (_ctx.inWindow) {
            s.window.add(st);
            for (std::uint64_t v :
                 {st.instructions, st.cycles, std::uint64_t(st.ticks),
                  st.loads, st.stores, st.branches, st.mispredicts,
                  st.tlbMisses, st.faults})
                _ctx.digest.add(v);
        }
        return st.instructions == quantum && st.faults == 0;
    }

    Context &_ctx;
    Side _xalNative, _xalBitmap, _msNative, _msEnclave;
    std::array<MemCounters, 2> _start{};
};

// ------------------------------------------------------ enclave_lifecycle

/**
 * The management plane with crypto: every op is one full enclave
 * lifecycle, ECREATE -> 16 x EADD -> EMEAS -> EENTER -> EATTEST ->
 * RemoteVerifier::verify -> EEXIT -> EDESTROY. The core runs no
 * instructions; SHA-256 page measurement, Ed25519 and X25519 dominate
 * host time.
 */
class EnclaveLifecycle final : public Workload
{
  public:
    static constexpr std::size_t imagePages = 16;

    explicit EnclaveLifecycle(Context &ctx) : _ctx(ctx), _prims(ctx) {}

    void
    setup() override
    {
        _sys = buildSystem(benchSystem(_ctx.seed), systemCtorMs);
        Bytes image = seededBytes(subSeed(_ctx.seed, seedImage),
                                  imagePages * pageSize);
        _pages.clear();
        for (std::size_t p = 0; p < imagePages; ++p)
            _pages.emplace_back(image.begin() + p * pageSize,
                                image.begin() + (p + 1) * pageSize);
        // The warm-up op fixes the measurement every later op of the
        // same image must reproduce.
        _expected.clear();
        require(lifecycle(~std::uint64_t(0)).ok,
                "enclave_lifecycle warm-up op");
    }

    OpOutcome op(std::uint64_t i) override { return lifecycle(i); }

    std::uint64_t windowCalls() const override { return 256; }

    void
    beginWindow() override
    {
        _start = PlaneCounters::read(*_sys);
    }

    void
    endWindow(Report &r) override
    {
        _prims.report(r);
        (PlaneCounters::read(*_sys) - _start).report(r, _ctx.digest);
    }

  private:
    OpOutcome
    lifecycle(std::uint64_t i)
    {
        std::uint64_t rejections = rejectionCount(*_sys);
        std::unique_ptr<EnclaveHandle> h;
        if (!_prims.create(*_sys, EnclaveConfig{}, h))
            return {1, false};
        EnclaveHandle &e = *h;
        bool ok = true;
        for (std::size_t p = 0; p < imagePages; ++p) {
            ok = _prims.call(Prim::EAdd, e, [&] {
                     return e.addPage(EnclaveLayout::codeBase +
                                          p * pageSize,
                                      _pages[p], PteRead | PteExec);
                 }) && ok;
        }
        Bytes meas;
        ok = _prims.call(Prim::EMeas, e, [&] {
                 meas = e.measure();
                 return !meas.empty();
             }) && ok;
        ok = _prims.call(Prim::EEnter, e, [&] { return e.enter(); }) && ok;

        RemoteVerifier verifier(subSeed(_ctx.seed, seedVerifier, i));
        Bytes quote;
        ok = _prims.call(Prim::EAttest, e, [&] {
                 quote = e.attest(verifier.nonce(), verifier.dhPublic());
                 return !quote.empty();
             }) && ok;

        bool warm_up = _expected.empty();
        if (warm_up)
            _expected = meas;
        ok = ok && meas == _expected;
        Bytes claimed = _expected;
        if (_ctx.negativeControl && !warm_up)
            claimed[0] ^= 1;
        bool verified;
        {
            Scope span(_ctx.trace, "core.verify");
            verified =
                verifier.verify(quote, _sys->certifiedEkPublic(), claimed);
        }
        ok = ok && verified;

        ok = _prims.call(Prim::EExit, e, [&] { return e.exit(); }) && ok;
        ok = _prims.call(Prim::EDestroy, e, [&] { return e.destroy(); }) &&
             ok;
        if (_ctx.inWindow) {
            _ctx.digest.add(meas);
            _ctx.digest.add(quote);
        }
        return {1, ok && rejectionCount(*_sys) == rejections};
    }

    Context &_ctx;
    PrimitiveLog _prims;
    std::unique_ptr<HyperTeeSystem> _sys;
    std::vector<Bytes> _pages;
    Bytes _expected;
    PlaneCounters _start;
};

// -------------------------------------------------------------- ems_churn

/**
 * The management plane without crypto: a population of measured
 * enclaves is re-entered in turn. Each op enters enclave A, runs
 * EALLOC/EFREE pairs of 1, 4, 16 and 64 pages in a seeded order, then
 * ESHMGET -> ESHMSHR -> ESHMAT, switches to neighbour B for an
 * ESHMAT/ESHMDT, and switches back for ESHMDT -> ESHMDES. 21 round
 * trips, each through EmCall, the mailbox, the iHub and EmsRuntime.
 */
class EmsChurn final : public Workload
{
  public:
    static constexpr std::size_t population = 16;
    static constexpr std::size_t shmPages = 4;
    /**
     * EmsRuntime hands out KeyIDs from a 16-bit counter that wraps to
     * the reserved KeyID 0 after 65535 assignments, and every ESHMGET
     * takes one. A system is therefore retired, untimed, after this
     * many ops and replaced by a fresh population.
     */
    static constexpr std::uint64_t opsPerSystem = 60'000;
    /** Fixed EALLOC/EFREE address, clear of the static heap. */
    static constexpr Addr churnVa = EnclaveLayout::heapBase + (Addr(1) << 26);

    explicit EmsChurn(Context &ctx) : _ctx(ctx), _prims(ctx) {}

    void
    setup() override
    {
        _order = Random(subSeed(_ctx.seed, seedChurnOrder));
        buildPopulation();
        require(op(0).ok, "ems_churn warm-up op");
    }

    OpOutcome
    op(std::uint64_t i) override
    {
        std::uint64_t rejections = rejectionCount(*_sys);
        EnclaveHandle &a = *_enclaves[i % population];
        EnclaveHandle &b = *_enclaves[(i + 1) % population];
        const std::uint64_t rw = PteRead | PteWrite;

        bool ok = _prims.call(Prim::EEnter, a, [&] { return a.enter(); });
        std::array<std::size_t, 4> sizes = {1, 4, 16, 64};
        for (std::size_t k = sizes.size(); k > 1; --k)
            std::swap(sizes[k - 1], sizes[_order.below(k)]);
        for (std::size_t n : sizes) {
            ok = _prims.call(Prim::EAlloc, a, [&] {
                     return a.allocAt(churnVa, n) == churnVa;
                 }) && ok;
            ok = _prims.call(Prim::EFree, a,
                             [&] { return a.free(churnVa, n); }) && ok;
        }
        ShmId shm = 0;
        ok = _prims.call(Prim::EShmGet, a, [&] {
                 shm = a.shmCreate(shmPages, rw);
                 return shm != 0;
             }) && ok;
        ok = _prims.call(Prim::EShmShr, a,
                         [&] { return a.shmShare(shm, b.id(), rw); }) && ok;
        ok = _prims.call(Prim::EShmAt, a,
                         [&] { return a.shmAttach(shm, rw) != 0; }) && ok;
        ok = _prims.call(Prim::EExit, a, [&] { return a.exit(); }) && ok;

        ok = _prims.call(Prim::EEnter, b, [&] { return b.enter(); }) && ok;
        ok = _prims.call(Prim::EShmAt, b,
                         [&] { return b.shmAttach(shm, rw) != 0; }) && ok;
        ok = _prims.call(Prim::EShmDt, b,
                         [&] { return b.shmDetach(shm); }) && ok;
        ok = _prims.call(Prim::EExit, b, [&] { return b.exit(); }) && ok;

        ok = _prims.call(Prim::EEnter, a, [&] { return a.enter(); }) && ok;
        ok = _prims.call(Prim::EShmDt, a,
                         [&] { return a.shmDetach(shm); }) && ok;
        ok = _prims.call(Prim::EShmDes, a,
                         [&] { return a.shmDestroy(shm); }) && ok;
        ok = _prims.call(Prim::EExit, a, [&] { return a.exit(); }) && ok;
        ++_opsOnSystem;
        return {1, ok && rejectionCount(*_sys) == rejections};
    }

    void
    maintain() override
    {
        if (_opsOnSystem >= opsPerSystem)
            buildPopulation();
    }

    std::uint64_t windowCalls() const override { return 4096; }

    void
    beginWindow() override
    {
        _start = PlaneCounters::read(*_sys);
    }

    void
    endWindow(Report &r) override
    {
        _prims.report(r);
        (PlaneCounters::read(*_sys) - _start).report(r, _ctx.digest);
    }

  private:
    void
    buildPopulation()
    {
        _enclaves.clear();
        _sys.reset();
        _sys = buildSystem(benchSystem(_ctx.seed), systemCtorMs);
        EnclaveConfig cfg;
        cfg.stackPages = 16;
        cfg.heapPages = 64;
        cfg.maxShmPages = 256;
        for (std::size_t k = 0; k < population; ++k) {
            auto h = std::make_unique<EnclaveHandle>(*_sys, 0, cfg, false);
            require(h->valid(), "ems_churn ECREATE");
            Bytes image = seededBytes(subSeed(_ctx.seed, seedImage, 2 + k),
                                      2 * pageSize);
            require(h->addImage(image, EnclaveLayout::codeBase,
                                PteRead | PteExec),
                    "ems_churn EADD");
            require(!h->measure().empty(), "ems_churn EMEAS");
            _enclaves.push_back(std::move(h));
        }
        _opsOnSystem = 0;
    }

    Context &_ctx;
    PrimitiveLog _prims;
    Random _order{0};
    std::unique_ptr<HyperTeeSystem> _sys;
    std::vector<std::unique_ptr<EnclaveHandle>> _enclaves;
    std::uint64_t _opsOnSystem = 0;
    PlaneCounters _start;
};

// ---------------------------------------------------------- fleet_traffic

/**
 * The event-driven EMS scheduler model over 4096 enclaves. One op() is
 * one FleetTrafficSim::run of one sweep point; each simulated request
 * is one user-visible op. The sweep is a Poisson ladder bracketing the
 * modelled ~185k req/s capacity plus one bursty MMPP point; the open
 * loop lives in simulated time. Point k always replays seed k, so every
 * repetition of a point must reproduce its first run exactly.
 */
class FleetTraffic final : public Workload
{
  public:
    static constexpr std::uint64_t requestsPerPoint = 8'000;
    /** All-class p99 limit of the knee. */
    static constexpr double kneeP99Us = 1000.0;

    explicit FleetTraffic(Context &ctx) : _ctx(ctx) {}

    void
    setup() override
    {
        FleetTrafficParams base;
        base.enclaveSlots = 4096;
        base.requests = requestsPerPoint;
        base.pagesPerEnclave = 8;
        base.queueCapacity = 1024;
        base.batchMax = 8;
        base.emsCores = 2;
        base.pool.initialPages = 16384;
        base.pool.refillBatch = 4096;
        base.pool.lowWatermark = 2048;
        base.pool.highWatermark = 65536;

        _points.clear();
        for (double rate :
             {40'000.0, 150'000.0, 175'000.0, 185'000.0, 195'000.0,
              225'000.0}) {
            Point pt;
            pt.params = base;
            pt.params.mode = FleetLoadMode::OpenPoisson;
            pt.params.offeredRatePerSec = rate;
            pt.rate = rate;
            pt.name = "poisson_" + std::to_string(int(rate / 1000)) + "k";
            _points.push_back(pt);
        }
        Point burst;
        burst.params = base;
        burst.params.mode = FleetLoadMode::OpenMmpp;
        burst.params.mmpp.quietRatePerSec = 60'000;
        burst.params.mmpp.burstRatePerSec = 600'000;
        burst.params.mmpp.meanQuietSec = 4e-3;
        burst.params.mmpp.meanBurstSec = 1e-3;
        burst.name = "mmpp_burst";
        _points.push_back(burst);
        for (std::size_t k = 0; k < _points.size(); ++k)
            _points[k].params.seed = subSeed(_ctx.seed, seedFleet, k);

        _first.assign(_points.size(), {});
        require(runPoint(_points[0], false).consistent,
                "fleet_traffic warm-up");
    }

    OpOutcome
    op(std::uint64_t i) override
    {
        std::size_t k = i % _points.size();
        Result res = runPoint(_points[k], _ctx.inWindow);
        bool ok = res.consistent;
        if (_ctx.inWindow) {
            _first[k] = res;
            for (double v :
                 {double(res.offered), double(res.completed),
                  double(res.rejected), double(res.events),
                  double(res.peakQueue), res.goodput, res.p50Us,
                  res.p99Us})
                _ctx.digest.add(v);
        } else {
            ok = ok && res.sameSimulation(_first[k]);
        }
        return {res.offered, ok};
    }

    std::uint64_t windowCalls() const override { return _points.size(); }

    void beginWindow() override {}

    void
    endWindow(Report &r) override
    {
        std::uint64_t completed = 0, rejected = 0, peak_queue = 0;
        for (const Result &res : _first) {
            completed += res.completed;
            rejected += res.rejected;
            peak_queue = std::max(peak_queue, res.peakQueue);
        }
        r.set("workload.fleet_completed", double(completed), "count");
        r.set("workload.fleet_rejected", double(rejected), "count");
        r.set("workload.fleet_peak_queue", double(peak_queue), "count");
        // Goodput at the highest Poisson rate: the modelled capacity.
        r.set("workload.fleet_goodput_rps", _first[5].goodput, "sim_req/s");

        r.set("sim_prim_us_p50", _first[0].p50Us, "sim_us");
        r.set("sim_prim_us_p99", _first[0].p99Us, "sim_us");
        double knee = kneeRps();
        r.set("sim_knee_rps", knee, "sim_req/s");
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "fleet knee %.0f req/s (EXPERIMENTS.md reference: "
                      "~185k req/s); goodput at 225k offered %.0f req/s",
                      knee, _first[5].goodput);
        r.notes.push_back(buf);
    }

  private:
    struct Point
    {
        std::string name;
        FleetTrafficParams params;
        double rate = 0; ///< Poisson offered rate; 0 for MMPP
    };

    struct Result
    {
        std::uint64_t offered = 0, completed = 0, rejected = 0;
        std::uint64_t events = 0, peakQueue = 0;
        double goodput = 0, p50Us = 0, p99Us = 0;
        bool consistent = false;

        bool
        sameSimulation(const Result &o) const
        {
            return offered == o.offered && completed == o.completed &&
                   rejected == o.rejected && events == o.events &&
                   peakQueue == o.peakQueue && goodput == o.goodput;
        }
    };

    /** Latency quantiles are only computed when @p quantiles is set
     *  (the window), keeping their sort out of later ops' host time. */
    Result
    runPoint(const Point &pt, bool quantiles)
    {
        ShardStats stats;
        FleetTrafficSim sim(pt.params, pt.name, stats);
        std::uint64_t events0 = perf::totalEventsFired();
        {
            Scope span(_ctx.trace, "workload.fleet_run");
            sim.run();
        }
        Result res;
        res.events = perf::totalEventsFired() - events0;
        res.offered = sim.offered();
        res.completed = sim.completed();
        res.rejected = sim.rejected();
        res.peakQueue = sim.peakQueueDepth();
        res.goodput = sim.goodputPerSec();
        if (quantiles) {
            Distribution all;
            for (std::size_t c = 0; c < fleetOpCount; ++c) {
                const Distribution *d = stats.findDistribution(
                    pt.name + "." + fleetOpName(static_cast<FleetOp>(c)) +
                    "_latency");
                if (d)
                    all.merge(*d);
            }
            res.p50Us = all.quantile(0.5) / ticksPerUs;
            res.p99Us = all.quantile(0.99) / ticksPerUs;
        }
        res.consistent = res.offered == pt.params.requests &&
                         res.completed + res.rejected == res.offered;
        return res;
    }

    /**
     * Highest Poisson rate whose all-class p99 is within 1 ms with no
     * rejections, refined by linear interpolation of the 1 ms p99
     * crossing toward the next swept rate, so the knee moves smoothly
     * with the model instead of snapping to the sweep grid.
     */
    double
    kneeRps() const
    {
        auto passes = [this](std::size_t k) {
            return _first[k].p99Us <= kneeP99Us && _first[k].rejected == 0;
        };
        std::size_t k = 0;
        double knee = 0;
        for (; k < _points.size() && _points[k].rate > 0 && passes(k); ++k)
            knee = _points[k].rate;
        if (k == 0 || k >= _points.size() || _points[k].rate == 0)
            return knee;
        const Result &lo = _first[k - 1], &hi = _first[k];
        if (hi.p99Us <= kneeP99Us || hi.p99Us <= lo.p99Us)
            return knee;
        double frac = (kneeP99Us - lo.p99Us) / (hi.p99Us - lo.p99Us);
        return knee + frac * (_points[k].rate - _points[k - 1].rate);
    }

    Context &_ctx;
    std::vector<Point> _points;
    std::vector<Result> _first;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "enclave_compute", "enclave_lifecycle", "ems_churn",
        "fleet_traffic"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, Context &ctx)
{
    if (name == "enclave_compute")
        return std::make_unique<EnclaveCompute>(ctx);
    if (name == "enclave_lifecycle")
        return std::make_unique<EnclaveLifecycle>(ctx);
    if (name == "ems_churn")
        return std::make_unique<EmsChurn>(ctx);
    if (name == "fleet_traffic")
        return std::make_unique<FleetTraffic>(ctx);
    return nullptr;
}

} // namespace perfbench
