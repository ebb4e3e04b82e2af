/**
 * @file
 * Differential pin of the optimized execution engine against
 * Core::runReference, the executable specification of the timing
 * model.
 *
 * Core::run instantiates runEngine per stream and predictor type:
 * SyntheticWorkload streams bind next() statically ([static]), any
 * other stream keeps its virtual next() ([virtual]). Both
 * devirtualize the predictor and share the flattened memAccess fast
 * path. Every one of those transformations claims bit-for-bit
 * equivalence with the reference scalar loop — this test enforces
 * the claim across randomized workload profiles, both predictors,
 * both stream instantiations, chunked (quantum) execution, and the
 * faulting paths.
 *
 * Two fully separate simulation environments are constructed per
 * comparison (own PhysicalMemory, page table, Core) so predictor,
 * TLB and cache state cannot leak between the engines.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "mem/bitmap.hh"
#include "mem/phys_mem.hh"
#include "sim/random.hh"
#include "workload/synthetic.hh"

namespace hypertee
{
namespace
{

constexpr Addr kMemBase = 0x8000'0000;
constexpr Addr kMemSize = 64 * 1024 * 1024;
constexpr Addr kHeapVa = 0x1000'0000;
constexpr Addr kSparseVa = 0x2000'0000;

/**
 * Type-erasing forward so dynamic_cast<SyntheticWorkload *> fails
 * and Core::run takes the InstStream instantiation of runEngine
 * (virtual next() per op) instead of the SyntheticWorkload one.
 */
class OpaqueStream : public InstStream
{
  public:
    explicit OpaqueStream(InstStream &inner) : _inner(inner) {}
    bool next(MicroOp &op) override { return _inner.next(op); }

  private:
    InstStream &_inner;
};

/** One self-contained core + mapped address space + workload. */
struct Env
{
    PhysicalMemory mem{kMemBase, kMemSize};
    EnclaveBitmap bm{&mem, kMemBase};
    Addr nextFrame = kMemBase + 0x20'0000;
    PageTable pt{&mem, [this] {
                     Addr f = nextFrame;
                     nextFrame += pageSize;
                     return f;
                 }};
    Core core;
    SyntheticWorkload stream;

    Env(const CoreParams &cp, const WorkloadProfile &p,
        std::uint64_t seed, bool map_sparse)
        : core(cp, &bm), stream(p, kHeapVa, kSparseVa, seed)
    {
        Addr pa = kMemBase + 0x100'0000;
        for (Addr off = 0; off < p.workingSetBytes + pageSize;
             off += pageSize, pa += pageSize)
            pt.map(kHeapVa + off, pa, PteRead | PteWrite);
        if (map_sparse) {
            for (Addr off = 0;
                 off < p.sparsePages * pageSize && pa < kMemBase +
                     kMemSize - pageSize;
                 off += pageSize, pa += pageSize)
                pt.map(kSparseVa + off, pa, PteRead | PteWrite);
        }
        core.mmu().setPageTable(&pt);
    }
};

void
expectSameStats(const RunStats &fast, const RunStats &ref,
                const std::string &what)
{
    EXPECT_EQ(fast.instructions, ref.instructions) << what;
    EXPECT_EQ(fast.cycles, ref.cycles) << what;
    EXPECT_EQ(fast.ticks, ref.ticks) << what;
    EXPECT_EQ(fast.loads, ref.loads) << what;
    EXPECT_EQ(fast.stores, ref.stores) << what;
    EXPECT_EQ(fast.branches, ref.branches) << what;
    EXPECT_EQ(fast.mispredicts, ref.mispredicts) << what;
    EXPECT_EQ(fast.tlbMisses, ref.tlbMisses) << what;
    EXPECT_EQ(fast.faults, ref.faults) << what;
}

/** A randomized profile; @p r drives every knob. */
WorkloadProfile
randomProfile(Random &r)
{
    WorkloadProfile p;
    p.name = "diff";
    p.instructions = 30'000 + r.below(90'000);
    p.loadFrac = 0.05 + 0.30 * r.real();
    p.storeFrac = 0.02 + 0.20 * r.real();
    p.branchFrac = 0.05 + 0.20 * r.real();
    p.fpFrac = 0.10 * r.real();
    p.workingSetBytes = (16 + r.below(512)) * 1024;
    p.sequentialFrac = r.real();
    p.sparseFrac = 0.10 * r.real();
    p.sparsePages = 16 + r.below(256);
    // Cover both the pow2 mask fast path and the modulo fallback.
    p.branchPeriod = r.below(2) ? 16 : 7;
    p.branchNoise = 0.05 * r.real();
    return p;
}

void
runDifferential(const CoreParams &cp, const WorkloadProfile &p,
                std::uint64_t seed, bool map_sparse,
                const std::string &what)
{
    // Static next() (Core::run sees the concrete SyntheticWorkload).
    {
        Env fast(cp, p, seed, map_sparse);
        Env ref(cp, p, seed, map_sparse);
        expectSameStats(fast.core.run(fast.stream),
                        ref.core.runReference(ref.stream),
                        what + " [static]");
    }
    // Virtual next() (type-erased stream).
    {
        Env fast(cp, p, seed, map_sparse);
        Env ref(cp, p, seed, map_sparse);
        OpaqueStream opaque(fast.stream);
        expectSameStats(fast.core.run(opaque),
                        ref.core.runReference(ref.stream),
                        what + " [virtual]");
    }
}

TEST(CoreDifferential, RandomProfilesMatchReferenceBothPredictors)
{
    Random r(0xd1ff'0001);
    for (int i = 0; i < 8; ++i) {
        WorkloadProfile p = randomProfile(r);
        std::uint64_t seed = r.next();
        for (const char *bp : {"tage", "gshare"}) {
            CoreParams cp = csCoreParams();
            cp.bpKind = bp;
            runDifferential(cp, p, seed, /*map_sparse=*/true,
                            "profile " + std::to_string(i) + " bp=" +
                                bp);
        }
    }
}

TEST(CoreDifferential, InOrderCoreMatchesReference)
{
    // memOverlap is ignored in-order: the full stall is charged.
    Random r(0xd1ff'0002);
    WorkloadProfile p = randomProfile(r);
    CoreParams cp = emsWeakParams();
    runDifferential(cp, p, 99, /*map_sparse=*/true, "in-order");
}

TEST(CoreDifferential, ChunkedQuantumRunsMatchChunkedReference)
{
    // The fig11 pattern: run in fixed instruction quanta (cycles
    // round up per chunk, so chunked must compare against chunked).
    // Each quantum must stop at its budget without pulling an extra
    // op from the resumed stream, on both stream instantiations.
    Random r(0xd1ff'0003);
    WorkloadProfile p = randomProfile(r);
    p.instructions = 100'000;
    CoreParams cp = csCoreParams();

    for (bool type_erased : {false, true}) {
        const std::string what = type_erased ? " [virtual]" : " [static]";
        Env fast(cp, p, 7, true);
        Env ref(cp, p, 7, true);
        OpaqueStream opaque(fast.stream);
        InstStream &fast_stream =
            type_erased ? static_cast<InstStream &>(opaque) : fast.stream;
        RunStats fast_total, ref_total;
        for (;;) {
            RunStats a = fast.core.run(fast_stream, 9'001);
            RunStats b = ref.core.runReference(ref.stream, 9'001);
            expectSameStats(a, b, "chunk" + what);
            ASSERT_EQ(fast.stream.emitted(), ref.stream.emitted())
                << "ops fetched past the quantum" << what;
            if (a.instructions == 0)
                break;
            fast_total.add(a);
            ref_total.add(b);
        }
        expectSameStats(fast_total, ref_total, "chunk totals" + what);
        EXPECT_EQ(fast_total.instructions, p.instructions) << what;
    }
}

TEST(CoreDifferential, UnmappedSparsePagesFaultIdentically)
{
    // No fault handler installed: every sparse access page-faults,
    // is counted, and the access is dropped — on both engines.
    Random r(0xd1ff'0004);
    WorkloadProfile p = randomProfile(r);
    p.sparseFrac = 0.25;
    p.sequentialFrac = 0.5;
    CoreParams cp = csCoreParams();
    runDifferential(cp, p, 11, /*map_sparse=*/false, "faulting");
}

TEST(CoreDifferential, ResolvingFaultHandlerMatchesReference)
{
    // A demand-paging handler: maps the faulting page and retries.
    // Exercises the handler retry loop (latency charge + re-
    // translate) on both engines.
    Random r(0xd1ff'0005);
    WorkloadProfile p = randomProfile(r);
    p.sparseFrac = 0.20;
    p.sparsePages = 64;
    CoreParams cp = csCoreParams();

    auto install = [](Env &e) {
        e.core.setFaultHandler(
            [&e](Addr va, MemFault fault, bool) -> FaultOutcome {
                if (fault != MemFault::PageFault)
                    return {false, 0};
                Addr page = va & ~(pageSize - 1);
                Addr pa = e.nextFrame;
                e.nextFrame += pageSize;
                e.pt.map(page, pa, PteRead | PteWrite);
                return {true, 2'000};
            });
    };

    {
        Env fast(cp, p, 13, false);
        Env ref(cp, p, 13, false);
        install(fast);
        install(ref);
        expectSameStats(fast.core.run(fast.stream),
                        ref.core.runReference(ref.stream),
                        "demand-paging [static]");
    }
    {
        Env fast(cp, p, 13, false);
        Env ref(cp, p, 13, false);
        install(fast);
        install(ref);
        OpaqueStream opaque(fast.stream);
        expectSameStats(fast.core.run(opaque),
                        ref.core.runReference(ref.stream),
                        "demand-paging [virtual]");
    }
}

} // namespace
} // namespace hypertee
