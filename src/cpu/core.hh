/**
 * @file
 * Approximate superscalar core timing model.
 *
 * Instructions from an InstStream are charged issue bandwidth by
 * type, branches run through a real direction predictor, and memory
 * operations walk the real TLB / page table / cache hierarchy. An
 * out-of-order core hides a CoreParams::memOverlap fraction of each
 * memory stall (modelling the ROB/LDQ window); an in-order core
 * stalls for the full latency. This is the fidelity class the
 * reproduction targets: stall *events* are structurally exact, the
 * overlap factor is calibrated.
 */

#ifndef HYPERTEE_CPU_CORE_HH
#define HYPERTEE_CPU_CORE_HH

#include <functional>
#include <memory>

#include "cpu/branch_predictor.hh"
#include "cpu/core_params.hh"
#include "cpu/micro_op.hh"
#include "mem/mmu.hh"
#include "sim/clock_domain.hh"
#include "sim/types.hh"

namespace hypertee
{

/** Aggregate results of a run() call. */
struct RunStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    Tick ticks = 0;

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t faults = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Merge another chunk's counters into this one. */
    void
    add(const RunStats &o)
    {
        instructions += o.instructions;
        cycles += o.cycles;
        ticks += o.ticks;
        loads += o.loads;
        stores += o.stores;
        branches += o.branches;
        mispredicts += o.mispredicts;
        tlbMisses += o.tlbMisses;
        faults += o.faults;
    }
};

/** How a fault handler disposed of a memory fault. */
struct FaultOutcome
{
    bool resolved = false; ///< retry the access
    Tick latency = 0;      ///< handling time charged to the core
};

class Core
{
  public:
    using FaultHandler =
        std::function<FaultOutcome(Addr va, MemFault fault, bool write)>;

    Core(const CoreParams &params, const EnclaveBitmap *bitmap);

    const CoreParams &params() const { return _p; }
    Mmu &mmu() { return *_mmu; }
    MemHierarchy &hierarchy() { return *_hierarchy; }
    BranchPredictor &predictor() { return *_bp; }
    const ClockDomain &clock() const { return _clock; }

    /** Install the page-fault / bitmap-fault handler (EMCall path). */
    void setFaultHandler(FaultHandler handler);

    /**
     * Execute up to @p max_insts from @p stream.
     * Unresolved faults abort the op (counted in RunStats::faults).
     *
     * This is the fast engine: the stream (when it is a
     * SyntheticWorkload) and the branch predictor are devirtualized
     * once per run, and cycle accounting uses the precomputed
     * per-OpType cost table. Produces results bit-identical to
     * runReference() — the differential test pins that equivalence.
     */
    RunStats run(InstStream &stream, std::uint64_t max_insts = ~0ULL);

    /**
     * Reference scalar implementation: one virtual next() per op,
     * per-op issueCost() calls, virtual predictor dispatch. Kept (and
     * tested against run()) as the executable specification of the
     * timing model; not for use on hot paths.
     */
    RunStats runReference(InstStream &stream,
                          std::uint64_t max_insts = ~0ULL);

    /** Charge an externally imposed stall (primitive round trips). */
    void chargeStall(Tick t) { _pendingStall += t; }

  private:
    double issueCost(OpType type) const;

    /**
     * The fast engine, instantiated per concrete stream and predictor
     * type. With Stream = SyntheticWorkload (final, next/emit
     * header-inline) generation fuses into execution: emit()'s mix
     * cascade doubles as the execution dispatch. With Stream =
     * InstStream, next() stays a virtual call (test doubles). Bp is
     * GshareBp or TageBp (both final), so the per-branch
     * predictAndUpdate is a direct call.
     */
    template <typename Stream, typename Bp>
    RunStats runEngine(Stream &stream, std::uint64_t max_insts, Bp &bp);

    /**
     * One load/store: translate, fault handling, hierarchy access,
     * stall accounting. Used by every runEngine instantiation. Write
     * is a template constant so each switch arm compiles a straight
     * path with no per-op load-vs-store re-test (that re-test was a
     * mispredicting branch: the split is data-dependent).
     */
    template <bool Write>
    void
    memAccess(Addr addr, Tick l1_hit, double keep, RunStats &stats,
              double &cycles)
    {
        // TLB-hit fast path, inlined from Mmu::translate: a hit with
        // valid permissions yields fault == None, tlbHit == true and
        // latency == 0, so the TranslateResult assembly and the
        // fault/tlbMiss/latency tests on it all fold away. The lookup
        // itself (LRU stamp + hit/miss counters) is the same one
        // translate() performs.
        Tick mem_lat;
        const TlbEntry *entry = _mmu->tlb().lookup(addr);
        if (entry && permsAllow(entry->perms, Write, false)) {
            Addr pa =
                (entry->ppn << pageShift) | (addr & (pageSize - 1));
            mem_lat = _hierarchy->access(pa, Write, entry->keyId);
        } else {
            TranslateResult tr;
            if (entry) {
                // Hit with bad permissions: translate() returns
                // exactly this result.
                tr.fault = MemFault::PermissionFault;
                tr.tlbHit = true;
            } else {
                tr = _mmu->translateMissed(addr, Write, false);
            }
            if (tr.fault != MemFault::None) {
                tr = handleFault(addr, Write, tr, stats, cycles);
                if (tr.fault != MemFault::None)
                    return; // access dropped
            }

            if (!tr.tlbHit)
                ++stats.tlbMisses;

            mem_lat = _hierarchy->access(tr.pa, Write, tr.keyId);
            // Translation is on the critical path of the access: a
            // PTW (and its bitmap retrieval) cannot be hidden by the
            // window, the dependent access waits for it. Skipping the
            // += when the term is exactly 0.0 leaves the accumulator
            // bits untouched (x + 0.0 == x).
            if (tr.latency != 0)
                cycles +=
                    static_cast<double>(_clock.toCycles(tr.latency));
        }
        // The pipelined L1 hit is already covered by issue cost;
        // anything beyond it is a stall the window may hide.
        if (mem_lat > l1_hit) {
            double stall_cycles =
                static_cast<double>(_clock.toCycles(mem_lat - l1_hit));
            cycles += stall_cycles * keep;
        }
    }

    /**
     * Cold path of a faulting access. Mirrors the reference retry
     * loop; returns the (possibly resolved) translation. When no
     * handler is installed the fault is simply counted — the
     * reference loop charges toCycles(0) == 0 cycles and breaks, so
     * skipping it entirely is provably identical.
     */
    TranslateResult handleFault(Addr va, bool write, TranslateResult tr,
                                RunStats &stats, double &cycles);

    CoreParams _p;
    ClockDomain _clock;
    std::unique_ptr<MemHierarchy> _hierarchy;
    std::unique_ptr<Mmu> _mmu;
    std::unique_ptr<BranchPredictor> _bp;
    FaultHandler _faultHandler;
    Tick _pendingStall = 0;
    /**
     * issueCost(OpType) precomputed per type at construction. Each
     * entry holds the identical double the switch-and-divide form
     * produces, so accumulation order and rounding are unchanged.
     */
    double _issueCost[5] = {1.0, 1.0, 1.0, 1.0, 1.0};
};

} // namespace hypertee

#endif // HYPERTEE_CPU_CORE_HH
