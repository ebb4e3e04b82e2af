#include "cpu/core.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/perf.hh"
#include "workload/synthetic.hh"

namespace hypertee
{

Core::Core(const CoreParams &params, const EnclaveBitmap *bitmap)
    : _p(params), _clock(params.freqHz)
{
    HierarchyParams hp;
    hp.l1Size = _p.l1dSize;
    hp.l1Ways = _p.l1dWays;
    hp.l2Size = _p.l2Size;
    hp.l2Ways = _p.l2Ways;
    // Express hit latencies in this core's cycles.
    hp.l1HitLatency = _clock.toTicks(4);
    hp.l2HitLatency = _clock.toTicks(14);
    _hierarchy = std::make_unique<MemHierarchy>(hp);
    _mmu = std::make_unique<Mmu>(_p.dtlbEntries, _p.dtlbWays, bitmap,
                                 _hierarchy.get(), _p.stlbEntries,
                                 _p.stlbWays);
    _bp = makePredictor(_p.bpKind, _p.bpEntries);

    // Precompute the per-OpType issue cost once. Each table entry is
    // the exact double issueCost() returns, so the fast engine's
    // `cycles += _issueCost[type]` replays the reference accumulation
    // bit-for-bit (FP addition is order-sensitive; the order is the
    // program order in both engines).
    _issueCost[static_cast<std::size_t>(OpType::IntAlu)] =
        issueCost(OpType::IntAlu);
    _issueCost[static_cast<std::size_t>(OpType::FpAlu)] =
        issueCost(OpType::FpAlu);
    _issueCost[static_cast<std::size_t>(OpType::Load)] =
        issueCost(OpType::Load);
    _issueCost[static_cast<std::size_t>(OpType::Store)] =
        issueCost(OpType::Store);
    _issueCost[static_cast<std::size_t>(OpType::Branch)] =
        issueCost(OpType::Branch);
}

void
Core::setFaultHandler(FaultHandler handler)
{
    _faultHandler = std::move(handler);
}

double
Core::issueCost(OpType type) const
{
    switch (type) {
      case OpType::IntAlu:
        return 1.0 / std::min(_p.decodeWidth, _p.intAlus);
      case OpType::FpAlu:
        return 1.0 / std::min(_p.decodeWidth, _p.fpAlus);
      case OpType::Load:
      case OpType::Store:
        return 1.0 / std::min(_p.decodeWidth, _p.memPorts);
      case OpType::Branch:
        return 1.0 / _p.decodeWidth;
    }
    return 1.0;
}

TranslateResult
Core::handleFault(Addr va, bool write, TranslateResult tr,
                  RunStats &stats, double &cycles)
{
    if (!_faultHandler) {
        // The reference retry loop with no handler charges a
        // default FaultOutcome: toCycles(0) == 0 cycles, then breaks
        // on !resolved. Counting the fault and dropping the access is
        // therefore exactly equivalent — and skips a translate-sized
        // chunk of work per unresolvable fault.
        ++stats.faults;
        return tr;
    }
    int attempts = 0;
    while (tr.fault != MemFault::None && attempts < 2) {
        ++stats.faults;
        FaultOutcome outcome = _faultHandler(va, tr.fault, write);
        cycles += static_cast<double>(_clock.toCycles(outcome.latency));
        if (!outcome.resolved)
            break;
        ++attempts;
        tr = _mmu->translate(va, write, false);
    }
    return tr;
}

// htlint: hot-loop
template <typename Stream, typename Bp>
RunStats
Core::runEngine(Stream &stream, std::uint64_t max_insts, Bp &bp)
{
    RunStats stats;
    double cycles = 0.0;
    const Tick l1_hit = _clock.toTicks(4);
    const double overlap = _p.outOfOrder ? _p.memOverlap : 0.0;
    const double keep = 1.0 - overlap;

    // With Stream = SyntheticWorkload (final), next() binds
    // statically, so generation inlines into this loop and op.type is
    // a value the host already branched on inside emit() — the switch
    // below folds into that cascade instead of re-dispatching cold.
    // The budget test comes first: chunked callers (quantum loops)
    // resume the same stream, so no op is generated and then dropped.
    MicroOp op;
    while (stats.instructions < max_insts && stream.next(op)) {
        ++stats.instructions;
        cycles += _issueCost[static_cast<std::size_t>(op.type)];

        if (_pendingStall > 0) {
            cycles += static_cast<double>(_clock.toCycles(_pendingStall));
            _pendingStall = 0;
        }

        switch (op.type) {
          case OpType::Branch: {
            ++stats.branches;
            // The fused per-branch call: identical state changes and
            // prediction to predict() followed by update().
            bool pred = bp.predictAndUpdate(op.pc, op.taken);
            if (pred != op.taken) {
                ++stats.mispredicts;
                cycles += _p.mispredictPenalty;
            }
            break;
          }
          // Load and Store are separate cases (instead of one merged
          // case re-testing op.type) so `write` reaches memAccess as a
          // constant: the 13-vs-28 store/load split otherwise cost a
          // mispredicting branch per op.
          case OpType::Load:
            ++stats.loads;
            memAccess<false>(op.addr, l1_hit, keep, stats, cycles);
            break;
          case OpType::Store:
            ++stats.stores;
            memAccess<true>(op.addr, l1_hit, keep, stats, cycles);
            break;
          case OpType::IntAlu:
          case OpType::FpAlu:
            break;
        }
    }

    stats.cycles = static_cast<std::uint64_t>(std::ceil(cycles));
    stats.ticks = _clock.toTicks(stats.cycles);
    perf::noteInstsRetired(stats.instructions);
    return stats;
}

// htlint: hot-loop
RunStats
Core::run(InstStream &stream, std::uint64_t max_insts)
{
    // Select the engine instantiation for the concrete stream and
    // predictor once per run; inside the loop generation (synthetic
    // streams) and predict/update are then direct calls. Any other
    // stream keeps its virtual next(). makePredictor builds only the
    // two final predictor types.
    auto *gshare = dynamic_cast<GshareBp *>(_bp.get());
    auto *tage = dynamic_cast<TageBp *>(_bp.get());
    panicIf(!gshare && !tage, "unsupported branch predictor type");
    if (auto *syn = dynamic_cast<SyntheticWorkload *>(&stream)) {
        return gshare ? runEngine(*syn, max_insts, *gshare)
                      : runEngine(*syn, max_insts, *tage);
    }
    return gshare ? runEngine(stream, max_insts, *gshare)
                  : runEngine(stream, max_insts, *tage);
}

RunStats
Core::runReference(InstStream &stream, std::uint64_t max_insts)
{
    RunStats stats;
    double cycles = 0.0;
    const Tick l1_hit = _clock.toTicks(4);
    const double overlap = _p.outOfOrder ? _p.memOverlap : 0.0;

    MicroOp op;
    while (stats.instructions < max_insts && stream.next(op)) {
        ++stats.instructions;
        cycles += issueCost(op.type);

        if (_pendingStall > 0) {
            cycles += static_cast<double>(_clock.toCycles(_pendingStall));
            _pendingStall = 0;
        }

        switch (op.type) {
          case OpType::Branch: {
            ++stats.branches;
            bool pred = _bp->predict(op.pc);
            _bp->update(op.pc, op.taken);
            if (pred != op.taken) {
                ++stats.mispredicts;
                cycles += _p.mispredictPenalty;
            }
            break;
          }
          case OpType::Load:
          case OpType::Store: {
            bool write = (op.type == OpType::Store);
            if (write)
                ++stats.stores;
            else
                ++stats.loads;

            TranslateResult tr = _mmu->translate(op.addr, write, false);
            int attempts = 0;
            while (tr.fault != MemFault::None && attempts < 2) {
                ++stats.faults;
                FaultOutcome outcome;
                if (_faultHandler)
                    outcome = _faultHandler(op.addr, tr.fault, write);
                cycles +=
                    static_cast<double>(_clock.toCycles(outcome.latency));
                if (!outcome.resolved)
                    break;
                ++attempts;
                tr = _mmu->translate(op.addr, write, false);
            }
            if (tr.fault != MemFault::None)
                break; // access dropped (killed enclave / SIGSEGV)

            if (!tr.tlbHit)
                ++stats.tlbMisses;

            Tick mem_lat = _hierarchy->access(tr.pa, write, tr.keyId);
            // Translation is on the critical path of the access: a
            // PTW (and its bitmap retrieval) cannot be hidden by the
            // window, the dependent access waits for it.
            cycles += static_cast<double>(_clock.toCycles(tr.latency));
            // The pipelined L1 hit is already covered by issue cost;
            // anything beyond it is a stall the window may hide.
            Tick stall = mem_lat > l1_hit ? mem_lat - l1_hit : 0;
            double stall_cycles =
                static_cast<double>(_clock.toCycles(stall));
            cycles += stall_cycles * (1.0 - overlap);
            break;
          }
          case OpType::IntAlu:
          case OpType::FpAlu:
            break;
        }
    }

    stats.cycles = static_cast<std::uint64_t>(std::ceil(cycles));
    stats.ticks = _clock.toTicks(stats.cycles);
    perf::noteInstsRetired(stats.instructions);
    return stats;
}

} // namespace hypertee
