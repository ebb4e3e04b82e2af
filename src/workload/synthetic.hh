/**
 * @file
 * Parameterized synthetic workload generator.
 *
 * Stands in for the paper's benchmark binaries (RV8, wolfSSL, SPEC
 * CPU2017, MemStream): each profile reproduces the *characteristics*
 * the evaluation depends on — instruction mix, working-set size and
 * locality (hence TLB/cache miss rates), branch predictability, and
 * the enclave image size that drives EADD/EMEAS cost.
 */

#ifndef HYPERTEE_WORKLOAD_SYNTHETIC_HH
#define HYPERTEE_WORKLOAD_SYNTHETIC_HH

#include <string>

#include "cpu/micro_op.hh"
#include "sim/random.hh"

namespace hypertee
{

struct WorkloadProfile
{
    std::string name = "generic";

    /** Instructions per run (scaled-down from the real binaries). */
    std::uint64_t instructions = 5'000'000;

    /** Instruction mix; the remainder is integer ALU. */
    double loadFrac = 0.25;
    double storeFrac = 0.10;
    double branchFrac = 0.15;
    double fpFrac = 0.02;

    /** Data working set (drives cache behaviour). */
    Addr workingSetBytes = 256 * 1024;

    /**
     * Fraction of memory accesses that stream sequentially; the
     * rest jump uniformly inside the working set.
     */
    double sequentialFrac = 0.7;

    /**
     * Fraction of the random accesses that touch a sparse far
     * region (spread over sparsePages pages) — the TLB-stress knob
     * that reproduces e.g. xalancbmk's 0.8% TLB miss rate.
     */
    double sparseFrac = 0.0;
    Addr sparsePages = 4096;

    /** Branch behaviour: outcomes repeat with this period, with a
     *  noiseFrac chance of flipping (unpredictable component). */
    unsigned branchPeriod = 8;
    double branchNoise = 0.03;

    /** Size of the enclave binary+data image (EADD/EMEAS cost). */
    std::uint64_t imageBytes = 64 * 1024;
};

/**
 * InstStream emitting ops for a profile. Addresses fall inside
 * [base, base + workingSetBytes) plus, for the sparse component,
 * [sparseBase, sparseBase + sparsePages*pageSize).
 */
class SyntheticWorkload final : public InstStream
{
  public:
    SyntheticWorkload(const WorkloadProfile &profile, Addr base,
                      Addr sparse_base, std::uint64_t seed = 1);

    // next() is header-inline (and this class final) so Core's
    // SyntheticWorkload instantiation of runEngine can fuse
    // generation into execution with no virtual dispatch per op.
    bool
    next(MicroOp &op) override
    {
        if (_emitted >= _p.instructions)
            return false;
        ++_emitted;
        emit(op);
        return true;
    }

    /** Restart from the beginning (fresh run, same sequence). */
    void reset();

    std::uint64_t emitted() const { return _emitted; }
    const WorkloadProfile &profile() const { return _p; }

  private:
    /**
     * One op of the sequence. Header-inline so Core's SyntheticWorkload
     * engine instantiation fuses generation into execution: the type
     * cascade below then doubles as the execution dispatch, costing
     * one data-dependent host branch per op instead of two.
     *
     * The thresholds are the cumulative mix fractions precomputed by
     * the constructor — the same doubles the cascade previously
     * re-summed per op.
     */
    void
    emit(MicroOp &op)
    {
        double draw = _rng.real();
        _pc += 4;
        // _siteRot tracks _emitted % 13 (callers bump _emitted exactly
        // once per emit) so the branch arm needs no 64-bit divide.
        unsigned site_rot = _siteRot + 1;
        _siteRot = site_rot == 13 ? 0 : site_rot;
        if (draw < _thLoad) {
            op = {OpType::Load, _pc, nextDataAddr(), false};
        } else if (draw < _thStore) {
            op = {OpType::Store, _pc, nextDataAddr(), false};
        } else if (draw < _thBranch) {
            // A small set of branch sites with periodic outcomes.
            std::uint64_t site = 0x10'0000 + _siteRot * std::uint64_t(8);
            unsigned phase = _branchPhase++;
            phase = _phaseMask ? (phase & _phaseMask)
                               : (phase % _p.branchPeriod);
            bool taken = phase < _phaseHalf;
            if (_rng.chance(_p.branchNoise))
                taken = !taken;
            op = {OpType::Branch, site, 0, taken};
        } else if (draw < _thFp) {
            op = {OpType::FpAlu, _pc, 0, false};
        } else {
            op = {OpType::IntAlu, _pc, 0, false};
        }
    }

    Addr
    nextDataAddr()
    {
        double draw = _rng.real();
        if (draw < _p.sequentialFrac) {
            // Streaming access: stride one word, wrapping the set.
            // The conditional subtract matches (_streamCursor + 8) %
            // workingSetBytes exactly while the cursor stays below
            // the set size, which holds whenever workingSetBytes >=
            // 8.
            if (_p.workingSetBytes >= 8) {
                _streamCursor += 8;
                if (_streamCursor >= _p.workingSetBytes)
                    _streamCursor -= _p.workingSetBytes;
            } else {
                _streamCursor = (_streamCursor + 8) % _p.workingSetBytes;
            }
            return _base + _streamCursor;
        }
        if (draw < _thSparse) {
            // Sparse far touch: TLB stress.
            Addr page = _sparseDraw.draw(_rng);
            return _sparseBase + page * pageSize +
                   (_rng.next() & (pageSize - 8));
        }
        // Uniform random within the working set.
        return _base + (_wsDraw.draw(_rng) & ~Addr(7));
    }

    WorkloadProfile _p;
    Addr _base;
    Addr _sparseBase;
    std::uint64_t _seed;
    Random _rng;
    /** Precomputed bounded draws (same sequences as Random::below). */
    Random::Bounded _wsDraw;
    Random::Bounded _sparseDraw;
    /** Cumulative mix thresholds (exactly the per-op sums emit()
     *  used to recompute: loadFrac, +storeFrac, +branchFrac,
     *  +fpFrac; sequentialFrac + sparseFrac for addresses). */
    double _thLoad;
    double _thStore;
    double _thBranch;
    double _thFp;
    double _thSparse;
    /** branchPeriod-1 when the period is a power of two, else 0
     *  (modulo fallback — identical values either way). */
    unsigned _phaseMask = 0;
    unsigned _phaseHalf;
    std::uint64_t _emitted = 0;
    /** _emitted % 13 maintained incrementally (branch-site select). */
    unsigned _siteRot = 0;
    Addr _streamCursor = 0;
    unsigned _branchPhase = 0;
    std::uint64_t _pc = 0x40'0000;
};

} // namespace hypertee

#endif // HYPERTEE_WORKLOAD_SYNTHETIC_HH
