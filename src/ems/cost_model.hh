/**
 * @file
 * EMS-side service-time model for the primitives.
 *
 * Each management task is a short, fixed-shape routine in the 3.8k
 * LoC EMS runtime (Section VIII-A); we charge it as an instruction
 * budget executed at the EMS core's effective IPC, plus crypto time
 * from the CryptoEngine model. The budgets are calibration knobs —
 * chosen so the end-to-end numbers land in Table IV / Figure 7's
 * reported bands — and are deliberately centralized here.
 */

#ifndef HYPERTEE_EMS_COST_MODEL_HH
#define HYPERTEE_EMS_COST_MODEL_HH

#include <cstdint>

#include "fabric/primitive.hh"
#include "sim/types.hh"

namespace hypertee
{

struct EmsCostParams
{
    double effectiveIpc = 1.4;                ///< medium OoO default
    std::uint64_t freqHz = 750'000'000ULL;

    /** Instruction budgets. */
    std::uint64_t perPageCopy = 700;   ///< EADD page move via iHub
    std::uint64_t perPageMap = 220;    ///< PT update + bitmap + own
    std::uint64_t perPageZero = 900;   ///< scrub on alloc/free
};

class EmsCostModel
{
  public:
    explicit EmsCostModel(const EmsCostParams &params) : _p(params) {}

    const EmsCostParams &params() const { return _p; }

    /** Ticks to execute @p insts instructions on the EMS core. */
    Tick
    instTime(std::uint64_t insts) const
    {
        double cycles = static_cast<double>(insts) / _p.effectiveIpc;
        return static_cast<Tick>(cycles *
                                 (double(ticksPerSecond) / double(_p.freqHz)));
    }

    /** Fixed dispatch budget per primitive (no per-page terms). */
    static std::uint64_t
    baseInsts(PrimitiveOp op)
    {
        switch (op) {
          case PrimitiveOp::ECreate: return 30'000;
          case PrimitiveOp::EAdd: return 2'400;
          case PrimitiveOp::EEnter: return 6'000;
          case PrimitiveOp::EResume: return 4'500;
          case PrimitiveOp::EExit: return 3'400;
          case PrimitiveOp::EDestroy: return 12'000;
          case PrimitiveOp::EAlloc: return 16'000;
          case PrimitiveOp::EFree: return 1'900;
          case PrimitiveOp::EWb: return 3'200;
          case PrimitiveOp::EShmGet: return 3'000;
          case PrimitiveOp::EShmAt: return 2'600;
          case PrimitiveOp::EShmDt: return 1'800;
          case PrimitiveOp::EShmShr: return 1'500;
          case PrimitiveOp::EShmDes: return 3'100;
          case PrimitiveOp::EMeas: return 3'000;
          case PrimitiveOp::EAttest: return 3'400;
        }
        return 2'000;
    }

    Tick perPageCopyTime(std::size_t pages) const
    {
        return instTime(pages * _p.perPageCopy);
    }
    Tick perPageMapTime(std::size_t pages) const
    {
        return instTime(pages * _p.perPageMap);
    }
    Tick perPageZeroTime(std::size_t pages) const
    {
        return instTime(pages * _p.perPageZero);
    }

    /**
     * Service time of a primitive that scrubs and maps (or unmaps)
     * @p pages pages: its dispatch budget plus the per-page zero and
     * map terms, each truncated to whole ticks on its own.
     */
    Tick
    pageServiceTime(PrimitiveOp op, std::size_t pages) const
    {
        return instTime(baseInsts(op)) + perPageZeroTime(pages) +
               perPageMapTime(pages);
    }

  private:
    EmsCostParams _p;
};

/** Table III-aligned presets. */
inline EmsCostParams
emsWeakCost()
{
    return {0.5, 750'000'000ULL, 700, 220, 900};
}

inline EmsCostParams
emsMediumCost()
{
    return {1.4, 750'000'000ULL, 700, 220, 900};
}

inline EmsCostParams
emsStrongCost()
{
    return {1.8, 750'000'000ULL, 700, 220, 900};
}

} // namespace hypertee

#endif // HYPERTEE_EMS_COST_MODEL_HH
