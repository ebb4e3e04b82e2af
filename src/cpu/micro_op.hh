/**
 * @file
 * The unit of work consumed by the core timing models.
 *
 * Workloads (src/workload) generate MicroOp streams procedurally —
 * synthetic equivalents of the RV8 / wolfSSL / SPEC CPU2017 binaries
 * the paper runs on its FPGA — and the cores time them against real
 * TLB, cache, and branch-predictor structures.
 */

#ifndef HYPERTEE_CPU_MICRO_OP_HH
#define HYPERTEE_CPU_MICRO_OP_HH

#include <cstdint>

#include "sim/types.hh"

namespace hypertee
{

enum class OpType : std::uint8_t
{
    IntAlu,
    FpAlu,
    Load,
    Store,
    Branch,
};

struct MicroOp
{
    OpType type = OpType::IntAlu;
    std::uint64_t pc = 0;
    Addr addr = 0;   ///< effective address for Load/Store
    bool taken = false; ///< actual branch outcome
};

/**
 * Pull-based instruction source. Core::run calls next() exactly once
 * per op it executes and never past its instruction budget, so
 * chunked callers (quantum loops) can resume the same stream. The hot
 * stream (SyntheticWorkload) is final with a header-inline next(), so
 * the core binds it statically.
 */
class InstStream
{
  public:
    virtual ~InstStream() = default;

    /** Produce the next op; false at end of stream. */
    virtual bool next(MicroOp &op) = 0;
};

} // namespace hypertee

#endif // HYPERTEE_CPU_MICRO_OP_HH
