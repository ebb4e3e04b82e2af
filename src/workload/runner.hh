/**
 * @file
 * Harness that runs a workload profile in the paper's scenarios:
 * Host-Native (baseline), Host-Bitmap, Enclave-M_encrypt, etc.
 *
 * The enclave path performs the full lifecycle through the SDK —
 * ECREATE sized for the working set, EADD of the image, EMEAS,
 * EENTER — then executes the instruction stream on the CS core
 * against the enclave's private page table, and finally EEXIT +
 * EDESTROY. Primitive latencies are recorded per phase so Table IV
 * can be regenerated.
 */

#ifndef HYPERTEE_WORKLOAD_RUNNER_HH
#define HYPERTEE_WORKLOAD_RUNNER_HH

#include "core/sdk.hh"
#include "core/system.hh"
#include "workload/synthetic.hh"

namespace hypertee
{

struct EnclaveRunResult
{
    RunStats stats;          ///< core-side execution
    Tick createLatency = 0;  ///< ECREATE (includes static alloc)
    Tick addLatency = 0;     ///< all EADDs
    Tick measLatency = 0;    ///< EMEAS
    Tick enterExitLatency = 0;
    Tick destroyLatency = 0;

    Tick
    totalPrimitiveLatency() const
    {
        return createLatency + addLatency + measLatency +
               enterExitLatency + destroyLatency;
    }
};

class WorkloadRunner
{
  public:
    explicit WorkloadRunner(HyperTeeSystem &sys, unsigned core = 0)
        : _sys(&sys), _core(core)
    {}

    /**
     * Host-Native / Host-Bitmap run: maps the working set in the
     * host page table and executes on the core. Bitmap checking
     * follows the core's current configuration.
     */
    RunStats runHost(const WorkloadProfile &profile,
                     std::uint64_t seed = 1);

    /**
     * Full enclave run. @p charge_primitives controls whether the
     * primitive round-trips stall the core (the Enclave-* scenarios)
     * or are only recorded (pure breakdown measurements).
     */
    EnclaveRunResult runEnclave(const WorkloadProfile &profile,
                                std::uint64_t seed = 1,
                                bool charge_primitives = true);

    /**
     * Figure 11 scenario: run @p profile in an enclave that is
     * context-switched at @p hz (wall-clock switches per second;
     * <= 0 runs without switching). Each switch models an AEX plus
     * a later ERESUME: both TLB levels are flushed, the other
     * context pollutes the L1, and the ERESUME round trip stalls the
     * core. The TLB counters stay readable on the core's MMU
     * afterwards.
     */
    RunStats runSwitching(const WorkloadProfile &profile, double hz);

  private:
    HyperTeeSystem *_sys;
    unsigned _core;
    Addr _hostCursor = 0x2000'0000; ///< next free host VA
};

} // namespace hypertee

#endif // HYPERTEE_WORKLOAD_RUNNER_HH
