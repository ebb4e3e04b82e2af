/**
 * @file
 * What an untrusted OS can attempt against an enclave's management
 * plane, and an executable baseline manager that grants it.
 *
 * OsView is the one interface every controlled-channel attack
 * (src/attack) is written against: the victim's two secret-dependent
 * actions plus the steps a privileged attacker tries. Each TEE model
 * provides one implementation, so every Table VI row runs the same
 * victim and attacker code.
 *
 * BaselineOsManager models the management plane of conventional TEEs
 * (SGX/SEV-class): the untrusted OS performs on-demand allocation,
 * owns the enclave page tables (A/D bits included), and picks swap
 * victims, each step granted exactly as the ManagementExposure of the
 * chosen TEE model allows.
 */

#ifndef HYPERTEE_BASELINE_OS_MANAGER_HH
#define HYPERTEE_BASELINE_OS_MANAGER_HH

#include <cstddef>
#include <map>
#include <vector>

#include "baseline/tee_models.hh"
#include "sim/types.hh"

namespace hypertee
{

class OsView
{
  public:
    virtual ~OsView() = default;

    // ---- victim-side operations (enclave runtime actions) ----

    /** On-demand allocation of the page backing @p va. */
    virtual void victimAllocate(Addr va) = 0;

    /** Victim reads @p va (drives A/D bits, residency faults). */
    virtual void victimTouch(Addr va) = 0;

    // ---- attacker-side attempts; false means refused ----

    /** Allocation events the OS saw since the last drain. */
    virtual std::size_t drainAllocationEvents() = 0;

    /** Clear the accessed bit of the page backing @p va. */
    virtual bool clearAccessedBit(Addr va) = 0;

    /** Read the accessed bit of the page backing @p va. */
    virtual bool readAccessedBit(Addr va, bool &value) = 0;

    /** Swap out exactly the page backing @p va. */
    virtual bool evictPage(Addr va) = 0;

    /** Victim page faults the OS saw since the last drain. */
    virtual std::vector<Addr> drainFaultEvents() = 0;
};

class BaselineOsManager : public OsView
{
  public:
    explicit BaselineOsManager(TeeModel model);

    void victimAllocate(Addr va) override;
    void victimTouch(Addr va) override;
    std::size_t drainAllocationEvents() override;
    bool clearAccessedBit(Addr va) override;
    bool readAccessedBit(Addr va, bool &value) override;
    bool evictPage(Addr va) override;
    std::vector<Addr> drainFaultEvents() override;

  private:
    ManagementExposure _exposure;

    std::map<Addr, bool> _accessed;    ///< resident pages' A bits
    std::size_t _allocationEvents = 0; ///< attacker-visible count
    std::vector<Addr> _faultEvents;    ///< swap-in log
};

} // namespace hypertee

#endif // HYPERTEE_BASELINE_OS_MANAGER_HH
