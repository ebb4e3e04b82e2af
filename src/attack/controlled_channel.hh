/**
 * @file
 * Controlled-channel attack simulators (Introduction, Attack Type 2).
 *
 * Three attacks from the literature the paper cites:
 *   - allocation-based: watch on-demand allocation events [32]
 *   - page-table-based: clear and re-read A/D bits [25]-[31]
 *   - swapping-based: evict chosen pages, watch swap-ins [32], [33]
 *
 * Each attack is written once, against an OsView: a victim whose
 * secret bit-string drives its memory behaviour, and an attacker that
 * attempts what an untrusted OS attempts. Every round records either
 * the bit the attacker observed or that its observation was refused;
 * a refused round is never scored as a guess. Against a baseline
 * SGX-class manager the attacker observes every round and recovers
 * the secret exactly; against HyperTEE (HyperTeeOsView, a live
 * system) each attempt goes through the real mechanism, and the
 * page-table and swap attempts are refused by the bitmap and the EMS.
 */

#ifndef HYPERTEE_ATTACK_CONTROLLED_CHANNEL_HH
#define HYPERTEE_ATTACK_CONTROLLED_CHANNEL_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/os_manager.hh"
#include "core/sdk.hh"

namespace hypertee
{

struct AttackOutcome
{
    /** Per round: the observed bit, or nullopt when refused. */
    std::vector<std::optional<bool>> rounds;

    std::size_t observedRounds() const;

    /** Observed rounds whose bit matches the secret's. */
    std::size_t correctBits(const std::vector<bool> &secret) const;

    /** correctBits() over observedRounds(); 0 when none observed. */
    double accuracy(const std::vector<bool> &secret) const;
};

/** Generate a pseudorandom secret of @p bits bits. */
std::vector<bool> randomSecret(std::size_t bits, std::uint64_t seed);

AttackOutcome allocationAttack(OsView &os, const std::vector<bool> &secret);
AttackOutcome pageTableAttack(OsView &os, const std::vector<bool> &secret);
AttackOutcome swapAttack(OsView &os, const std::vector<bool> &secret);

/** The three attacks under their Table VI stats names. */
struct NamedAttack
{
    const char *name;
    AttackOutcome (*run)(OsView &, const std::vector<bool> &);
};
inline constexpr NamedAttack controlledChannelAttacks[] = {
    {"alloc", allocationAttack},
    {"pagetable", pageTableAttack},
    {"swap", swapAttack},
};

/**
 * The OS side of a live HyperTEE system with one measured one-page
 * victim enclave on core 0. The victim's steps are real EALLOCs and
 * MMU translations in its context; the attacker's are what the CS OS
 * can do: count pool grants, map frames into the host page table and
 * issue Supervisor EWBs.
 */
class HyperTeeOsView : public OsView
{
  public:
    /** Table VI's platform: 256 MiB, one core, 8192-page warm pool. */
    static SystemParams defaultParams();

    explicit HyperTeeOsView(const SystemParams &params = defaultParams());

    HyperTeeSystem &system() { return _sys; }
    EnclaveHandle &victim() { return _victim; }

    /** EEXIT the victim if it runs; every attacker step starts here. */
    void hostContext();

    void victimAllocate(Addr va) override;
    void victimTouch(Addr va) override;
    std::size_t drainAllocationEvents() override;
    bool clearAccessedBit(Addr va) override;
    bool readAccessedBit(Addr va, bool &value) override;
    bool evictPage(Addr va) override;
    std::vector<Addr> drainFaultEvents() override;

  private:
    /** EENTER the victim unless it already runs. */
    void victimContext();
    const PageTable &
    victimTable()
    {
        return *_sys.ems().enclavePageTable(_victim.id());
    }
    /**
     * Map the frame holding @p va's victim leaf PTE into the host
     * page table and access the PTE from the host context.
     * @return its translated address, or nullopt when the MMU faults.
     */
    std::optional<Addr> hostPte(Addr va, bool write);

    HyperTeeSystem _sys;
    EnclaveHandle _victim;
    std::uint64_t _grantsSeen = 0; ///< pool grants already drained
    std::vector<Addr> _faults;
};

/** A fresh view of @p model's management plane. */
std::unique_ptr<OsView> makeOsView(TeeModel model);

/** Table VI's verdicts. */
enum class Verdict
{
    Open,
    Partial,
    Defended,
};

/** Open above 90% recovery, defended below 60%, else partial. */
Verdict verdictOf(double accuracy);

/** As above, and defended when no round was observed at all. */
Verdict verdictOf(const AttackOutcome &outcome,
                  const std::vector<bool> &secret);

/** "open (100%)", "DEFENDED (41%)" or "DEFENDED (refused)". */
std::string verdictCell(const AttackOutcome &outcome,
                        const std::vector<bool> &secret);

/**
 * EMS timing channel (Section III-C): the attacker issues a probe
 * primitive concurrently with each victim primitive and tries to
 * classify the victim's secret from its own observed latency.
 * Two defenses are modelled: multi-core EMS service (concurrent
 * handling removes the serialization signal) and EMCall jitter
 * obfuscation (drowns sub-jitter service differences).
 *
 * @param service_delta victim service-time difference between a
 *        0-bit and a 1-bit request.
 * @return classification accuracy in [0,1].
 */
double timingChannelAccuracy(unsigned ems_cores, bool obfuscation,
                             Tick service_delta, std::size_t bits,
                             std::uint64_t seed);

} // namespace hypertee

#endif // HYPERTEE_ATTACK_CONTROLLED_CHANNEL_HH
