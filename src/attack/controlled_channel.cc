#include "attack/controlled_channel.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "emcall/emcall.hh"
#include "sim/logging.hh"
#include "workload/traffic.hh"

namespace hypertee
{

std::size_t
AttackOutcome::observedRounds() const
{
    return rounds.size() -
           std::size_t(std::count(rounds.begin(), rounds.end(), std::nullopt));
}

std::size_t
AttackOutcome::correctBits(const std::vector<bool> &secret) const
{
    panicIf(rounds.size() != secret.size(),
            "attack outcome size mismatch");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < secret.size(); ++i)
        correct += rounds[i] == secret[i];
    return correct;
}

double
AttackOutcome::accuracy(const std::vector<bool> &secret) const
{
    const std::size_t observed = observedRounds();
    return observed ? double(correctBits(secret)) / double(observed) : 0.0;
}

std::vector<bool>
randomSecret(std::size_t bits, std::uint64_t seed)
{
    Random rng(seed);
    std::vector<bool> secret(bits);
    for (std::size_t i = 0; i < bits; ++i)
        secret[i] = rng.chance(0.5);
    return secret;
}

// ---------------------------------------------------------------- attacks

AttackOutcome
allocationAttack(OsView &os, const std::vector<bool> &secret)
{
    AttackOutcome out;
    const Addr base = 0x5000'0000;
    for (std::size_t i = 0; i < secret.size(); ++i) {
        // Victim: allocates a fresh page only on 1-bits (e.g. a
        // secret-dependent buffer in a library call).
        if (secret[i])
            os.victimAllocate(base + i * pageSize);
        // Attacker: did an allocation event arrive this round?
        out.rounds.push_back(os.drainAllocationEvents() > 0);
    }
    return out;
}

AttackOutcome
pageTableAttack(OsView &os, const std::vector<bool> &secret)
{
    AttackOutcome out;
    const Addr page_a = 0x6000'0000, page_b = 0x6000'1000;
    os.victimAllocate(page_a);
    os.victimAllocate(page_b);
    os.drainAllocationEvents();

    for (bool bit : secret) {
        bool can_clear = os.clearAccessedBit(page_a);
        // Victim: touches A on 1-bits, B on 0-bits.
        os.victimTouch(bit ? page_a : page_b);
        bool a_bit = false;
        bool can_read = os.readAccessedBit(page_a, a_bit);
        out.rounds.push_back(can_clear && can_read
                                 ? std::optional<bool>(a_bit)
                                 : std::nullopt);
    }
    return out;
}

AttackOutcome
swapAttack(OsView &os, const std::vector<bool> &secret)
{
    AttackOutcome out;
    const Addr page_a = 0x7000'0000, page_b = 0x7000'1000;
    os.victimAllocate(page_a);
    os.victimAllocate(page_b);
    os.drainAllocationEvents();
    os.drainFaultEvents();

    for (bool bit : secret) {
        // Attacker: swap out both candidate pages.
        bool could_evict = os.evictPage(page_a) && os.evictPage(page_b);
        // Victim: touches the secret-selected page, faulting it in.
        os.victimTouch(bit ? page_a : page_b);
        std::vector<Addr> faults = os.drainFaultEvents();
        out.rounds.push_back(could_evict && !faults.empty()
                                 ? std::optional<bool>(faults.front() ==
                                                       page_a)
                                 : std::nullopt);
    }
    return out;
}

// ------------------------------------------------------- HyperTEE's OS

SystemParams
HyperTeeOsView::defaultParams()
{
    SystemParams p;
    p.csMemSize = 256ULL * 1024 * 1024;
    p.csCoreCount = 1;
    p.ems.pool.initialPages = 8192;
    return p;
}

HyperTeeOsView::HyperTeeOsView(const SystemParams &params)
    : _sys(params), _victim(_sys, 0, EnclaveConfig{})
{
    _victim.addImage(Bytes(pageSize, 0x42), EnclaveLayout::codeBase,
                     PteRead | PteExec);
    _victim.measure();
    _grantsSeen = _sys.osPoolGrants();
}

void
HyperTeeOsView::hostContext()
{
    if (_sys.emCall(0).inEnclave() && !_victim.exit())
        panic("victim EEXIT failed");
}

void
HyperTeeOsView::victimContext()
{
    // Entered lazily and left only for an attacker step, so
    // consecutive victim steps share one EENTER.
    if (!_sys.emCall(0).inEnclave() && !_victim.enter())
        panic("victim EENTER failed");
}

void
HyperTeeOsView::victimAllocate(Addr va)
{
    victimContext();
    panicIf(_victim.allocAt(va, 1) == 0, "victim EALLOC failed");
}

void
HyperTeeOsView::victimTouch(Addr va)
{
    victimContext();
    // A faulting access is shown to the OS only if the gate routes
    // the page fault to it.
    if (_sys.core(0).mmu().translate(va, false, false).fault !=
            MemFault::None &&
        _sys.emCall(0).asyncExit(ExcCause::PageFault, va) ==
            ExcRoute::ToCsOs)
        _faults.push_back(pageAlign(va));
}

std::size_t
HyperTeeOsView::drainAllocationEvents()
{
    // All the OS sees of an EALLOC: the pool asking it for memory.
    const std::uint64_t grants = _sys.osPoolGrants();
    return std::size_t(grants - std::exchange(_grantsSeen, grants));
}

std::optional<Addr>
HyperTeeOsView::hostPte(Addr va, bool write)
{
    // The OS handed out the physical memory, so it can name the frame
    // holding va's leaf PTE and map it into its own address space.
    hostContext();
    const Addr pte = victimTable().walk(va).pteAddr;
    const Addr probe_va = 0x7777'0000;
    PageTable &host = _sys.hostPageTable();
    host.unmap(probe_va);
    host.map(probe_va, pageAlign(pte), PteRead | PteWrite | PteUser);
    Mmu &mmu = _sys.core(0).mmu();
    mmu.flushTlbs();
    TranslateResult tr =
        mmu.translate(probe_va + (pte & (pageSize - 1)), write, false);
    if (tr.fault != MemFault::None)
        return std::nullopt;
    return tr.pa;
}

bool
HyperTeeOsView::clearAccessedBit(Addr va)
{
    // The walker model sets no A/D bits, so a granted clear changes
    // nothing; the bitmap check refuses it before that matters.
    std::optional<Addr> pte = hostPte(va, true);
    if (pte)
        _sys.csMem().write64(*pte,
                             _sys.csMem().read64(*pte) & ~PteAccessed);
    return pte.has_value();
}

bool
HyperTeeOsView::readAccessedBit(Addr va, bool &value)
{
    std::optional<Addr> pte = hostPte(va, false);
    if (!pte)
        return false;
    value = _sys.csMem().read64(*pte) & PteAccessed;
    return true;
}

bool
HyperTeeOsView::evictPage(Addr va)
{
    // EWB names no page: the EMS picks the frames. The attacker's
    // eviction happened only if it picked the one backing va.
    hostContext();
    InvokeResult r = _sys.emCall(0).invoke(PrimitiveOp::EWb,
                                           PrivMode::Supervisor, {1});
    if (!r.accepted || r.response.status != PrimStatus::Ok)
        return false;
    const WordList &evicted = r.response.results;
    return std::find(evicted.begin() + 1, evicted.end(),
                     pageAlign(victimTable().walk(va).pa)) !=
           evicted.end();
}

std::vector<Addr>
HyperTeeOsView::drainFaultEvents()
{
    return std::exchange(_faults, {});
}

std::unique_ptr<OsView>
makeOsView(TeeModel model)
{
    if (model == TeeModel::HyperTee)
        return std::make_unique<HyperTeeOsView>();
    return std::make_unique<BaselineOsManager>(model);
}

// --------------------------------------------------------------- verdicts

Verdict
verdictOf(double accuracy)
{
    if (accuracy > 0.9)
        return Verdict::Open;
    if (accuracy < 0.6)
        return Verdict::Defended;
    return Verdict::Partial;
}

Verdict
verdictOf(const AttackOutcome &outcome, const std::vector<bool> &secret)
{
    if (outcome.observedRounds() == 0)
        return Verdict::Defended;
    return verdictOf(outcome.accuracy(secret));
}

std::string
verdictCell(const AttackOutcome &outcome, const std::vector<bool> &secret)
{
    static const char *const names[] = {"open", "partial", "DEFENDED"};
    std::string cell =
        names[static_cast<std::size_t>(verdictOf(outcome, secret))];
    if (outcome.observedRounds() == 0)
        return cell + " (refused)";
    char pct[16];
    std::snprintf(pct, sizeof(pct), " (%.0f%%)",
                  outcome.accuracy(secret) * 100.0);
    return cell + pct;
}

double
timingChannelAccuracy(unsigned ems_cores, bool obfuscation,
                      Tick service_delta, std::size_t bits,
                      std::uint64_t seed)
{
    std::vector<bool> secret = randomSecret(bits, seed);
    const Tick base_service = 2'000'000; // 2 us victim primitive
    const Tick probe_service = 400'000;  // cheap attacker probe

    // One synchronized round per secret bit: victim (client 0) and
    // attacker (client 1) issue together, mirroring an SGX-Step-style
    // synchronized prober, on an unbatched EMS.
    FleetTrafficParams params;
    params.mode = FleetLoadMode::ClosedLoop;
    params.clients = 2;
    params.requests = 2;
    params.thinkTime = 0;
    params.thinkJitter = 0;
    params.emsCores = ems_cores;
    params.queueCapacity = 2;
    params.batchMax = 1;
    params.batchOverhead = 0;
    params.jitterMax = obfuscation ? EmCallParams{}.pollJitterMax : 0;

    std::vector<Tick> observed(bits);
    for (std::size_t i = 0; i < bits; ++i) {
        params.seed = seed ^ (0x7171 + i);
        Tick victim_service =
            base_service + (secret[i] ? service_delta : 0);
        ShardStats stats;
        FleetTrafficSim sim(
            params,
            std::make_unique<ScriptedSource>(
                std::vector<std::string>{"victim", "probe"},
                [=](std::uint32_t client, std::uint64_t) {
                    return client == 0 ? victim_service : probe_service;
                }),
            "timing", stats);
        sim.run();
        observed[i] = static_cast<Tick>(
            stats.distribution("timing.probe_latency").samples().at(0));
    }

    // Midpoint threshold classifier: with a clean two-valued signal
    // this separates perfectly; with no signal everything falls on
    // one side and accuracy collapses to the secret's bias (~0.5).
    Tick lo = *std::min_element(observed.begin(), observed.end());
    Tick hi = *std::max_element(observed.begin(), observed.end());
    Tick threshold = lo + (hi - lo) / 2;

    std::size_t correct = 0;
    for (std::size_t i = 0; i < bits; ++i)
        correct += ((observed[i] > threshold) == secret[i]);
    return static_cast<double>(correct) / static_cast<double>(bits);
}

} // namespace hypertee
