#include "attack/controlled_channel.hh"

#include <algorithm>

#include "emcall/emcall.hh"
#include "sim/logging.hh"
#include "workload/traffic.hh"

namespace hypertee
{

double
AttackOutcome::accuracy(const std::vector<bool> &secret) const
{
    panicIf(recovered.size() != secret.size(),
            "attack outcome size mismatch");
    if (secret.empty())
        return 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < secret.size(); ++i)
        correct += (recovered[i] == secret[i]);
    return static_cast<double>(correct) /
           static_cast<double>(secret.size());
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

// --------------------------------------------------------- baseline side

AttackOutcome
allocationAttack(BaselineOsManager &mgr, const std::vector<bool> &secret,
                 std::uint64_t seed)
{
    (void)seed;
    AttackOutcome out;
    const Addr base = 0x5000'0000;
    for (std::size_t i = 0; i < secret.size(); ++i) {
        // Victim: allocates a fresh page only on 1-bits (e.g. a
        // secret-dependent buffer in a library call).
        if (secret[i])
            mgr.victimAllocate(base + i * pageSize);
        // Attacker: did an allocation event arrive this round?
        out.recovered.push_back(!mgr.drainAllocationEvents().empty());
    }
    return out;
}

AttackOutcome
pageTableAttack(BaselineOsManager &mgr, const std::vector<bool> &secret,
                std::uint64_t seed)
{
    AttackOutcome out;
    Random rng(seed);
    const Addr page_a = 0x6000'0000, page_b = 0x6000'1000;
    mgr.victimAllocate(page_a);
    mgr.victimAllocate(page_b);
    mgr.drainAllocationEvents();

    for (bool bit : secret) {
        bool can_clear = mgr.clearAccessedBits();
        // Victim: touches A on 1-bits, B on 0-bits.
        mgr.victimTouch(bit ? page_a : page_b, false);
        bool a_bit = false;
        bool can_read = mgr.readAccessedBit(page_a, a_bit);
        if (can_clear && can_read) {
            out.recovered.push_back(a_bit);
        } else {
            ++out.blockedObservations;
            out.recovered.push_back(rng.chance(0.5)); // blind guess
        }
    }
    return out;
}

AttackOutcome
swapAttack(BaselineOsManager &mgr, const std::vector<bool> &secret,
           std::uint64_t seed)
{
    AttackOutcome out;
    Random rng(seed);
    const Addr page_a = 0x7000'0000, page_b = 0x7000'1000;
    mgr.victimAllocate(page_a);
    mgr.victimAllocate(page_b);
    mgr.drainAllocationEvents();
    mgr.drainFaultEvents();

    for (bool bit : secret) {
        // Attacker: swap out both candidate pages.
        bool could_evict =
            mgr.evictPage(page_a) && mgr.evictPage(page_b);
        // Victim: touches the secret-selected page, faulting it in.
        mgr.victimTouch(bit ? page_a : page_b, false);
        std::vector<Addr> faults = mgr.drainFaultEvents();
        if (could_evict && !faults.empty()) {
            out.recovered.push_back(faults.front() == page_a);
        } else {
            ++out.blockedObservations;
            out.recovered.push_back(rng.chance(0.5));
        }
    }
    return out;
}

// --------------------------------------------------------- HyperTEE side

AttackOutcome
allocationAttackHyperTee(HyperTeeSystem &sys, EnclaveHandle &victim,
                         const std::vector<bool> &secret,
                         std::uint64_t seed)
{
    (void)seed;
    AttackOutcome out;
    // EALLOC carries the gate-tracked identity: the victim must be
    // the active context while it allocates.
    bool entered = !sys.emCall(0).inEnclave() && victim.enter();
    for (bool bit : secret) {
        std::uint64_t grants_before = sys.osPoolGrants();
        if (bit) {
            Addr va = victim.alloc(1);
            panicIf(va == 0, "victim EALLOC failed");
        }
        // All the OS can observe: did the pool ask it for memory?
        out.recovered.push_back(sys.osPoolGrants() > grants_before);
    }
    if (entered)
        victim.exit();
    return out;
}

AttackOutcome
pageTableAttackHyperTee(HyperTeeSystem &sys, EnclaveHandle &victim,
                        const std::vector<bool> &secret,
                        std::uint64_t seed)
{
    AttackOutcome out;
    Random rng(seed);

    // The attacker-OS locates the victim's page-table frames (it
    // allocated the physical memory, after all) and maps them into
    // its own address space to scrape A/D bits.
    const PageTable *victim_pt = sys.ems().enclavePageTable(victim.id());
    panicIf(victim_pt == nullptr, "victim has no page table");
    Addr pt_frame = victim_pt->tableFrames().front();

    const Addr probe_va = 0x7777'0000;
    sys.hostPageTable().map(probe_va, pt_frame,
                            PteRead | PteWrite | PteUser);

    for (bool bit : secret) {
        (void)bit; // the victim's behaviour is irrelevant: the
                   // attacker never gets a reading at all.
        TranslateResult tr =
            sys.core(0).mmu().translate(probe_va, false, false);
        if (tr.fault != MemFault::None) {
            ++out.blockedObservations;
            out.recovered.push_back(rng.chance(0.5));
        } else {
            // Would read the PTE here; never reached under HyperTEE.
            out.recovered.push_back(true);
        }
        sys.core(0).mmu().tlb().flushAll();
    }
    return out;
}

AttackOutcome
swapAttackHyperTee(HyperTeeSystem &sys, EnclaveHandle &victim,
                   const std::vector<bool> &secret, std::uint64_t seed)
{
    AttackOutcome out;
    Random rng(seed);
    panicIf(sys.ems().enclave(victim.id()) == nullptr,
            "no victim control structure");
    const PageOwnershipTable &owners = sys.ems().ownership();

    for (bool bit : secret) {
        (void)bit;
        // Attacker-OS requests a swap-out, hoping to hit the
        // victim's working set.
        InvokeResult r = sys.emCall(0).invoke(
            PrimitiveOp::EWb, PrivMode::Supervisor, {2});
        bool hit_victim = false;
        if (r.accepted && r.response.status == PrimStatus::Ok) {
            for (std::size_t i = 1; i < r.response.results.size();
                 ++i) {
                const PageOwner *owner =
                    owners.lookup(pageNumber(r.response.results[i]));
                hit_victim |= owner && owner->owner == victim.id() &&
                              owner->kind == PageKind::Private;
            }
        }
        if (!hit_victim) {
            // No victim page was evicted: no fault to observe.
            ++out.blockedObservations;
            out.recovered.push_back(rng.chance(0.5));
        } else {
            out.recovered.push_back(true);
        }
    }
    return out;
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
