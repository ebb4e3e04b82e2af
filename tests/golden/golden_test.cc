/**
 * @file
 * Golden-value regression tests: seeded, deterministic simulation
 * runs pinned to checked-in fixtures. The model is a discrete cost
 * model with no host-dependent timing, so every counter below is
 * exactly reproducible; any drift means a change altered simulated
 * behaviour and must either be fixed or explicitly re-baselined.
 *
 * Re-baseline (after an intentional model change) with
 *     HT_UPDATE_GOLDEN=1 ./build/tests/test_golden
 * and commit the updated fixtures in tests/golden/ with a note in the
 * PR about why the numbers moved.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench/ablation_pool.hh"
#include "bench/bench_util.hh"
#include "bench/fig8a_alloc.hh"
#include "bench/table6_hypertee.hh"
#include "sim/json.hh"
#include "sim/stats_export.hh"
#include "workload/profiles.hh"
#include "workload/runner.hh"
#include "workload/traffic.hh"

namespace hypertee
{
namespace
{

using GoldenMap = std::map<std::string, std::uint64_t>;

std::string
goldenPath(const char *file)
{
    return std::string(HT_GOLDEN_DIR) + "/" + file;
}

bool
loadGolden(const std::string &path, GoldenMap &out)
{
    std::ifstream in(path);
    if (!in.good())
        return false;
    std::string key;
    std::uint64_t value;
    while (in >> key >> value)
        out[key] = value;
    return true;
}

/**
 * Compare @p actual against the fixture, or rewrite the fixture when
 * HT_UPDATE_GOLDEN is set. Missing and extra keys are failures too:
 * a renamed metric must be re-baselined consciously, not silently.
 */
void
checkGolden(const char *file, const GoldenMap &actual)
{
    const std::string path = goldenPath(file);
    if (std::getenv("HT_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        for (const auto &[key, value] : actual)
            out << key << " " << value << "\n";
        GTEST_SKIP() << "rewrote " << path;
    }
    GoldenMap expected;
    ASSERT_TRUE(loadGolden(path, expected))
        << "missing fixture " << path
        << "; generate it with HT_UPDATE_GOLDEN=1";
    for (const auto &[key, value] : expected) {
        auto it = actual.find(key);
        if (it == actual.end()) {
            ADD_FAILURE() << "pinned metric no longer measured: "
                          << key;
            continue;
        }
        EXPECT_EQ(it->second, value)
            << key << " drifted from the golden value; re-baseline "
            << "with HT_UPDATE_GOLDEN=1 if the change is intended";
    }
    for (const auto &[key, value] : actual) {
        EXPECT_TRUE(expected.count(key) != 0)
            << "unpinned new metric " << key << " = " << value
            << "; re-baseline with HT_UPDATE_GOLDEN=1";
    }
}

/**
 * Table IV scenario at a reduced instruction budget: the full
 * enclave lifecycle of the `aes` profile, with and without the
 * crypto engine, pinning every primitive-phase latency.
 */
TEST(Golden, Table4PrimitiveLatencies)
{
    logging_detail::setVerbose(false);
    WorkloadProfile profile = profileByName("aes");
    profile.instructions = 2'000'000;

    GoldenMap actual;
    for (bool engine : {false, true}) {
        HyperTeeSystem sys(evalSystem(engine));
        WorkloadRunner runner(sys);
        EnclaveRunResult r =
            runner.runEnclave(profile, 1, /*charge_primitives=*/false);
        const std::string prefix =
            std::string("aes.") + (engine ? "crypto" : "noncrypto");
        actual[prefix + ".ecreate_ticks"] = r.createLatency;
        actual[prefix + ".eadd_ticks"] = r.addLatency;
        actual[prefix + ".emeas_ticks"] = r.measLatency;
        actual[prefix + ".eenter_eexit_ticks"] = r.enterExitLatency;
        actual[prefix + ".edestroy_ticks"] = r.destroyLatency;
        actual[prefix + ".run_ticks"] = r.stats.ticks;
        actual[prefix + ".run_instructions"] = r.stats.instructions;
    }
    checkGolden("table4_primitives.golden", actual);
}

/**
 * The bench_fig8a_alloc --smoke sweep, run through the same
 * runAllocSweep the bench calls. Pins per size the summed EALLOC and
 * EFREE latencies, the bitmap flips, the pool's free-page count and
 * the PPN the last EALLOC mapped, so page-table, bitmap, ownership
 * and pool-order bookkeeping all show up here if they drift.
 */
TEST(Golden, Fig8aAllocLatency)
{
    logging_detail::setVerbose(false);
    GoldenMap actual;
    for (Addr kb : fig8aSizesKb) {
        const AllocSweep sweep =
            runAllocSweep((kb * 1024) >> pageShift, fig8aSmokeReps);
        const std::string prefix = std::to_string(kb) + "KB";
        actual[prefix + ".ealloc_ticks"] = sweep.allocTicks;
        actual[prefix + ".efree_ticks"] = sweep.freeTicks;
        actual[prefix + ".bitmap_updates"] = sweep.bitmapUpdates;
        actual[prefix + ".pool_free_pages"] = sweep.poolFreePages;
        actual[prefix + ".last_ppn"] = sweep.lastPpn;
    }
    checkGolden("fig8a_alloc.golden", actual);
}

/**
 * Table VI's HyperTEE row at the bench_table6_defense --smoke bit
 * count, run through the same runHyperTeeAttacks the bench calls.
 * Pins per attack the correctly recovered bits, the blocked
 * observations and the pool's OS requests, so a change to what the
 * attacker-OS can see of EALLOC, page-table frames or EWB shows up
 * here.
 */
TEST(Golden, Table6HyperTeeAttacks)
{
    logging_detail::setVerbose(false);
    const std::vector<bool> secret = randomSecret(table6SmokeBits, 11);
    const HyperTeeAttacks run = runHyperTeeAttacks(secret);

    GoldenMap actual;
    auto pin = [&](const std::string &name, const HyperTeeAttack &a) {
        std::uint64_t correct = 0;
        for (std::size_t i = 0; i < secret.size(); ++i)
            correct += a.outcome.recovered.at(i) == secret[i];
        actual[name + ".correct_bits"] = correct;
        actual[name + ".blocked_observations"] =
            a.outcome.blockedObservations;
        actual[name + ".pool_os_requests"] = a.osRequests;
    };
    pin("alloc", run.alloc);
    pin("pagetable", run.pageTable);
    pin("swap", run.swap);
    checkGolden("table6_defense.golden", actual);
}

/**
 * The bench_ablation_pool --smoke run, through the same runWithPool
 * the bench calls. Pins per pool mode the correctly recovered secret
 * bits, the OS grants and the summed EALLOC latency of the probe, so
 * a change to what the pool hides, or to what it costs, shows up
 * here. The pass-through pool draws every page from the OS, so this
 * is also the run that exercises the ownership table hardest.
 */
TEST(Golden, AblationPool)
{
    logging_detail::setVerbose(false);
    GoldenMap actual;
    for (bool warm : {true, false}) {
        const PoolResult run = runWithPool(warm, /*smoke=*/true);
        std::uint64_t correct = 0;
        for (std::size_t i = 0; i < run.secret.size(); ++i)
            correct += run.attack.recovered.at(i) == run.secret[i];
        const std::string prefix = warm ? "warm" : "passthrough";
        actual[prefix + ".correct_bits"] = correct;
        actual[prefix + ".os_grants"] = run.osGrants;
        actual[prefix + ".ealloc_ticks"] = run.allocTicks;
    }
    checkGolden("ablation_pool.golden", actual);
}

/**
 * Figure 10 scenario at a reduced instruction budget: Host-Native vs
 * Host-Bitmap runtime and TLB misses for a quiet profile
 * (perlbench_r) and the TLB-stressing outlier (xalancbmk_r).
 */
TEST(Golden, Fig10BitmapOverheads)
{
    logging_detail::setVerbose(false);
    GoldenMap actual;
    for (const char *name : {"perlbench_r", "xalancbmk_r"}) {
        WorkloadProfile profile = profileByName(name);
        profile.instructions = 3'000'000;

        HyperTeeSystem native_sys(evalSystem(true));
        makeHostNative(native_sys);
        WorkloadRunner native_runner(native_sys);
        RunStats native = native_runner.runHost(profile);

        HyperTeeSystem bitmap_sys(evalSystem(true));
        bitmap_sys.core(0).hierarchy().setProtectionEnabled(false);
        WorkloadRunner bitmap_runner(bitmap_sys);
        RunStats bitmap = bitmap_runner.runHost(profile);

        const std::string prefix = name;
        actual[prefix + ".native_ticks"] = native.ticks;
        actual[prefix + ".bitmap_ticks"] = bitmap.ticks;
        actual[prefix + ".bitmap_tlb_misses"] = bitmap.tlbMisses;
        actual[prefix + ".loads"] = bitmap.loads;
        actual[prefix + ".stores"] = bitmap.stores;
    }
    checkGolden("fig10_bitmap.golden", actual);
}

/**
 * Figure 11 scenario at a reduced instruction budget: miniz in an
 * enclave at two working-set sizes, unswitched and context-switched
 * at 100 and 400 Hz. Every switch flushes both TLB levels while they
 * hold live translations, so this pins the flush and invalidation
 * counts of the dTLB and the STLB alongside the run's ticks.
 */
TEST(Golden, Fig11TlbFlushOverheads)
{
    logging_detail::setVerbose(false);
    GoldenMap actual;
    for (Addr mb : {Addr(2), Addr(8)}) {
        WorkloadProfile profile = minizProfile(mb << 20);
        profile.instructions = 2'000'000;
        for (double hz : {0.0, 100.0, 400.0}) {
            SystemParams params = evalSystem(true);
            params.csMemSize = 1024ULL << 20;
            params.ems.pool.initialPages = 40000;
            HyperTeeSystem sys(params);
            WorkloadRunner runner(sys);
            RunStats run = runner.runSwitching(profile, hz);

            Mmu &mmu = sys.core(0).mmu();
            const std::string prefix = std::to_string(mb) + "MB." +
                                       std::to_string(int(hz)) + "hz";
            actual[prefix + ".ticks"] = run.ticks;
            actual[prefix + ".tlb_misses"] = run.tlbMisses;
            actual[prefix + ".dtlb_flushes"] = mmu.tlb().flushes();
            actual[prefix + ".dtlb_invalidations"] =
                mmu.tlb().invalidations();
            actual[prefix + ".stlb_flushes"] = mmu.stlb().flushes();
            actual[prefix + ".stlb_invalidations"] =
                mmu.stlb().invalidations();
        }
    }
    checkGolden("fig11_tlbflush.golden", actual);
}

/** What the bench_fleet_slo --smoke sweep leaves for its two fixtures. */
struct FleetSloSweep
{
    GoldenMap counters; ///< fleet_slo.golden
    GoldenMap exported; ///< fleet_slo_stats.golden
    std::string error;  ///< empty unless the JSON export was malformed
};

/**
 * The exact bench_fleet_slo --smoke sweep (same scenario list, same
 * seed), run once per test process and shared by the two tests below.
 */
const FleetSloSweep &
fleetSloSmokeSweep()
{
    static const FleetSloSweep sweep = [] {
        logging_detail::setVerbose(false);
        FleetSloSweep out;
        for (const FleetScenario &scenario :
             fleetSloScenarios(/*smoke=*/true, /*seed=*/42)) {
            ShardStats stats;
            FleetTrafficSim sim(scenario.params, scenario.name, stats);
            sim.run();

            // The export first: the lookups below must not add to it.
            std::ostringstream text;
            JsonWriter w(text);
            stats.writeJson(w, scenario.name);
            std::optional<JsonValue> doc = JsonValue::parse(text.str());
            if (!doc) {
                out.error = scenario.name + ": export does not parse";
                return out;
            }
            const JsonValue *scalars = doc->find("scalars");
            const JsonValue *dists = doc->find("distributions");
            if (scalars == nullptr || dists == nullptr) {
                out.error = scenario.name + ": export lacks a section";
                return out;
            }
            for (const auto &[name, v] : scalars->members()) {
                const Scalar *s = stats.findScalar(name);
                if (s == nullptr) {
                    out.error = "exported scalar not found: " + name;
                    return out;
                }
                out.exported[name] = std::uint64_t(std::llround(s->value()));
            }
            for (const auto &[name, v] : dists->members()) {
                const Distribution *d = stats.findDistribution(name);
                if (d == nullptr) {
                    out.error = "exported distribution not found: " + name;
                    return out;
                }
                out.exported[name + ".count"] = d->count();
                out.exported[name + ".p50_ticks"] =
                    std::uint64_t(d->quantile(0.5));
                out.exported[name + ".p99_ticks"] =
                    std::uint64_t(d->quantile(0.99));
            }

            GoldenMap &actual = out.counters;
            const std::string prefix = scenario.name;
            actual[prefix + ".offered"] = sim.offered();
            actual[prefix + ".completed"] = sim.completed();
            actual[prefix + ".rejected"] = sim.rejected();
            auto scalar = [&](const char *name) {
                return std::uint64_t(stats.scalar(prefix + name).value());
            };
            actual[prefix + ".peak_live"] = scalar(".peak_live_enclaves");
            actual[prefix + ".peak_queue"] = sim.peakQueueDepth();
            actual[prefix + ".end_ticks"] = sim.endTime();
            actual[prefix + ".pool_os_requests"] =
                scalar(".pool_os_requests");
            actual[prefix + ".pool_os_returns"] = scalar(".pool_os_returns");
            Distribution &attest =
                stats.distribution(prefix + ".attest_latency");
            actual[prefix + ".attest_p50_ticks"] =
                std::uint64_t(attest.quantile(0.5));
            actual[prefix + ".attest_p99_ticks"] =
                std::uint64_t(attest.quantile(0.99));
            actual[prefix + ".attest_p999_ticks"] =
                std::uint64_t(attest.quantile(0.999));
        }
        return out;
    }();
    return sweep;
}

/**
 * Every load point's throughput/rejection counters and the
 * attest-class latency quantiles, pinned to the tick. This is the
 * fixture behind the fleet traffic driver: if the scheduler model,
 * the arrival processes or the pool watermark policy change
 * behaviour, this is where it shows up first.
 */
TEST(Golden, FleetSloSmokeSweep)
{
    const FleetSloSweep &sweep = fleetSloSmokeSweep();
    ASSERT_TRUE(sweep.error.empty()) << sweep.error;
    checkGolden("fleet_slo.golden", sweep.counters);
}

/**
 * Every stat the sweep exports, for every request class: each
 * scalar's value (rounded to an integer; all but goodput_rps are
 * counts) and each distribution's count, p50 and p99 in ticks. The
 * stat names come from the container's own JSON export, so a stat
 * created, dropped or renamed shows up as a missing or unpinned key.
 */
TEST(Golden, FleetSloStats)
{
    const FleetSloSweep &sweep = fleetSloSmokeSweep();
    ASSERT_TRUE(sweep.error.empty()) << sweep.error;
    checkGolden("fleet_slo_stats.golden", sweep.exported);
}

} // namespace
} // namespace hypertee
