/**
 * @file
 * Golden regression tests: seeded, deterministic simulation runs
 * pinned to checked-in fixtures. The model is a discrete cost model
 * with no host-dependent timing, so every byte below is exactly
 * reproducible; any drift means a change altered simulated behaviour
 * and must either be fixed or explicitly re-baselined.
 *
 * Every result bench is pinned by what it emits: one registry row per
 * bench runs the built binary at `--smoke --seed=42 --jobs=1` and
 * compares its stdout and `--stats-json` bytes with
 * tests/golden/bench/<bench>.out and .json. Each sharded bench also
 * has a BenchDeterminism case, made from its row: at `--jobs 4`,
 * `--jobs=4` and `--jobs=8` it must give the bytes of `--jobs=1`. A
 * counter is pinned by adding it to its bench's export.
 * Golden.FleetSloStats runs the fleet sweep in-process, from the
 * library, and checks that every stat it exports holds the value
 * pinned in the bench's stats fixture.
 *
 * Golden.Fig10BitmapOverheads pins Fig. 10's quiet perlbench_r row and
 * its TLB outlier xalancbmk_r at a fixed 3M-instruction budget, with
 * the load and store counts the bench does not export, against
 * fig10_bitmap.golden.
 *
 * Re-baseline (after an intentional model change) with
 *     HT_UPDATE_GOLDEN=1 ./build/tests/test_golden
 * and commit the updated fixtures in tests/golden/ with a note in the
 * PR about why the numbers moved.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include "bench/bench_util.hh"
#include "sim/json.hh"
#include "workload/profiles.hh"
#include "workload/runner.hh"
#include "workload/traffic.hh"

namespace hypertee
{
namespace
{

bool
updating()
{
    return std::getenv("HT_UPDATE_GOLDEN") != nullptr;
}

/** One result bench: its binary in HT_BENCH_DIR and fixture stem. */
struct BenchRow
{
    const char *name;
    /// Its BenchDeterminism case, or nullptr if it takes no --jobs.
    const char *jobsTest;
};

void
PrintTo(const BenchRow &row, std::ostream *os)
{
    *os << row.name;
}

/**
 * The registry: one row per paper table, figure and ablation bench.
 *
 * Under the ASan/UBSan CI job these rows are also the bench-scale
 * memory checks. The range page-table operations write raw PTE slots
 * and the bitmap flips single bytes. The ownership table and physical
 * memory keep their pages in 2 MiB regions that are freed with their
 * last page, and the ownership table's page lists link PPNs across
 * regions, so a stale link or a cached pointer to a freed region
 * touches freed memory. EDESTROY and EWB churn (Table IV, Table VI),
 * Fig. 8a's EALLOC/EFREE sweep (about 660 ownership regions created
 * and freed at smoke scale) and the pool ablation's pass-through
 * pool, which refills from the OS on demand, reach them at bench
 * scale, not only in unit tests. The EMS scheduler holds raw pointers
 * into its ShardStats's stat maps, one per request class, and a
 * slot-to-position index into its live-enclave list. The fleet SLO
 * sweep exercises both, and Fig. 6's scripted clients share handles
 * by class name, so a dangling stat handle or a stale position shows
 * here.
 */
const BenchRow benchRows[] = {
    {"bench_table4_primitives", nullptr},
    {"bench_table5_area", nullptr},
    {"bench_table6_defense", nullptr},
    {"bench_fig6_slo", "Fig6Slo"},
    {"bench_fig7_ems_config", "Fig7EmsConfig"},
    {"bench_fig8a_alloc", "Fig8aAlloc"},
    {"bench_fig8b_memstream", "Fig8bMemstream"},
    {"bench_fig9_wolfssl_mm", "Fig9WolfsslMm"},
    {"bench_fig10_bitmap", "Fig10Bitmap"},
    {"bench_fig11_tlbflush", "Fig11TlbFlush"},
    {"bench_fig12_comm", "Fig12Comm"},
    {"bench_fleet_slo", "FleetSlo"},
    {"bench_ablation_pool", nullptr},
    {"bench_ablation_obfuscation", nullptr},
    {"bench_ablation_coherence", nullptr},
};

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    EXPECT_TRUE(out.good()) << "cannot write " << path;
}

struct BenchOutput
{
    std::string out;  ///< stdout
    std::string json; ///< --stats-json
};

/**
 * Run @p bench at `--smoke --seed=42` plus @p jobs. A missing binary
 * or a nonzero exit fails the test.
 */
void
runBench(const std::string &bench, const std::string &jobs,
         BenchOutput &result)
{
    const std::string bin = std::string(HT_BENCH_DIR) + "/" + bench;
    ASSERT_TRUE(std::filesystem::is_regular_file(bin))
        << bin << " is not built";
    std::string tag = jobs;
    std::replace(tag.begin(), tag.end(), ' ', '_');
    // ctest runs each case in its own process, two of them per
    // sharded bench, so the process id keeps their files apart.
    const std::string base = ::testing::TempDir() + bench + tag + "." +
                             std::to_string(::getpid());
    const std::string cmd = bin + " --smoke --seed=42 " + jobs +
                            " --stats-json=" + base + ".json > " + base +
                            ".out 2> " + base + ".err";
    ASSERT_EQ(std::system(cmd.c_str()), 0)
        << cmd << "\n" << readBytes(base + ".err");
    result.out = readBytes(base + ".out");
    result.json = readBytes(base + ".json");
    for (const char *ext : {".out", ".json", ".err"})
        std::filesystem::remove(base + ext);
}

/** Fail with the first differing bytes of @p what, if any. */
void
expectSameBytes(const std::string &expected, const std::string &actual,
                const std::string &what)
{
    if (expected == actual)
        return;
    const std::size_t at = std::size_t(
        std::mismatch(expected.begin(), expected.end(), actual.begin(),
                      actual.end())
            .first -
        expected.begin());
    const std::size_t from = at < 60 ? 0 : at - 60;
    ADD_FAILURE() << what << ": differs from byte " << at << " ("
                  << expected.size() << " bytes expected, "
                  << actual.size() << " read)\n  expected: "
                  << expected.substr(from, 120)
                  << "\n  actual:   " << actual.substr(from, 120);
}

class Bench : public ::testing::TestWithParam<BenchRow>
{
};

TEST_P(Bench, Smoke)
{
    const BenchRow &row = GetParam();
    BenchOutput first;
    ASSERT_NO_FATAL_FAILURE(runBench(row.name, "--jobs=1", first));

    const std::string fixture =
        std::string(HT_GOLDEN_DIR) + "/bench/" + row.name;
    if (updating()) {
        writeBytes(fixture + ".out", first.out);
        writeBytes(fixture + ".json", first.json);
    }
    const std::string hint =
        " (re-baseline with HT_UPDATE_GOLDEN=1 if the change is intended)";
    expectSameBytes(readBytes(fixture + ".out"), first.out,
                    "stdout vs " + fixture + ".out" + hint);
    expectSameBytes(readBytes(fixture + ".json"), first.json,
                    "stats JSON vs " + fixture + ".json" + hint);
}

INSTANTIATE_TEST_SUITE_P(
    Golden, Bench, ::testing::ValuesIn(benchRows),
    [](const ::testing::TestParamInfo<BenchRow> &row_info) {
        return std::string(row_info.param.name);
    });

/**
 * A sharded bench's output does not depend on its worker count. The
 * baseline is a --jobs=1 run of this case's own, not the fixture, so
 * the check holds while HT_UPDATE_GOLDEN rewrites the fixtures.
 */
class JobsInvariant : public ::testing::Test
{
  public:
    explicit JobsInvariant(const BenchRow &row) : row_(row) {}

    void
    TestBody() override
    {
        BenchOutput first;
        ASSERT_NO_FATAL_FAILURE(runBench(row_.name, "--jobs=1", first));
        // Both flag spellings of --jobs, and twice as many workers.
        for (const char *jobs : {"--jobs 4", "--jobs=4", "--jobs=8"}) {
            BenchOutput run;
            ASSERT_NO_FATAL_FAILURE(runBench(row_.name, jobs, run));
            expectSameBytes(first.out, run.out,
                            std::string("stdout at ") + jobs +
                                " vs --jobs=1");
            expectSameBytes(first.json, run.json,
                            std::string("stats JSON at ") + jobs +
                                " vs --jobs=1");
        }
    }

  private:
    BenchRow row_;
};

/** One BenchDeterminism case per sharded row, named by the row. */
const bool jobsTestsRegistered = [] {
    for (const BenchRow &row : benchRows) {
        if (row.jobsTest == nullptr)
            continue;
        ::testing::RegisterTest(
            "BenchDeterminism", row.jobsTest, nullptr, nullptr, __FILE__,
            __LINE__,
            [row]() -> JobsInvariant * { return new JobsInvariant(row); });
    }
    return true;
}();

/**
 * Every bench_* executable the build makes has a registry row, so
 * every result bench stays pinned. bench_micro is excluded: it times
 * the host with google-benchmark and prints no simulated result.
 */
TEST(Golden, EveryResultBenchHasARow)
{
    std::set<std::string> rows;
    for (const BenchRow &row : benchRows)
        rows.insert(row.name);
    namespace fs = std::filesystem;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(HT_BENCH_DIR)) {
        const std::string name = entry.path().filename().string();
        const bool executable = (entry.status().permissions() &
                                 fs::perms::owner_exec) != fs::perms::none;
        if (!entry.is_regular_file() || !executable ||
            name.rfind("bench_", 0) != 0 || name == "bench_micro")
            continue;
        EXPECT_EQ(rows.count(name), 1u)
            << name << " has no registry row; add one and record its "
            << "fixtures with HT_UPDATE_GOLDEN=1";
    }
}

using GoldenMap = std::map<std::string, std::uint64_t>;

/**
 * Compare @p actual against the fixture, or rewrite the fixture when
 * HT_UPDATE_GOLDEN is set. Missing and extra keys are failures too:
 * a renamed metric must be re-baselined consciously, not silently.
 */
void
checkGolden(const char *file, const GoldenMap &actual)
{
    const std::string path = std::string(HT_GOLDEN_DIR) + "/" + file;
    if (updating()) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        for (const auto &[key, value] : actual)
            out << key << " " << value << "\n";
        GTEST_SKIP() << "rewrote " << path;
    }
    GoldenMap expected;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing fixture " << path
                           << "; generate it with HT_UPDATE_GOLDEN=1";
    std::string key;
    std::uint64_t value;
    while (in >> key >> value)
        expected[key] = value;
    for (const auto &[name, pinned] : expected) {
        auto it = actual.find(name);
        if (it == actual.end()) {
            ADD_FAILURE() << "pinned metric no longer measured: " << name;
            continue;
        }
        EXPECT_EQ(it->second, pinned)
            << name << " drifted from the golden value; re-baseline "
            << "with HT_UPDATE_GOLDEN=1 if the change is intended";
    }
    for (const auto &[name, measured] : actual) {
        EXPECT_TRUE(expected.count(name) != 0)
            << "unpinned new metric " << name << " = " << measured
            << "; re-baseline with HT_UPDATE_GOLDEN=1";
    }
}

/**
 * Figure 10 scenario at a reduced instruction budget: Host-Native vs
 * Host-Bitmap runtime and TLB misses for a quiet profile
 * (perlbench_r) and the TLB-stressing outlier (xalancbmk_r). The
 * bench's `--smoke` run reaches both at a fiftieth of their budget;
 * this pins them at 3M instructions, with their load and store counts.
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

/** Same kind, same numbers and strings, same members in order. */
bool
sameJson(const JsonValue &a, const JsonValue &b)
{
    if (a.kind() != b.kind() || a.boolean() != b.boolean() ||
        a.number() != b.number() || a.string() != b.string() ||
        a.array().size() != b.array().size() ||
        a.members().size() != b.members().size())
        return false;
    for (std::size_t i = 0; i < a.array().size(); ++i)
        if (!sameJson(a.array()[i], b.array()[i]))
            return false;
    for (std::size_t i = 0; i < a.members().size(); ++i)
        if (a.members()[i].first != b.members()[i].first ||
            !sameJson(a.members()[i].second, b.members()[i].second))
            return false;
    return true;
}

/**
 * The fleet SLO sweep, run in-process from the library with the
 * bench's smoke scenarios, exports every scalar and distribution of
 * every request class with the value pinned in bench_fleet_slo.json.
 * The bench's fixture also holds the zero `<op>_rejected` scalars its
 * table lookups create, so this is a containment check: a library
 * change that the bench binary would not see shows here.
 */
TEST(Golden, FleetSloStats)
{
    logging_detail::setVerbose(false);
    ShardStats merged;
    for (const FleetScenario &scenario :
         fleetSloScenarios(/*smoke=*/true, /*seed=*/42)) {
        ShardStats stats;
        FleetTrafficSim sim(scenario.params, scenario.name, stats);
        sim.run();
        merged.merge(stats);
    }
    std::ostringstream text;
    dumpStatsJson(text, {{"fleet_slo", &merged}});
    const std::string fixture =
        std::string(HT_GOLDEN_DIR) + "/bench/bench_fleet_slo.json";
    const std::optional<JsonValue> actual = JsonValue::parse(text.str());
    const std::optional<JsonValue> pinned =
        JsonValue::parse(readBytes(fixture));
    ASSERT_TRUE(actual.has_value()) << "export does not parse";
    ASSERT_TRUE(pinned.has_value()) << fixture << " does not parse";
    const JsonValue *got = actual->find("fleet_slo");
    const JsonValue *want = pinned->find("fleet_slo");
    ASSERT_TRUE(got != nullptr && want != nullptr);

    std::size_t checked = 0;
    for (const char *section : {"scalars", "distributions"}) {
        const JsonValue *got_section = got->find(section);
        const JsonValue *want_section = want->find(section);
        ASSERT_TRUE(got_section != nullptr && want_section != nullptr)
            << "no " << section << " section";
        for (const auto &[name, value] : got_section->members()) {
            const JsonValue *pinned_value = want_section->find(name);
            if (pinned_value == nullptr) {
                ADD_FAILURE() << name << " is exported but not pinned in "
                              << fixture;
                continue;
            }
            EXPECT_TRUE(sameJson(*pinned_value, value))
                << name << " differs from " << fixture;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u) << "the sweep exported no stats";
}

} // namespace
} // namespace hypertee
