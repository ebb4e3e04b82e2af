/**
 * @file
 * The observability smoke check, registered as the ctest
 * bench_observability_smoke. One `bench_table4_primitives --smoke`
 * run with --trace and --stats-json must exit 0 and write:
 *   - a Chrome trace in which the EMCALL spans are complete ("X")
 *     events with a positive duration, and no event has a begin or
 *     end ("B"/"E") phase;
 *   - a stats export whose `primitives` group carries the five
 *     Table IV latency distributions, each with samples, and in which
 *     no group has an `averages` member.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <unistd.h>

#include "sim/json.hh"

namespace hypertee
{
namespace
{

std::optional<JsonValue>
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    return JsonValue::parse(body.str());
}

TEST(ObservabilitySmoke, Table4TraceAndStats)
{
    const std::string base = ::testing::TempDir() + "observability." +
                             std::to_string(::getpid());
    const std::string cmd = std::string(HT_BENCH_DIR) +
                            "/bench_table4_primitives --smoke --trace=" +
                            base + ".trace.json --stats-json=" + base +
                            ".stats.json > " + base + ".out";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::optional<JsonValue> trace = parseFile(base + ".trace.json");
    std::optional<JsonValue> stats = parseFile(base + ".stats.json");
    for (const char *ext : {".trace.json", ".stats.json", ".out"})
        std::filesystem::remove(base + ext);
    ASSERT_TRUE(trace) << "trace is not valid JSON";
    ASSERT_TRUE(stats) << "stats export is not valid JSON";

    const JsonValue *events = trace->find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    std::size_t emcall_spans = 0, begin_end = 0;
    for (const JsonValue &e : events->array()) {
        const std::string ph = e.stringAt("ph");
        begin_end += ph == "B" || ph == "E";
        emcall_spans += e.stringAt("name").rfind("EMCALL", 0) == 0 &&
                        ph == "X" && e.numberAt("dur") > 0;
    }
    EXPECT_GT(emcall_spans, 0u) << "no EMCALL complete span with dur > 0";
    EXPECT_EQ(begin_end, 0u) << "unexpected begin/end trace phases";

    const JsonValue *group = stats->find("primitives");
    const JsonValue *dists = group ? group->find("distributions") : nullptr;
    ASSERT_NE(dists, nullptr) << "no primitives distributions";
    for (const char *prim :
         {"ecreate", "eadd", "emeas", "eenter_eexit", "edestroy"}) {
        const JsonValue *d = dists->find(std::string(prim) + "_latency");
        ASSERT_NE(d, nullptr) << prim;
        EXPECT_GT(d->numberAt("count"), 0) << prim;
    }
    for (const auto &[name, g] : stats->members())
        EXPECT_EQ(g.find("averages"), nullptr) << name;
}

} // namespace
} // namespace hypertee
