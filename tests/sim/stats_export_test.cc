/** @file Unit tests for the JSON stats export. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/shard.hh"
#include "sim/stats_export.hh"

namespace hypertee
{
namespace
{

TEST(JsonChecker, AcceptsWellFormedJson)
{
    EXPECT_TRUE(jsonLooksValid("{}"));
    EXPECT_TRUE(jsonLooksValid("[1, 2.5, -3e-2, \"s\", true, null]"));
    EXPECT_TRUE(jsonLooksValid("{\"a\": {\"b\": [\"\\u0041\\n\"]}}"));
}

TEST(JsonChecker, RejectsMalformedJson)
{
    EXPECT_FALSE(jsonLooksValid(""));
    EXPECT_FALSE(jsonLooksValid("{"));
    EXPECT_FALSE(jsonLooksValid("{\"a\": 1,}"));
    EXPECT_FALSE(jsonLooksValid("{\"a\" 1}"));
    EXPECT_FALSE(jsonLooksValid("[1 2]"));
    EXPECT_FALSE(jsonLooksValid("{} trailing"));
    EXPECT_FALSE(jsonLooksValid("nul"));
}

/** One group's --stats-json document. */
std::string
groupJson(const std::string &name, const ShardStats &stats)
{
    std::ostringstream os;
    dumpStatsJson(os, {{name, &stats}});
    return os.str();
}

TEST(ShardStatsJson, RoundTripsThroughValidator)
{
    ShardStats g;
    g.scalar("issued").set(42);
    Distribution &lat = g.distribution("latency");
    for (int i = 1; i <= 100; ++i)
        lat.sample(i * 1000.0);

    std::string json = groupJson("ems", g);
    ASSERT_TRUE(jsonLooksValid(json)) << json;

    EXPECT_NE(json.find("\"name\""), std::string::npos);
    EXPECT_NE(json.find("\"ems\""), std::string::npos);
    EXPECT_NE(json.find("\"issued\""), std::string::npos);
    EXPECT_NE(json.find("42"), std::string::npos);
    EXPECT_NE(json.find("\"mean\""), std::string::npos);
    // Distribution quantiles: p50 = 50000, p90 = 90000, p99 = 99000.
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("50000"), std::string::npos);
    EXPECT_NE(json.find("\"p90\""), std::string::npos);
    EXPECT_NE(json.find("90000"), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("99000"), std::string::npos);
    // With only 100 samples the p999 collapses to the max (100000).
    EXPECT_NE(json.find("\"p999\""), std::string::npos);
    EXPECT_NE(json.find("100000"), std::string::npos);
    EXPECT_NE(json.find("\"min\""), std::string::npos);
    EXPECT_NE(json.find("\"max\""), std::string::npos);
}

TEST(ShardStatsJson, EmptyDistributionOmitsQuantiles)
{
    ShardStats g;
    g.distribution("unused");

    std::string json = groupJson("idle", g);
    ASSERT_TRUE(jsonLooksValid(json)) << json;
    EXPECT_NE(json.find("\"count\""), std::string::npos);
    EXPECT_EQ(json.find("\"p50\""), std::string::npos);
    EXPECT_EQ(json.find("\"p99\""), std::string::npos);
    EXPECT_EQ(json.find("\"p999\""), std::string::npos);
}

TEST(ShardStatsJson, EmptyGroupIsStillValid)
{
    std::string json = groupJson("empty", ShardStats{});
    EXPECT_TRUE(jsonLooksValid(json)) << json;
}

TEST(DumpStatsJson, MultipleGroupsKeyedByName)
{
    ShardStats a, b;
    a.scalar("x").set(1);
    b.scalar("y").set(2);

    std::ostringstream os;
    dumpStatsJson(os, {{"alpha", &a}, {"beta", &b}});
    std::string json = os.str();
    ASSERT_TRUE(jsonLooksValid(json)) << json;
    EXPECT_NE(json.find("\"alpha\""), std::string::npos);
    EXPECT_NE(json.find("\"beta\""), std::string::npos);
    EXPECT_NE(json.find("\"x\""), std::string::npos);
    EXPECT_NE(json.find("\"y\""), std::string::npos);
}

TEST(DumpStatsJson, ExactBytes)
{
    // Pins the export byte for byte: member order, sorted stat names,
    // integral doubles as integers, %.17g otherwise, and an empty
    // distribution carrying only its count.
    ShardStats g;
    g.scalar("ops").set(3);
    g.scalar("share").set(1.0 / 3.0);
    Distribution &lat = g.distribution("lat");
    for (int i = 1; i <= 100; ++i)
        lat.sample(i * 0.1);
    g.distribution("idle");

    EXPECT_EQ(groupJson("pinned", g),
              "{\"pinned\":{\"name\":\"pinned\","
              "\"scalars\":{\"ops\":3,\"share\":0.33333333333333331},"
              "\"distributions\":{\"idle\":{\"count\":0},"
              "\"lat\":{\"count\":100,\"min\":0.10000000000000001,"
              "\"mean\":5.0499999999999998,\"p50\":5,\"p90\":9,"
              "\"p99\":9.9000000000000004,\"p999\":10,\"max\":10}}}}\n");
}

} // namespace
} // namespace hypertee
