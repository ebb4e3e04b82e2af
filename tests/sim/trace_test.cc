/** @file Unit tests for the trace sink and the HT_TRACE macros. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats_export.hh"
#include "sim/trace.hh"

namespace hypertee
{
namespace
{

TEST(TraceSink, DisabledByDefaultRecordsNothing)
{
    TraceSink sink;
    EXPECT_FALSE(sink.enabled());
    sink.span(TraceCategory::EmCall, "span", 0, 10);
    sink.instant(TraceCategory::Mailbox, "evt", 5);
    EXPECT_EQ(sink.eventCount(), 0u);
}

TEST(TraceSink, SpanIsOneCompleteEventCarryingItsArgs)
{
    TraceSink sink;
    sink.setEnabled(true);
    sink.span(TraceCategory::Ems, "EMS ECREATE", 100, 900);
    sink.arg("reqId", 7);
    sink.arg("status", 0);

    ASSERT_EQ(sink.eventCount(), 1u);
    const TraceEvent ev = sink.events()[0];
    EXPECT_EQ(ev.phase, 'X');
    EXPECT_EQ(ev.name, "EMS ECREATE");
    EXPECT_EQ(ev.ts, Tick(100));
    EXPECT_EQ(ev.dur, Tick(800));
    ASSERT_EQ(ev.args.size(), 2u);
    EXPECT_EQ(ev.args[0].first, "reqId");
    EXPECT_EQ(ev.args[1].first, "status");
}

TEST(TraceSink, RecordsEventsInOrder)
{
    TraceSink sink;
    sink.setEnabled(true);
    sink.instant(TraceCategory::Mailbox, "mailbox.push", 150);
    sink.span(TraceCategory::EmCall, "EMCALL ECREATE", 100, 900);

    ASSERT_EQ(sink.eventCount(), 2u);
    const auto ev = sink.events();
    EXPECT_EQ(ev[0].phase, 'i');
    EXPECT_EQ(ev[0].cat, TraceCategory::Mailbox);
    EXPECT_EQ(ev[1].phase, 'X');
    EXPECT_EQ(ev[1].ts, Tick(100));
}

TEST(TraceSink, DisabledCategoryIsSkipped)
{
    TraceSink sink;
    sink.setEnabled(true);
    // Mmu defaults to off (high volume).
    EXPECT_FALSE(sink.categoryEnabled(TraceCategory::Mmu));
    sink.instant(TraceCategory::Mmu, "mmu.tlbMiss", 1);
    sink.span(TraceCategory::Mmu, "mmu.walk", 1, 5);
    EXPECT_EQ(sink.eventCount(), 0u);

    sink.setCategoryEnabled(TraceCategory::Mmu, true);
    sink.instant(TraceCategory::Mmu, "mmu.tlbMiss", 2);
    EXPECT_EQ(sink.eventCount(), 1u);
}

TEST(TraceSink, EnableCategoriesParsesList)
{
    TraceSink sink;
    EXPECT_TRUE(sink.enableCategories("mmu,tlb"));
    EXPECT_TRUE(sink.categoryEnabled(TraceCategory::Mmu));
    EXPECT_TRUE(sink.categoryEnabled(TraceCategory::Tlb));
    EXPECT_FALSE(sink.categoryEnabled(TraceCategory::Queue));

    EXPECT_TRUE(sink.enableCategories("all"));
    EXPECT_TRUE(sink.categoryEnabled(TraceCategory::Queue));

    EXPECT_FALSE(sink.enableCategories("nonsense"));
}

TEST(TraceSink, TimelineCursorIsMonotonic)
{
    TraceSink sink;
    EXPECT_EQ(sink.now(), Tick(0));
    sink.advanceTo(500);
    EXPECT_EQ(sink.now(), Tick(500));
    sink.advanceTo(100); // backwards: ignored
    EXPECT_EQ(sink.now(), Tick(500));
}

TEST(TraceSink, CapacityCapCountsDrops)
{
    TraceSink sink;
    sink.setEnabled(true);
    sink.setCapacity(2);
    sink.instant(TraceCategory::EmCall, "a", 1);
    sink.instant(TraceCategory::EmCall, "b", 2);
    sink.instant(TraceCategory::EmCall, "c", 3);
    EXPECT_EQ(sink.eventCount(), 2u);
    EXPECT_EQ(sink.dropped(), 1u);
    // arg() must not touch a dropped event.
    sink.arg("key", 1.0);
    EXPECT_TRUE(sink.events().back().args.empty());
}

TEST(TraceSink, WriteJsonIsValidAndComplete)
{
    TraceSink sink;
    sink.setEnabled(true);
    sink.span(TraceCategory::Ems, "EMS \"ECREATE\"", 1'000'000,
              3'500'000);
    sink.arg("reqId", 7);
    sink.instant(TraceCategory::Mailbox, "mailbox.push", 2'000'000);

    std::ostringstream os;
    sink.writeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(jsonLooksValid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // 1e6 ticks (ps) = 1 us; the span lasts 2.5 us, instants no time.
    EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":1,\"dur\":2.5"),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\",\"ts\":2,\"pid\""),
              std::string::npos);
    // Quotes in the span name must be escaped.
    EXPECT_NE(json.find("EMS \\\"ECREATE\\\""), std::string::npos);
    EXPECT_NE(json.find("\"reqId\""), std::string::npos);
}

TEST(TraceSink, ClearResetsEverything)
{
    TraceSink sink;
    sink.setEnabled(true);
    sink.setCapacity(1);
    sink.instant(TraceCategory::EmCall, "a", 10);
    sink.instant(TraceCategory::EmCall, "b", 20);
    sink.advanceTo(99);
    sink.clear();
    EXPECT_EQ(sink.eventCount(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_EQ(sink.now(), Tick(0));
    EXPECT_TRUE(sink.enabled()) << "clear keeps configuration";
}

TEST(TraceMacros, NoOpWhenGlobalSinkDisabled)
{
    auto &sink = TraceSink::global();
    sink.clear();
    sink.setEnabled(false);
    HT_TRACE_INSTANT(TraceCategory::EmCall, "evt", 0);
    HT_TRACE_INSTANT1(TraceCategory::Mailbox, "evt", 1, "k", 2);
    sink.span(TraceCategory::EmCall, "span", 0, 3);
    EXPECT_EQ(sink.eventCount(), 0u);
}

TEST(TraceMacros, RecordIntoGlobalSinkWhenEnabled)
{
    auto &sink = TraceSink::global();
    sink.clear();
    sink.setEnabled(true);
    HT_TRACE_INSTANT1(TraceCategory::Mailbox, "mailbox.push",
                      Tick(42), "reqId", 9);
    ASSERT_EQ(sink.eventCount(), 1u);
    EXPECT_EQ(sink.events()[0].name, "mailbox.push");
    ASSERT_EQ(sink.events()[0].args.size(), 1u);
    EXPECT_EQ(sink.events()[0].args[0].first, "reqId");
    EXPECT_DOUBLE_EQ(sink.events()[0].args[0].second, 9.0);
    sink.setEnabled(false);
    sink.clear();
}

TEST(TraceCategoryNames, RoundTrip)
{
    EXPECT_STREQ(traceCategoryName(TraceCategory::EmCall), "emcall");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Mailbox),
                 "mailbox");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Queue), "queue");
}

} // namespace
} // namespace hypertee
