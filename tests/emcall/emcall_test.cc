/** @file EMCall gate tests (privilege, binding, obfuscation, trace). */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "emcall/emcall.hh"
#include "sim/trace.hh"

namespace hypertee
{
namespace
{

struct GateTest : ::testing::Test
{
    SystemParams
    params()
    {
        SystemParams p;
        p.csMemSize = 128ULL * 1024 * 1024;
        p.csCoreCount = 1;
        return p;
    }

    HyperTeeSystem sys{params()};
};

TEST_F(GateTest, AcceptsMatchingPrivilege)
{
    InvokeResult r = sys.emCall(0).invoke(
        PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 64});
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.response.status, PrimStatus::Ok);
}

TEST_F(GateTest, BlocksAllCrossPrivilegeCombos)
{
    // User-mode calls of OS primitives.
    for (PrimitiveOp op : {PrimitiveOp::ECreate, PrimitiveOp::EAdd,
                           PrimitiveOp::EWb, PrimitiveOp::EMeas,
                           PrimitiveOp::EDestroy}) {
        InvokeResult r =
            sys.emCall(0).invoke(op, PrivMode::User, {1});
        EXPECT_FALSE(r.accepted) << primitiveName(op);
    }
    // Supervisor-mode calls of user primitives.
    for (PrimitiveOp op : {PrimitiveOp::EAlloc, PrimitiveOp::EShmGet,
                           PrimitiveOp::EAttest}) {
        InvokeResult r =
            sys.emCall(0).invoke(op, PrivMode::Supervisor, {1});
        EXPECT_FALSE(r.accepted) << primitiveName(op);
    }
    EXPECT_EQ(sys.emCall(0).blockedCrossPrivilege(), 8u);
}

TEST_F(GateTest, MachineModeBypassesForFirmwarePaths)
{
    // EMCall itself (machine mode) may invoke any primitive, e.g.
    // the page-fault -> EALLOC path.
    InvokeResult r = sys.emCall(0).invoke(
        PrimitiveOp::ECreate, PrivMode::Machine, {4, 8, 64});
    EXPECT_TRUE(r.accepted);
}

TEST_F(GateTest, LatencyIncludesGateAndServiceTime)
{
    InvokeResult r = sys.emCall(0).invoke(
        PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 64});
    // Must exceed the EMS-side service time alone: the gate, the
    // fabric hops, and polling all add on top.
    EXPECT_GT(r.latency, r.response.completedAt);
}

TEST_F(GateTest, ObfuscationJitterVariesLatency)
{
    std::set<Tick> latencies;
    for (int i = 0; i < 10; ++i) {
        InvokeResult r = sys.emCall(0).invoke(
            PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 64});
        latencies.insert(r.latency -
                         r.response.completedAt); // strip service
    }
    EXPECT_GT(latencies.size(), 5u)
        << "response polling adds randomized jitter";
}

TEST_F(GateTest, DisablingObfuscationStabilizesLatency)
{
    sys.emCall(0).setObfuscation(false);
    std::set<Tick> latencies;
    for (int i = 0; i < 10; ++i) {
        InvokeResult r = sys.emCall(0).invoke(
            PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 64});
        latencies.insert(r.latency - r.response.completedAt);
    }
    EXPECT_EQ(latencies.size(), 1u);
}

TEST_F(GateTest, ExceptionRoutingMatchesSection3B)
{
    EXPECT_EQ(EmCall::route(ExcCause::PageFault), ExcRoute::ToEms);
    EXPECT_EQ(EmCall::route(ExcCause::MisalignedAccess),
              ExcRoute::ToEms);
    EXPECT_EQ(EmCall::route(ExcCause::IllegalInstruction),
              ExcRoute::ToCsOs);
    EXPECT_EQ(EmCall::route(ExcCause::TimerInterrupt),
              ExcRoute::ToCsOs);
    EXPECT_EQ(EmCall::route(ExcCause::ExternalInterrupt),
              ExcRoute::ToCsOs);
}

TEST_F(GateTest, TracksIssuedRequests)
{
    sys.emCall(0).invoke(PrimitiveOp::ECreate, PrivMode::Supervisor,
                         {4, 8, 64});
    sys.emCall(0).invoke(PrimitiveOp::ECreate, PrivMode::User,
                         {4, 8, 64}); // blocked, not issued
    EXPECT_EQ(sys.emCall(0).requestsIssued(), 1u);
}

/** Records into the global trace sink for one test. */
struct GateTraceTest : GateTest
{
    GateTraceTest() { TraceSink::global().setEnabled(true); }
    ~GateTraceTest() override
    {
        TraceSink::global().setEnabled(false);
        TraceSink::global().clear();
    }

    static std::vector<TraceEvent>
    spansOf(TraceCategory cat)
    {
        std::vector<TraceEvent> out;
        for (const TraceEvent &ev : TraceSink::global().events())
            if (ev.cat == cat && ev.phase == 'X')
                out.push_back(ev);
        return out;
    }
};

TEST_F(GateTraceTest, RoundTripIsOneSpanLastingTheLatency)
{
    InvokeResult r = sys.emCall(0).invoke(
        PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 64});
    ASSERT_TRUE(r.accepted);
    auto gate = spansOf(TraceCategory::EmCall);
    ASSERT_EQ(gate.size(), 1u);
    EXPECT_EQ(gate[0].name, "EMCALL ECREATE");
    EXPECT_EQ(gate[0].dur, r.latency);
    ASSERT_EQ(gate[0].args.size(), 1u);
    EXPECT_EQ(gate[0].args[0].first, "accepted");
    EXPECT_EQ(gate[0].args[0].second, 1.0);

    // The EMS handler span carries the request id and the status on
    // one event, and nests inside the round trip.
    auto ems = spansOf(TraceCategory::Ems);
    ASSERT_EQ(ems.size(), 1u);
    EXPECT_EQ(ems[0].dur, r.response.completedAt);
    ASSERT_EQ(ems[0].args.size(), 2u);
    EXPECT_EQ(ems[0].args[0].first, "reqId");
    EXPECT_EQ(ems[0].args[1].first, "status");
    EXPECT_GE(ems[0].ts, gate[0].ts);
    EXPECT_LE(ems[0].ts + ems[0].dur, gate[0].ts + gate[0].dur);
}

TEST_F(GateTraceTest, BlockedCallIsOneRejectedSpan)
{
    InvokeResult r = sys.emCall(0).invoke(
        PrimitiveOp::ECreate, PrivMode::User, {4, 8, 64});
    ASSERT_FALSE(r.accepted);
    auto gate = spansOf(TraceCategory::EmCall);
    ASSERT_EQ(gate.size(), 1u);
    EXPECT_EQ(gate[0].dur, r.latency);
    ASSERT_EQ(gate[0].args.size(), 1u);
    EXPECT_EQ(gate[0].args[0].second, 0.0); // accepted = 0
    EXPECT_TRUE(spansOf(TraceCategory::Ems).empty());
}

} // namespace
} // namespace hypertee
