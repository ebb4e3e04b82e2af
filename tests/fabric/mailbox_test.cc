/** @file Mailbox queue and binding tests. */

#include <gtest/gtest.h>

#include <deque>

#include "fabric/mailbox.hh"

namespace hypertee
{
namespace
{

PrimitiveRequest
makeReq(std::uint64_t id)
{
    PrimitiveRequest req;
    req.reqId = id;
    req.op = PrimitiveOp::EAlloc;
    return req;
}

PrimitiveResponse
makeResp(std::uint64_t id)
{
    PrimitiveResponse resp;
    resp.reqId = id;
    return resp;
}

TEST(Mailbox, RequestsDrainInFifoOrder)
{
    Mailbox mb;
    mb.pushRequest(makeReq(1));
    mb.pushRequest(makeReq(2));
    PrimitiveRequest req;
    ASSERT_TRUE(mb.popRequest(req));
    EXPECT_EQ(req.reqId, 1u);
    ASSERT_TRUE(mb.popRequest(req));
    EXPECT_EQ(req.reqId, 2u);
    EXPECT_FALSE(mb.popRequest(req));
}

TEST(Mailbox, RequestsStayInFifoOrderAsTheRingWrapsAndGrows)
{
    // The ring grows 1 -> 2 -> 4 -> 6 slots, the last step clipped to
    // the capacity, and most growths find it wrapped. A deque is the
    // reference for order, depth and rejections.
    constexpr std::size_t capacity = 6;
    Mailbox mb(capacity);
    std::deque<std::uint64_t> model;
    std::uint64_t rejected = 0, next_id = 1, lcg = 12345;
    for (int step = 0; step < 400; ++step) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        // Push-heavy in the first half, pop-heavy in the second.
        const bool push = (lcg >> 33) % 8 < (step < 200 ? 5u : 3u);
        if (push) {
            const bool full = model.size() == capacity;
            EXPECT_EQ(mb.pushRequest(makeReq(next_id)), !full);
            if (full)
                ++rejected;
            else
                model.push_back(next_id);
            ++next_id;
        } else {
            PrimitiveRequest req;
            ASSERT_EQ(mb.popRequest(req), !model.empty());
            if (!model.empty()) {
                EXPECT_EQ(req.reqId, model.front()) << "step " << step;
                model.pop_front();
            }
        }
        ASSERT_EQ(mb.requestDepth(), model.size());
    }
    EXPECT_EQ(mb.requestsRejected(), rejected);
    EXPECT_GT(rejected, 0u);
}

TEST(Mailbox, CapacityBoundsRequests)
{
    Mailbox mb(2);
    EXPECT_TRUE(mb.pushRequest(makeReq(1)));
    EXPECT_TRUE(mb.pushRequest(makeReq(2)));
    EXPECT_FALSE(mb.pushRequest(makeReq(3)));
    EXPECT_EQ(mb.requestsRejected(), 1u);
}

TEST(Mailbox, DoorbellFiresOnEachRequest)
{
    Mailbox mb;
    int rings = 0;
    mb.setDoorbell([&] { ++rings; });
    mb.pushRequest(makeReq(1));
    mb.pushRequest(makeReq(2));
    EXPECT_EQ(rings, 2);
}

TEST(Mailbox, ResponseBindingIsExclusive)
{
    // The Section III-C property: a request can only retrieve its
    // own response.
    Mailbox mb;
    mb.pushResponse(makeResp(10));
    mb.pushResponse(makeResp(11));

    PrimitiveResponse resp;
    EXPECT_FALSE(mb.pollResponse(12, resp)) << "no such response";
    EXPECT_TRUE(mb.pollResponse(11, resp));
    EXPECT_EQ(resp.reqId, 11u);
    EXPECT_FALSE(mb.pollResponse(11, resp)) << "consumed";
    EXPECT_TRUE(mb.pollResponse(10, resp));
}

TEST(Mailbox, PollingLeavesOtherResponsesIntact)
{
    Mailbox mb;
    mb.pushResponse(makeResp(1));
    mb.pushResponse(makeResp(2));
    PrimitiveResponse resp;
    mb.pollResponse(1, resp);
    EXPECT_EQ(mb.responseDepth(), 1u);
}

TEST(Mailbox, PacketsMoveThroughUncopied)
{
    // An EADD page crosses the mailbox as the buffer it was built in.
    // Word lists live inside the packet, so they compare by value.
    Mailbox mb;
    PrimitiveRequest req = makeReq(1);
    req.args = {7, 8, 9};
    req.payload = Bytes(pageSize, 0x42);
    const std::uint8_t *page = req.payload.data();
    ASSERT_TRUE(mb.pushRequest(std::move(req)));
    PrimitiveRequest popped;
    ASSERT_TRUE(mb.popRequest(popped));
    EXPECT_EQ(popped.reqId, 1u);
    EXPECT_EQ(popped.payload.data(), page);
    EXPECT_EQ(popped.payload, Bytes(pageSize, 0x42));
    EXPECT_EQ(popped.args, (WordList{7, 8, 9}));

    PrimitiveResponse resp = makeResp(1);
    resp.results = {1, 2, 3, 4, 5}; // past the inline words
    resp.payload = Bytes(96, 0x17);
    const std::uint8_t *quote = resp.payload.data();
    ASSERT_TRUE(mb.pushResponse(std::move(resp)));
    PrimitiveResponse polled;
    ASSERT_TRUE(mb.pollResponse(1, polled));
    EXPECT_EQ(polled.payload.data(), quote);
    EXPECT_EQ(polled.payload, Bytes(96, 0x17));
    EXPECT_EQ(polled.results, (WordList{1, 2, 3, 4, 5}));
}

TEST(Mailbox, ResponsesBindByIdAtCapacity)
{
    constexpr std::uint64_t capacity = 16;
    Mailbox mb(capacity);
    // Pushed in one permutation of the ids, polled in another.
    auto id_at = [](std::uint64_t k, std::uint64_t stride) {
        return 1000 + (k * stride) % capacity;
    };
    for (std::uint64_t k = 0; k < capacity; ++k) {
        PrimitiveResponse resp = makeResp(id_at(k, 5));
        resp.results = {id_at(k, 5) * 3};
        ASSERT_TRUE(mb.pushResponse(std::move(resp)));
    }
    EXPECT_EQ(mb.responseDepth(), capacity);
    EXPECT_FALSE(mb.pushResponse(makeResp(2000))) << "store is full";
    EXPECT_EQ(mb.responseDepth(), capacity);

    PrimitiveResponse resp;
    EXPECT_FALSE(mb.pollResponse(2000, resp)) << "rejected, not stored";
    for (std::uint64_t k = 0; k < capacity; ++k) {
        const std::uint64_t id = id_at(k, 11);
        ASSERT_TRUE(mb.pollResponse(id, resp)) << id;
        EXPECT_EQ(resp.reqId, id);
        EXPECT_EQ(resp.results, (WordList{id * 3}));
        EXPECT_FALSE(mb.pollResponse(id, resp)) << id << " consumed";
        EXPECT_FALSE(mb.pollResponse(999, resp)) << "foreign id";
        EXPECT_EQ(mb.responseDepth(), capacity - k - 1);
    }
}

TEST(MailboxDeath, DuplicateResponseIdPanics)
{
    Mailbox mb;
    mb.pushResponse(makeResp(7));
    EXPECT_DEATH(mb.pushResponse(makeResp(7)), "duplicate");
}

TEST(PrimitiveTable, PrivilegeMatchesTableII)
{
    EXPECT_EQ(requiredPrivilege(PrimitiveOp::ECreate),
              PrivMode::Supervisor);
    EXPECT_EQ(requiredPrivilege(PrimitiveOp::EAdd),
              PrivMode::Supervisor);
    EXPECT_EQ(requiredPrivilege(PrimitiveOp::EWb), PrivMode::Supervisor);
    EXPECT_EQ(requiredPrivilege(PrimitiveOp::EMeas),
              PrivMode::Supervisor);
    EXPECT_EQ(requiredPrivilege(PrimitiveOp::EAlloc), PrivMode::User);
    EXPECT_EQ(requiredPrivilege(PrimitiveOp::EShmGet), PrivMode::User);
    EXPECT_EQ(requiredPrivilege(PrimitiveOp::EAttest), PrivMode::User);
    EXPECT_EQ(requiredPrivilege(PrimitiveOp::EExit), PrivMode::User);
}

TEST(PrimitiveTable, NamesAreStable)
{
    EXPECT_STREQ(primitiveName(PrimitiveOp::ECreate), "ECREATE");
    EXPECT_STREQ(primitiveName(PrimitiveOp::EShmDes), "ESHMDES");
    EXPECT_STREQ(primStatusName(PrimStatus::NotAuthorized),
                 "NotAuthorized");
}

} // namespace
} // namespace hypertee
