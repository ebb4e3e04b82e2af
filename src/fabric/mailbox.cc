#include "fabric/mailbox.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace hypertee
{

Mailbox::Mailbox(std::size_t capacity) : _capacity(capacity)
{
    fatalIf(capacity == 0, "mailbox needs capacity");
}

bool
Mailbox::pushRequest(PrimitiveRequest req)
{
    if (_requestCount >= _capacity) {
        ++_rejected;
        HT_TRACE_INSTANT1(TraceCategory::Mailbox, "mailbox.reject",
                          TraceSink::global().now(), "reqId", req.reqId);
        return false;
    }
    if (_requestCount == _requests.size())
        growRequests();
    const std::uint64_t req_id = req.reqId;
    std::size_t tail = _requestHead + _requestCount++;
    if (tail >= _requests.size())
        tail -= _requests.size();
    _requests[tail] = std::move(req);
    HT_TRACE_INSTANT1(TraceCategory::Mailbox, "mailbox.push",
                      TraceSink::global().now(), "reqId", req_id);
    if (_doorbell) {
        HT_TRACE_INSTANT(TraceCategory::Mailbox, "mailbox.doorbell",
                         TraceSink::global().now());
        _doorbell();
    }
    return true;
}

bool
Mailbox::popRequest(PrimitiveRequest &req)
{
    if (_requestCount == 0)
        return false;
    req = std::move(_requests[_requestHead]);
    if (++_requestHead == _requests.size())
        _requestHead = 0;
    --_requestCount;
    HT_TRACE_INSTANT1(TraceCategory::Mailbox, "mailbox.pop",
                      TraceSink::global().now(), "reqId", req.reqId);
    return true;
}

bool
Mailbox::pushResponse(PrimitiveResponse resp)
{
    if (_responses.size() >= _capacity)
        return false;
    const std::uint64_t req_id = resp.reqId;
    for (const PrimitiveResponse &held : _responses)
        panicIf(held.reqId == req_id, "duplicate response for request ",
                req_id);
    _responses.push_back(std::move(resp));
    HT_TRACE_INSTANT1(TraceCategory::Mailbox, "mailbox.response",
                      TraceSink::global().now(), "reqId", req_id);
    return true;
}

bool
Mailbox::pollResponse(std::uint64_t req_id, PrimitiveResponse &resp)
{
    std::size_t i = 0;
    while (i < _responses.size() && _responses[i].reqId != req_id)
        ++i;
    if (i == _responses.size())
        return false;
    resp = std::move(_responses[i]);
    // The last response fills the hole; the store is unordered.
    if (i != _responses.size() - 1)
        _responses[i] = std::move(_responses.back());
    _responses.pop_back();
    HT_TRACE_INSTANT1(TraceCategory::Mailbox, "mailbox.poll",
                      TraceSink::global().now(), "reqId", req_id);
    return true;
}

void
Mailbox::growRequests()
{
    // Unwrapped into twice the slots, never past the capacity.
    std::vector<PrimitiveRequest> grown(
        std::min(_capacity, std::max<std::size_t>(1, 2 * _requests.size())));
    for (std::size_t i = 0; i < _requestCount; ++i)
        grown[i] = std::move(
            _requests[(_requestHead + i) % _requests.size()]);
    _requests = std::move(grown);
    _requestHead = 0;
}

void
Mailbox::setDoorbell(std::function<void()> doorbell)
{
    _doorbell = std::move(doorbell);
}

} // namespace hypertee
