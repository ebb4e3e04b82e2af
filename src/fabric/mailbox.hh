/**
 * @file
 * The dedicated mailbox inside iHub (Section III-C, Figure 3).
 *
 * Two bounded queues: requests (CS -> EMS) and responses (EMS -> CS).
 * Requests are enqueued only by the EMCall transmitter; responses are
 * retrieved only by EMCall polling, and each response is bound to its
 * request by reqId — a caller can never dequeue another request's
 * response. The queues are invisible to ordinary CS software: they
 * are not part of the CS physical address map at all.
 *
 * Packets move through: a push takes the packet by value and moves it
 * into its queue, and a pop or poll moves it out, so an EADD page
 * crosses without a copy. The queues are a request ring and a flat
 * response store searched by reqId. Each grows to the deepest backlog
 * seen, never past `capacity` packets, and keeps its storage, so a
 * packet allocates no queue storage once that depth has been reached.
 */

#ifndef HYPERTEE_FABRIC_MAILBOX_HH
#define HYPERTEE_FABRIC_MAILBOX_HH

#include <functional>
#include <vector>

#include "fabric/primitive.hh"
#include "sim/types.hh"

namespace hypertee
{

class Mailbox
{
  public:
    /** @param capacity per-queue packet capacity. */
    explicit Mailbox(std::size_t capacity = 64);

    /** CS->EMS: returns false when the request queue is full. */
    bool pushRequest(PrimitiveRequest req);

    /** EMS side: drain the next pending request. */
    bool popRequest(PrimitiveRequest &req);

    bool requestPending() const { return _requestCount != 0; }
    std::size_t requestDepth() const { return _requestCount; }

    /** EMS->CS: deliver a response (keyed by reqId). */
    bool pushResponse(PrimitiveResponse resp);

    /**
     * EMCall polling: retrieve the response for @p req_id only.
     * Responses to other requests stay queued — the binding that
     * stops a malicious requester reading someone else's response.
     */
    bool pollResponse(std::uint64_t req_id, PrimitiveResponse &resp);

    std::size_t responseDepth() const { return _responses.size(); }

    /** Doorbell hook: called on each request arrival (EMS IRQ). */
    void setDoorbell(std::function<void()> doorbell);

    /** Fixed transfer latency per packet hop through the fabric. */
    Tick transferLatency() const { return _transferLatency; }
    void setTransferLatency(Tick t) { _transferLatency = t; }

    std::uint64_t requestsRejected() const { return _rejected; }

  private:
    /** Make room for one more request: the ring is full. */
    void growRequests();

    std::size_t _capacity;
    /** Pending requests, oldest at _requestHead, wrapping. */
    std::vector<PrimitiveRequest> _requests;
    std::size_t _requestHead = 0;
    std::size_t _requestCount = 0;
    /** Undelivered responses, unordered. */
    std::vector<PrimitiveResponse> _responses;
    std::function<void()> _doorbell;
    Tick _transferLatency = 60'000; ///< ~60 ns fabric + queue hop
    std::uint64_t _rejected = 0;
};

} // namespace hypertee

#endif // HYPERTEE_FABRIC_MAILBOX_HH
