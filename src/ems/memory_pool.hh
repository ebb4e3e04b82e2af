/**
 * @file
 * The enclave memory pool (Section IV-A).
 *
 * The EMS proactively requests batches of pages from the CS OS and
 * parks them here. Enclave allocations are then served from the pool
 * without notifying the OS — concealing on-demand allocation events
 * from allocation-based controlled-channel attackers. The pool
 * refills when the free count drops below a threshold that is
 * re-randomized after every enlargement, so the refill cadence
 * cannot be reverse-engineered either.
 *
 * The OS sees only its grants. The attack simulator reads their count
 * (osRequests(), exported as HyperTeeSystem::osPoolGrants()); only the
 * fleet model reads osRequestSizes, to charge a grant's latency.
 *
 * OsFrames is the one modelled CS OS behind every pool: the system's,
 * the fleet model's and the tests'.
 *
 * The pool hands pages out first-in-first-out, and that order is part
 * of every seeded run: which PPN an enclave gets decides its bitmap
 * bits, and through them the golden fixtures and the perfbench
 * digests. Pages move in and out as runs (block copies), but never in
 * a different order.
 */

#ifndef HYPERTEE_EMS_MEMORY_POOL_HH
#define HYPERTEE_EMS_MEMORY_POOL_HH

#include <optional>
#include <span>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace hypertee
{

/**
 * The untrusted CS OS's physical frame allocator. It owns the PPN
 * range [first, end) and hands freed frames out again last-in-first-out
 * before cutting fresh ones from the range.
 */
class OsFrames
{
  public:
    /** The default @p end never runs dry. */
    explicit OsFrames(Addr first, Addr end = ~Addr(0))
        : _next(first), _end(end)
    {
    }

    /** Up to @p n PPNs; fewer once the range is spent. */
    std::vector<Addr> grant(std::size_t n);

    /**
     * grant(1) without the vector: host mappings take frames one at a
     * time, between the page-table frames the mapping itself needs.
     */
    std::optional<Addr> grantOne();

    /** Frames back from their owner (already zeroed). */
    void take(const std::vector<Addr> &ppns);

  private:
    /** A pool refill grants straight into the pool's ring. */
    friend class EnclaveMemoryPool;

    /** The policy: up to @p n PPNs into @p out, the most recently
     *  taken back first, then fresh ones; returns how many. */
    std::size_t grantInto(std::size_t n, Addr *out);

    std::vector<Addr> _free;
    Addr _next;
    Addr _end;
};

class EnclaveMemoryPool
{
  public:
    struct Params
    {
        std::size_t initialPages = 4096;  ///< 16 MiB warm pool
        std::size_t refillBatch = 2048;
        std::size_t minThreshold = 256;   ///< randomization floor
        std::size_t maxThreshold = 1024;  ///< randomization ceiling
        /**
         * Scheduler watermarks (fleet-scale EMS): rebalance() refills
         * from the OS when the free count drops below lowWatermark
         * and returns the excess above highWatermark. Both default to
         * 0 = disabled, preserving the demand-driven refill behaviour
         * of the single-enclave benches.
         */
        std::size_t lowWatermark = 0;
        std::size_t highWatermark = 0;
    };

    /** What one rebalance() pass moved between the OS and the pool. */
    struct Rebalance
    {
        std::size_t refilled = 0; ///< pages pulled from the OS
        std::size_t returned = 0; ///< pages handed back to the OS
    };

    EnclaveMemoryPool(OsFrames &os, const Params &params,
                      std::uint64_t seed = 0x9001);

    /**
     * Draw @p n pages into @p out, oldest first. Refills from the OS
     * first when the post-draw free count would cross the threshold.
     * Returns false, writing nothing, when the OS cannot provide
     * enough memory.
     */
    bool allocateInto(std::size_t n, Addr *out);

    /** allocateInto() into a vector; empty when the OS runs dry. */
    std::vector<Addr> allocate(std::size_t n);

    /** Return pages to the pool (caller has zeroed them). */
    void release(std::span<const Addr> pages);

    /**
     * Randomly draw pages for EWB: a random count in
     * [requested, requested + slack], random positions.
     */
    std::vector<Addr> randomTake(std::size_t requested,
                                 std::size_t slack, Random &rng);

    /** Shrink: hand pages back to the OS. */
    void returnToOs(std::size_t n);

    /**
     * Watermark maintenance (the EMS scheduler's background duty):
     * refill up to the low watermark, shed down to the high
     * watermark. A no-op when the watermarks are disabled, so the
     * demand-driven paths are unchanged for existing configurations.
     */
    Rebalance rebalance();

    std::size_t freePages() const { return _count; }
    std::size_t threshold() const { return _threshold; }

    /** Pages handed back to the OS across every shrink. */
    std::uint64_t osReturns() const { return _osReturns; }

    /** OS-visible events: this is the controlled-channel surface. */
    std::uint64_t osRequests() const { return _osRequests; }
    const std::vector<std::size_t> &
    osRequestSizes() const
    {
        return _osRequestSizes;
    }

  private:
    void refill(std::size_t at_least);
    void rerandomizeThreshold();
    /** Append @p pages at the young end, growing the ring if full. */
    void append(std::span<const Addr> pages);
    /** Grow the ring, unwrapped, so @p n more pages fit. */
    void reserve(std::size_t n);
    /** Copy the @p n oldest free pages to @p out, leaving them free. */
    void copyOldest(std::size_t n, Addr *out) const;
    /** Copy the @p n oldest free pages to @p out and drop them. */
    void takeOldest(std::size_t n, Addr *out);
    /** Ring index of @p slot < 2 * _ring.size(); no division. */
    std::size_t
    wrap(std::size_t slot) const
    {
        return slot < _ring.size() ? slot : slot - _ring.size();
    }
    /** The @p i-th oldest free page, @p i < _count. */
    Addr &at(std::size_t i) { return _ring[wrap(_head + i)]; }

    OsFrames &_os;
    Params _p;
    Random _rng;
    /**
     * The free pages, oldest first: _count entries from _head,
     * wrapping round the end of _ring. Nothing that was handed out
     * stays in the ring, and it grows (doubling, unwrapped) only when
     * an append finds it full, so its size tracks the peak free count,
     * not the lifetime traffic, and no page is moved to make room.
     */
    std::vector<Addr> _ring;
    std::size_t _head = 0;
    std::size_t _count = 0;
    std::size_t _threshold;
    std::uint64_t _osRequests = 0;
    std::uint64_t _osReturns = 0;
    std::vector<std::size_t> _osRequestSizes;
};

} // namespace hypertee

#endif // HYPERTEE_EMS_MEMORY_POOL_HH
