#include "ems/memory_pool.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hypertee
{

std::size_t
OsFrames::grantInto(std::size_t n, Addr *out)
{
    std::size_t reused = 0;
    for (; reused < n && !_free.empty(); ++reused) {
        out[reused] = _free.back();
        _free.pop_back();
    }
    const Addr first = _next;
    std::size_t fresh = std::min<Addr>(n - reused, _end - first);
    for (std::size_t i = 0; i < fresh; ++i)
        out[reused + i] = first + i;
    _next = first + fresh;
    return reused + fresh;
}

std::vector<Addr>
OsFrames::grant(std::size_t n)
{
    std::vector<Addr> out(
        std::min(n, _free.size() + std::min<Addr>(n, _end - _next)));
    out.resize(grantInto(n, out.data()));
    return out;
}

std::optional<Addr>
OsFrames::grantOne()
{
    Addr ppn = 0;
    if (grantInto(1, &ppn) == 0)
        return std::nullopt;
    return ppn;
}

void
OsFrames::take(const std::vector<Addr> &ppns)
{
    _free.insert(_free.end(), ppns.begin(), ppns.end());
}

EnclaveMemoryPool::EnclaveMemoryPool(OsFrames &os, const Params &params,
                                     std::uint64_t seed)
    : _os(os), _p(params), _rng(seed)
{
    fatalIf(_p.minThreshold > _p.maxThreshold, "bad threshold band");
    fatalIf(_p.lowWatermark != 0 && _p.highWatermark != 0 &&
                _p.lowWatermark > _p.highWatermark,
            "bad watermark band");
    rerandomizeThreshold();
    refill(_p.initialPages);
}

void
EnclaveMemoryPool::rerandomizeThreshold()
{
    _threshold = _rng.between(_p.minThreshold, _p.maxThreshold);
}

void
EnclaveMemoryPool::copyOldest(std::size_t n, Addr *out) const
{
    std::size_t first = std::min(n, _ring.size() - _head);
    std::copy_n(_ring.begin() + static_cast<std::ptrdiff_t>(_head), first,
                out);
    std::copy_n(_ring.begin(), n - first, out + first);
}

void
EnclaveMemoryPool::takeOldest(std::size_t n, Addr *out)
{
    copyOldest(n, out);
    _head = wrap(_head + n);
    _count -= n;
}

void
EnclaveMemoryPool::reserve(std::size_t n)
{
    if (_count + n <= _ring.size())
        return;
    std::vector<Addr> grown(std::max(2 * _ring.size(), _count + n));
    copyOldest(_count, grown.data());
    _ring = std::move(grown);
    _head = 0;
}

void
EnclaveMemoryPool::append(std::span<const Addr> pages)
{
    reserve(pages.size());
    std::size_t tail = wrap(_head + _count);
    std::size_t first = std::min(pages.size(), _ring.size() - tail);
    std::copy_n(pages.begin(), first,
                _ring.begin() + static_cast<std::ptrdiff_t>(tail));
    std::copy(pages.begin() + static_cast<std::ptrdiff_t>(first),
              pages.end(), _ring.begin());
    _count += pages.size();
}

void
EnclaveMemoryPool::refill(std::size_t at_least)
{
    std::size_t want = std::max(at_least, _p.refillBatch);
    // The grant lands in the ring itself, in up to two runs; two
    // grantInto calls hand out the same PPNs, in order, as one.
    reserve(want);
    std::size_t tail = wrap(_head + _count);
    std::size_t first = std::min(want, _ring.size() - tail);
    std::size_t got = _os.grantInto(first, _ring.data() + tail);
    if (got == first)
        got += _os.grantInto(want - first, _ring.data());
    _count += got;
    ++_osRequests;
    _osRequestSizes.push_back(got);
    // Threshold re-randomizes on every enlargement (Section IV-A).
    rerandomizeThreshold();
}

bool
EnclaveMemoryPool::allocateInto(std::size_t n, Addr *out)
{
    if (_count < n + _threshold)
        refill(n + _threshold - _count);
    if (_count < n)
        return false; // OS out of memory
    takeOldest(n, out);
    return true;
}

std::vector<Addr>
EnclaveMemoryPool::allocate(std::size_t n)
{
    std::vector<Addr> out(n);
    if (!allocateInto(n, out.data()))
        return {};
    return out;
}

void
EnclaveMemoryPool::release(std::span<const Addr> pages)
{
    append(pages);
}

std::vector<Addr>
EnclaveMemoryPool::randomTake(std::size_t requested, std::size_t slack,
                              Random &rng)
{
    std::size_t count = requested + (slack ? rng.below(slack + 1) : 0);
    count = std::min(count, _count);
    std::vector<Addr> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        // Random position: EWB page selection is unpredictable. The
        // shorter side closes the gap, so the rest keep their order.
        std::size_t pos = rng.below(_count);
        out.push_back(at(pos));
        if (pos < _count / 2) {
            for (; pos > 0; --pos)
                at(pos) = at(pos - 1);
            _head = wrap(_head + 1);
        } else {
            for (; pos + 1 < _count; ++pos)
                at(pos) = at(pos + 1);
        }
        --_count;
    }
    return out;
}

void
EnclaveMemoryPool::returnToOs(std::size_t n)
{
    std::vector<Addr> pages(std::min(n, _count));
    takeOldest(pages.size(), pages.data());
    _os.take(pages);
    _osReturns += pages.size();
}

EnclaveMemoryPool::Rebalance
EnclaveMemoryPool::rebalance()
{
    Rebalance moved;
    if (_p.lowWatermark > 0 && _count < _p.lowWatermark) {
        std::size_t before = _count;
        refill(_p.lowWatermark - before);
        moved.refilled = _count - before;
    } else if (_p.highWatermark > 0 && _count > _p.highWatermark) {
        moved.returned = _count - _p.highWatermark;
        returnToOs(moved.returned);
    }
    return moved;
}

} // namespace hypertee
