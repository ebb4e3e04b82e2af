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
EnclaveMemoryPool::refill(std::size_t at_least)
{
    std::size_t want = std::max(at_least, _p.refillBatch);
    std::vector<Addr> pages = _os.grant(want);
    ++_osRequests;
    _osRequestSizes.push_back(pages.size());
    for (Addr p : pages)
        _free.push_back(p);
    // Threshold re-randomizes on every enlargement (Section IV-A).
    rerandomizeThreshold();
}

std::vector<Addr>
EnclaveMemoryPool::allocate(std::size_t n)
{
    if (_free.size() < n + _threshold)
        refill(n + _threshold - _free.size());
    if (_free.size() < n)
        return {}; // OS out of memory
    std::vector<Addr> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(_free.front());
        _free.pop_front();
    }
    return out;
}

void
EnclaveMemoryPool::release(const std::vector<Addr> &pages)
{
    for (Addr p : pages)
        _free.push_back(p);
}

std::vector<Addr>
EnclaveMemoryPool::randomTake(std::size_t requested, std::size_t slack,
                              Random &rng)
{
    std::size_t count = requested + (slack ? rng.below(slack + 1) : 0);
    count = std::min(count, _free.size());
    std::vector<Addr> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        // Random position: EWB page selection is unpredictable.
        std::size_t pos = rng.below(_free.size());
        out.push_back(_free[pos]);
        _free.erase(_free.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    return out;
}

void
EnclaveMemoryPool::returnToOs(std::size_t n)
{
    n = std::min(n, _free.size());
    std::vector<Addr> pages;
    pages.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pages.push_back(_free.front());
        _free.pop_front();
    }
    _os.take(pages);
    _osReturns += pages.size();
}

EnclaveMemoryPool::Rebalance
EnclaveMemoryPool::rebalance()
{
    Rebalance moved;
    if (_p.lowWatermark > 0 && _free.size() < _p.lowWatermark) {
        std::size_t before = _free.size();
        refill(_p.lowWatermark - before);
        moved.refilled = _free.size() - before;
    } else if (_p.highWatermark > 0 &&
               _free.size() > _p.highWatermark) {
        moved.returned = _free.size() - _p.highWatermark;
        returnToOs(moved.returned);
    }
    return moved;
}

} // namespace hypertee
