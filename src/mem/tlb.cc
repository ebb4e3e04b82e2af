#include "mem/tlb.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace hypertee
{

Tlb::Tlb(std::size_t entries, std::size_t ways) : _ways(ways)
{
    fatalIf(entries == 0 || ways == 0, "TLB needs entries and ways");
    fatalIf(entries % ways != 0, "TLB entries must divide into ways");
    _sets = entries / ways;
    if (_sets > 0 && (_sets & (_sets - 1)) == 0)
        _setMask = _sets - 1;
    _entries.resize(entries);
    _probeVpn.assign(entries, 0);
    _probeValid.assign(entries, 0);
}

void
Tlb::insert(Addr va, Addr pa, std::uint64_t perms, KeyId key_id,
            bool bitmap_checked)
{
    Addr vpn = pageNumber(va);
    std::size_t b = setIndex(vpn) * _ways;
    TlbEntry *victim = findEntry(vpn);
    if (!victim) {
        // Victim = first invalid way, else lowest-stamp way (earliest
        // index on ties). Valid stamps are >= 1, so keying invalid
        // ways at 0 with a strict < argmin reproduces the
        // break-at-first-invalid / first-minimum scan exactly.
        std::size_t vw = 0;
        std::uint64_t best =
            _probeValid[b] ? _entries[b].lruStamp : 0;
        for (std::size_t w = 1; w < _ways; ++w) {
            std::uint64_t key =
                _probeValid[b + w] ? _entries[b + w].lruStamp : 0;
            bool better = key < best;
            vw = better ? w : vw;
            best = better ? key : best;
        }
        victim = &_entries[b + vw];
    }
    victim->vpn = vpn;
    victim->ppn = pageNumber(pa);
    victim->perms = perms;
    victim->keyId = key_id;
    victim->bitmapChecked = bitmap_checked;
    victim->lruStamp = ++_stamp;
    std::size_t idx = static_cast<std::size_t>(victim - _entries.data());
    _probeVpn[idx] = vpn;
    if (!_probeValid[idx])
        ++_live;
    _probeValid[idx] = 1;
}

void
Tlb::flushAll()
{
    ++_flushRequests;
    const std::uint64_t killed = _live;
    if (_live != 0) {
        std::fill(_probeValid.begin(), _probeValid.end(),
                  std::uint8_t(0));
        _live = 0;
    }
    _invalidations += killed;
    // A full flush is one real flush operation even on an empty TLB:
    // the hardware flash-invalidates every set regardless. Only the
    // host skips the work when nothing is cached.
    ++_flushes;
    HT_TRACE_INSTANT1(TraceCategory::Tlb, "tlb.flushAll",
                      TraceSink::global().now(), "invalidated", killed);
}

void
Tlb::flushPage(Addr va)
{
    ++_flushRequests;
    TlbEntry *e = findEntry(pageNumber(va));
    if (!e)
        return; // no matching entry: nothing was flushed
    _probeValid[static_cast<std::size_t>(e - _entries.data())] = 0;
    --_live;
    ++_invalidations;
    ++_flushes;
    HT_TRACE_INSTANT1(TraceCategory::Tlb, "tlb.flushPage",
                      TraceSink::global().now(), "vpn",
                      pageNumber(va));
}

} // namespace hypertee
