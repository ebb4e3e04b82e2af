/**
 * @file
 * Set-associative TLB model.
 *
 * Entries carry the HyperTEE "bitmap checked" flag (Figure 5): once
 * the PTW has verified a non-enclave access against the enclave
 * bitmap, the TLB remembers the verdict so hits skip the check. The
 * EMCall flushes entries on enclave context switches and bitmap
 * updates, which is exactly the overhead Figure 11 measures.
 *
 * Validity lives in one place, the packed _probeValid byte array;
 * TlbEntry holds only the payload of a way. A live-entry count makes
 * a flush of an empty TLB free on the host, which is the common case
 * in the management plane (every EMCall flushes, and EMS round trips
 * retire no instructions in between).
 */

#ifndef HYPERTEE_MEM_TLB_HH
#define HYPERTEE_MEM_TLB_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace hypertee
{

/** Payload of one TLB way; whether it is valid is Tlb's to say. */
struct TlbEntry
{
    Addr vpn = 0;
    Addr ppn = 0;
    std::uint64_t perms = 0;
    KeyId keyId = 0;
    bool bitmapChecked = false;
    std::uint64_t lruStamp = 0;
};

class Tlb
{
  public:
    /** @param entries total entries; @param ways associativity. */
    Tlb(std::size_t entries, std::size_t ways);

    /**
     * Lookup; returns nullptr on miss. Updates LRU + stats.
     * Header-inline: this is the first hop of every simulated memory
     * access (Mmu::translate fast path).
     */
    const TlbEntry *
    lookup(Addr va)
    {
        TlbEntry *e = findEntry(pageNumber(va));
        if (e) {
            e->lruStamp = ++_stamp;
            ++_hits;
            return e;
        }
        ++_misses;
        return nullptr;
    }

    /** Install a translation (evicts LRU within the set). */
    void insert(Addr va, Addr pa, std::uint64_t perms, KeyId key_id,
                bool bitmap_checked);

    /**
     * Flush everything (enclave context switch). Simulated: one
     * flash-invalidate of every set, counted in flushes() even when
     * nothing was cached. Host: free on an empty TLB, otherwise one
     * clear of the valid-byte array.
     */
    void flushAll();

    /** Flush one page's entry if present (targeted bitmap update). */
    void flushPage(Addr va);

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    /**
     * Flush operations: every flushAll(), plus each flushPage() that
     * invalidated an entry. A flushPage() that found nothing to kill
     * does NOT count here — the Figure 11 overhead attribution
     * depends on that distinction.
     */
    std::uint64_t flushes() const { return _flushes; }
    /** Every flushAll()/flushPage() call, matched or not. */
    std::uint64_t flushRequests() const { return _flushRequests; }
    /** Valid entries actually invalidated across all flushes. */
    std::uint64_t invalidations() const { return _invalidations; }

    double
    missRate() const
    {
        std::uint64_t total = _hits + _misses;
        return total ? static_cast<double>(_misses) /
                           static_cast<double>(total)
                     : 0.0;
    }

    std::size_t entryCount() const { return _sets * _ways; }

  private:
    /** Set selection: single AND when _sets is a power of two. */
    std::size_t
    setIndex(Addr vpn) const
    {
        return _setMask ? (vpn & _setMask) : (vpn % _sets);
    }

    /**
     * Fixed-width probe body over the packed vpn/valid arrays (8+1
     * bytes per way instead of a full sizeof(TlbEntry) stride).
     * The compile-time trip count fully unrolls into W independent
     * compare/mask ops reduced through a bitmask — no data-dependent
     * break for the host to mispredict. VPNs within a set are unique
     * (insert() replaces in place), so at most one mask bit is set
     * and countr_zero recovers the matching way. Returns W (== _ways
     * at every dispatch site) on a miss.
     */
    template <std::size_t W>
    std::size_t
    probeWays(std::size_t b, Addr vpn) const
    {
        unsigned mask = 0;
        for (std::size_t w = 0; w < W; ++w)
            mask |= static_cast<unsigned>(
                        _probeValid[b + w] & (_probeVpn[b + w] == vpn))
                    << w;
        return mask != 0
                   ? static_cast<std::size_t>(std::countr_zero(mask))
                   : W;
    }

    /**
     * Matching entry or nullptr. _ways is fixed per TLB, so the
     * dispatch switch predicts perfectly; odd associativities fall
     * back to a runtime-width keep-last select chain with identical
     * semantics.
     */
    TlbEntry *
    findEntry(Addr vpn)
    {
        std::size_t b = setIndex(vpn) * _ways;
        std::size_t hit;
        switch (_ways) {
          case 1: hit = probeWays<1>(b, vpn); break;
          case 2: hit = probeWays<2>(b, vpn); break;
          case 4: hit = probeWays<4>(b, vpn); break;
          case 8: hit = probeWays<8>(b, vpn); break;
          default: {
            hit = _ways;
            for (std::size_t w = 0; w < _ways; ++w) {
                bool m = _probeValid[b + w] & (_probeVpn[b + w] == vpn);
                hit = m ? w : hit;
            }
            break;
          }
        }
        return hit == _ways ? nullptr : &_entries[b + hit];
    }

    std::size_t _sets;
    std::size_t _ways;
    /** _sets - 1 when _sets is a power of two, else 0 (use modulo). */
    std::size_t _setMask = 0;
    std::vector<TlbEntry> _entries;
    /** Packed copy of _entries' vpn fields, for the probe. */
    std::vector<Addr> _probeVpn;
    /** The only record of which ways are valid (1) or not (0). */
    std::vector<std::uint8_t> _probeValid;
    /** Number of 1 bytes in _probeValid. */
    std::size_t _live = 0;
    std::uint64_t _stamp = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _flushes = 0;
    std::uint64_t _flushRequests = 0;
    std::uint64_t _invalidations = 0;
};

} // namespace hypertee

#endif // HYPERTEE_MEM_TLB_HH
