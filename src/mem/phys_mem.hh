/**
 * @file
 * Sparse physical memory backing store.
 *
 * Holds the actual bytes of the simulated machine: enclave images,
 * page tables, the enclave bitmap, EMS private structures. Pages are
 * allocated lazily so multi-GiB address spaces cost only what is
 * touched.
 */

#ifndef HYPERTEE_MEM_PHYS_MEM_HH
#define HYPERTEE_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "crypto/bytes.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace hypertee
{

class PhysicalMemory
{
  public:
    /** @param base lowest valid address, @param size bytes. */
    PhysicalMemory(Addr base, Addr size);

    Addr base() const { return _base; }
    Addr size() const { return _size; }
    bool contains(Addr a) const { return a >= _base && a < _base + _size; }
    bool
    containsRange(Addr a, Addr len) const
    {
        return contains(a) && len <= _base + _size - a;
    }

    /**
     * Does [a, a+len) intersect this memory at all? Unlike
     * containsRange this also catches ranges that merely straddle a
     * boundary — the case the iHub must reject explicitly rather
     * than rely on the range failing containment elsewhere. A range
     * that wraps the address space is treated as reaching the top.
     */
    bool
    overlapsRange(Addr a, Addr len) const
    {
        if (len == 0)
            return false;
        Addr end = a + len;
        if (end < a)
            end = ~Addr(0); // wrapped: clamp to the top of the space
        return a < _base + _size && end > _base;
    }

    /** Byte access; panics when out of range. */
    void write(Addr addr, const std::uint8_t *data, Addr len);
    void read(Addr addr, std::uint8_t *data, Addr len) const;

    void writeBytes(Addr addr, const Bytes &data);
    Bytes readBytes(Addr addr, Addr len) const;

    /**
     * 64-bit accessors. Header-inline single-page fast path: these
     * carry every PTE fetch of every page-table walk, where the
     * generic read()/write() loop plus the page-map probe dominated
     * the TLB-miss cost.
     */
    std::uint64_t
    read64(Addr addr) const
    {
        Addr in_page = addr & (pageSize - 1);
        if (in_page <= pageSize - 8) {
            panicIf(!containsRange(addr, 8),
                    "physical read out of range: ", addr, "+", Addr(8));
            const Page *page = pageForRead(addr);
            if (!page)
                return 0; // untouched page reads as zero
            const std::uint8_t *b = page->data() + in_page;
            std::uint64_t v = 0;
            for (int i = 7; i >= 0; --i)
                v = (v << 8) | b[i]; // folds into one little-endian load
            return v;
        }
        return read64Spanning(addr);
    }

    void
    write64(Addr addr, std::uint64_t value)
    {
        Addr in_page = addr & (pageSize - 1);
        if (in_page <= pageSize - 8) {
            panicIf(!containsRange(addr, 8),
                    "physical write out of range: ", addr, "+", Addr(8));
            std::uint8_t *b = pageFor(addr).data() + in_page;
            for (int i = 0; i < 8; ++i)
                b[i] = static_cast<std::uint8_t>(value >> (8 * i));
            return;
        }
        write64Spanning(addr, value);
    }

    /**
     * Byte accessors, header-inline like read64/write64: the enclave
     * bitmap reads and flips one byte on every granted and scrubbed
     * page, where the generic loop cost two memcpy calls per bit.
     */
    std::uint8_t
    read8(Addr addr) const
    {
        panicIf(!containsRange(addr, 1),
                "physical read out of range: ", addr, "+", Addr(1));
        const Page *page = pageForRead(addr);
        return page ? (*page)[addr & (pageSize - 1)] : 0;
    }

    void
    write8(Addr addr, std::uint8_t value)
    {
        panicIf(!containsRange(addr, 1),
                "physical write out of range: ", addr, "+", Addr(1));
        pageFor(addr)[addr & (pageSize - 1)] = value;
    }

    /** Zero a region (page scrubbing on free/alloc). */
    void zero(Addr addr, Addr len);

    /** Number of physically materialized backing pages. */
    std::size_t touchedPages() const { return _pages.size(); }

  private:
    using Page = std::array<std::uint8_t, pageSize>;

    /**
     * Direct-mapped cache of page-map probes. Backing pages are heap
     * allocations owned by _pages, so cached pointers stay valid
     * across map rehashes; the only invalidation point is the
     * whole-page erase in zero(). Misses (absent pages) are never
     * cached, so lazily materialized pages are picked up naturally.
     */
    static constexpr std::size_t lookupSlots = 64;

    std::size_t
    lookupSlot(Addr page_base) const
    {
        return (page_base >> pageShift) & (lookupSlots - 1);
    }

    Page &
    pageFor(Addr addr)
    {
        Addr page_base = pageAlign(addr);
        std::size_t slot = lookupSlot(page_base);
        if (_lookupPage[slot] && _lookupBase[slot] == page_base)
            return *_lookupPage[slot];
        return pageForSlow(page_base);
    }

    const Page *
    pageForRead(Addr addr) const
    {
        Addr page_base = pageAlign(addr);
        std::size_t slot = lookupSlot(page_base);
        if (_lookupPage[slot] && _lookupBase[slot] == page_base)
            return _lookupPage[slot];
        return pageForReadSlow(page_base);
    }

    Page &pageForSlow(Addr page_base);
    const Page *pageForReadSlow(Addr page_base) const;
    std::uint64_t read64Spanning(Addr addr) const;
    void write64Spanning(Addr addr, std::uint64_t value);

    Addr _base;
    Addr _size;
    std::unordered_map<Addr, std::unique_ptr<Page>> _pages;
    mutable std::array<Page *, lookupSlots> _lookupPage{};
    mutable std::array<Addr, lookupSlots> _lookupBase{};
};

} // namespace hypertee

#endif // HYPERTEE_MEM_PHYS_MEM_HH
