/**
 * @file
 * Sparse physical memory backing store.
 *
 * Holds the actual bytes of the simulated machine: enclave images,
 * page tables, the enclave bitmap, EMS private structures. Pages are
 * allocated lazily so multi-GiB address spaces cost only what is
 * touched. They are found through a directory of 2 MiB regions
 * indexed from the base: a lookup is two array reads, and a region's
 * page slots exist only while one of its pages does.
 */

#ifndef HYPERTEE_MEM_PHYS_MEM_HH
#define HYPERTEE_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

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

    /**
     * Zero a range (page scrubbing on free/alloc); a whole page drops
     * its backing store. Header-inline fast path: the EMS scrubs every
     * page on its way into and out of the pool, and such a page is
     * almost never materialized, so the common call is two array
     * reads.
     */
    void
    zero(Addr addr, Addr len)
    {
        if (len == pageSize && (addr & (pageSize - 1)) == 0 &&
            contains(addr)) {
            const Region *region = _regions[regionIndex(addr)].get();
            if (!region || !region->pages[pageIndex(addr)])
                return; // absent: already reads as zero
        }
        zeroSlow(addr, len);
    }

    /** Number of physically materialized backing pages. */
    std::size_t touchedPages() const;

  private:
    using Page = std::array<std::uint8_t, pageSize>;

    /** Backing pages are indexed by 2 MiB region of the range. */
    static constexpr Addr regionShift = 21;
    static constexpr std::size_t regionPages =
        std::size_t(1) << (regionShift - pageShift);

    /**
     * One 2 MiB region: its lazily allocated pages and how many of
     * them exist. A region is allocated with its first page and freed
     * with its last, so memory tracks what is touched.
     */
    struct Region
    {
        std::array<std::unique_ptr<Page>, regionPages> pages;
        std::size_t live = 0;
    };

    /** Directory index of @p addr's region, and its slot there. */
    std::size_t
    regionIndex(Addr addr) const
    {
        return (addr - _base) >> regionShift;
    }

    std::size_t
    pageIndex(Addr addr) const
    {
        return ((addr - _base) >> pageShift) & (regionPages - 1);
    }

    Page &
    pageFor(Addr addr)
    {
        Region *region = _regions[regionIndex(addr)].get();
        if (region) {
            Page *page = region->pages[pageIndex(addr)].get();
            if (page)
                return *page;
        }
        return materialize(addr);
    }

    const Page *
    pageForRead(Addr addr) const
    {
        const Region *region = _regions[regionIndex(addr)].get();
        return region ? region->pages[pageIndex(addr)].get() : nullptr;
    }

    Page &materialize(Addr addr);
    void zeroSlow(Addr addr, Addr len);
    std::uint64_t read64Spanning(Addr addr) const;
    void write64Spanning(Addr addr, std::uint64_t value);

    Addr _base;
    Addr _size;
    /** Region directory over [base, base+size), sized at construction. */
    std::vector<std::unique_ptr<Region>> _regions;
};

} // namespace hypertee

#endif // HYPERTEE_MEM_PHYS_MEM_HH
