/**
 * @file
 * Sv39-style three-level page tables, stored inside simulated
 * physical memory.
 *
 * HyperTEE gives each enclave a *dedicated private page table*
 * maintained by the EMS and stored in enclave memory (Section IV-A),
 * separate from the OS-managed table of its HostApp. Because the
 * table bytes live in PhysicalMemory, "the page table is enclave
 * memory" is an enforceable property here, not a comment: the walker
 * really reads PTEs from bitmap-protected pages.
 *
 * PTE layout (paper Section IV-C: KeyID rides the high PTE bits):
 *   [63:48] KeyID   [53:10] PPN (Sv39 field, 40-bit PA => fits)
 *   bit 7 D, bit 6 A, bit 4 U, bit 3 X, bit 2 W, bit 1 R, bit 0 V
 * A non-leaf PTE has R=W=X=0.
 */

#ifndef HYPERTEE_MEM_PAGE_TABLE_HH
#define HYPERTEE_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace hypertee
{

/** Leaf permissions; combine with |. */
enum PtePerm : std::uint64_t
{
    PteValid = 1ULL << 0,
    PteRead = 1ULL << 1,
    PteWrite = 1ULL << 2,
    PteExec = 1ULL << 3,
    PteUser = 1ULL << 4,
    PteAccessed = 1ULL << 6,
    PteDirty = 1ULL << 7,
};

/** Result of a software table walk. */
struct WalkResult
{
    bool valid = false;
    Addr pa = 0;
    std::uint64_t perms = 0;
    KeyId keyId = 0;
    int levels = 0;        ///< PTEs touched (1..3)
    Addr pteAddr = 0;      ///< physical address of the leaf PTE
    Addr visited[3] = {0, 0, 0}; ///< PTE addresses, root first
};

/** One page's leaf PTE slot, as found by PageTable::lookupRun. */
struct LeafSlot
{
    Addr pteAddr = 0;   ///< physical address of the slot (0: no leaf table)
    bool valid = false; ///< the slot holds a mapping
    Addr ppn = 0;       ///< mapped page number, when valid
};

/**
 * One address space. Table pages are obtained from a caller-supplied
 * frame allocator so OS tables draw from OS memory while enclave
 * tables draw from the EMS enclave memory pool.
 */
class PageTable
{
  public:
    /** Allocate-table-frame callback: returns a zeroed page PA. */
    using FrameAllocator = std::function<Addr()>;

    PageTable(PhysicalMemory *mem, FrameAllocator alloc);

    /** Physical address of the root table (SATP equivalent). */
    Addr root() const { return _root; }

    /** Sv39: a virtual address has 39 bits; the space ends here. */
    static constexpr Addr vaLimit = Addr(1) << 39;

    /**
     * Does [va, va + n pages) lie inside the Sv39 space? Checked
     * without wrapping, so a huge @p n or a va near 2^64 is refused
     * rather than aliased onto low addresses.
     */
    static bool
    inVaSpace(Addr va, std::size_t n)
    {
        return va < vaLimit && n <= (vaLimit - va) >> pageShift;
    }

    /**
     * Map one page. @param perms leaf permission bits (PteValid is
     * implied). @param key_id stored in PTE[63:48].
     */
    void map(Addr va, Addr pa, std::uint64_t perms, KeyId key_id = 0);

    /** Remove a leaf mapping; returns false when none existed. */
    bool unmap(Addr va);

    // Range operations over the consecutive pages starting at va.
    // Each descends once per leaf table (2 MiB of VA), then works on
    // consecutive leaf PTE slots: the same PTE words and the same
    // frame-allocation order as page-by-page map/unmap, which are the
    // one-page cases. They panic on a run outside the Sv39 space.

    /** Map page i of the run to @p ppns[i]; panics on a double map. */
    void mapRun(Addr va, std::span<const Addr> ppns, std::uint64_t perms,
                KeyId key_id = 0);
    /** True when any page of [va, va + n pages) is mapped. */
    bool anyMapped(Addr va, std::size_t n) const;
    /** Fill out[i] with the leaf slot of page i; allocates nothing. */
    void lookupRun(Addr va, std::span<LeafSlot> out) const;
    /** Clear every valid slot of a lookupRun result; skips the rest. */
    void clearRun(std::span<const LeafSlot> slots);

    /** Software walk (no timing); used by the walker model and EMS. */
    WalkResult walk(Addr va) const;

    /** Update permissions of an existing mapping. */
    bool setPerms(Addr va, std::uint64_t perms);

    /** Read A/D bits of the leaf PTE; the controlled-channel lever. */
    bool accessedBit(Addr va) const;
    bool dirtyBit(Addr va) const;
    void clearAccessedDirty(Addr va);
    void setAccessedDirty(Addr va, bool accessed, bool dirty);

    /** Enumerate all leaf mappings: fn(va, WalkResult). */
    void
    forEachMapping(const std::function<void(Addr, const WalkResult &)> &fn)
        const;

    /** All physical pages holding table nodes (root included). */
    const std::vector<Addr> &tableFrames() const { return _frames; }

  private:
    static constexpr int levels = 3;
    static constexpr int bitsPerLevel = 9;

    /** leafTable()'s answer when the leaf table does not exist. */
    static constexpr Addr noTable = ~Addr(0);

    static Addr vpn(Addr va, int level);
    /** Pages of a run of @p n from @p va that share va's leaf table. */
    static std::size_t pagesInLeafTable(Addr va, std::size_t n);
    /** Panic unless [va, va + n pages) lies inside the Sv39 space. */
    static void checkRun(Addr va, std::size_t n);
    Addr pteAddrAt(Addr table, Addr va, int level) const;

    /**
     * The one descent: physical address of the leaf table covering
     * @p va. With @p create, missing mid and leaf tables are allocated
     * root-first; without, an absent one yields noTable.
     */
    Addr leafTable(Addr va, bool create);
    Addr
    leafTable(Addr va) const
    {
        // Safe: without create the descent only reads.
        return const_cast<PageTable *>(this)->leafTable(va, false);
    }

    void walkRecurse(
        Addr table, int level, Addr va_prefix,
        const std::function<void(Addr, const WalkResult &)> &fn) const;

    PhysicalMemory *_mem;
    FrameAllocator _alloc;
    Addr _root;
    std::vector<Addr> _frames;
};

} // namespace hypertee

#endif // HYPERTEE_MEM_PAGE_TABLE_HH
