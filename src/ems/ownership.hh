/**
 * @file
 * Page ownership table (Sections IV-B, V-B).
 *
 * Lives in EMS private memory. Each entry records which enclave owns
 * a physical page, or that the page backs a shared-memory region.
 * Before mapping a page, the EMS verifies it is not already owned —
 * the isolation between enclaves. Shared pages are tracked with
 * their ShmID so they are never handed out as private memory.
 *
 * The table is also the only record of an enclave's private pages:
 * they are linked per owner in claim order, the order EDESTROY
 * hands them back to the pool (and so the PPNs later grants get).
 *
 * Entries are stored per 2 MiB region (512 frames), allocated with a
 * region's first claimed page and freed with its last, so the table
 * is sparse over arbitrary PPNs and holds no heap node per page.
 */

#ifndef HYPERTEE_EMS_OWNERSHIP_HH
#define HYPERTEE_EMS_OWNERSHIP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace hypertee
{

enum class PageKind : std::uint8_t
{
    Private,
    Shared,
    PageTable, ///< enclave page-table frames
};

/** End of an owner's page list. */
constexpr Addr noPage = ~Addr(0);

struct PageOwner
{
    EnclaveId owner = invalidEnclaveId;
    PageKind kind = PageKind::Private;
    ShmId shm = 0;
};

class PageOwnershipTable
{
  public:
    /**
     * Claim @p ppn for @p owner. Fails when the page already has an
     * owner (the cross-enclave isolation check). A private page joins
     * the tail of its owner's page list.
     */
    bool claim(Addr ppn, EnclaveId owner, PageKind kind = PageKind::Private,
               ShmId shm = 0);

    /**
     * Release a page (on EFREE/EDESTROY/ESHMDES); a private page
     * leaves its owner's list in O(1).
     */
    bool release(Addr ppn);

    /** Lookup; nullptr when unowned. */
    const PageOwner *
    lookup(Addr ppn) const
    {
        const Slot *slot = findSlot(ppn);
        return slot ? &slot->page : nullptr;
    }

    bool
    ownedBy(Addr ppn, EnclaveId enclave) const
    {
        const PageOwner *o = lookup(ppn);
        return o && o->owner == enclave;
    }

    /** Private pages of @p enclave in claim order (EDESTROY sweep). */
    std::vector<Addr> pagesOf(EnclaveId enclave) const;

    /** Number of private pages @p enclave owns. */
    std::size_t privatePages(EnclaveId enclave) const;

    std::size_t size() const { return _size; }
    std::uint64_t conflicts() const { return _conflicts; }

  private:
    static constexpr Addr regionShift = 9; ///< 512 frames = 2 MiB
    static constexpr std::size_t regionFrames = std::size_t(1)
                                                << regionShift;

    struct Slot
    {
        PageOwner page;
        bool used = false;
        /** Neighbours in the owner's private-page list (Private only). */
        Addr prev = noPage;
        Addr next = noPage;
    };

    struct Region
    {
        std::array<Slot, regionFrames> slots{};
        std::size_t live = 0; ///< used slots
    };

    /** One owner's private pages, linked through Slot. */
    struct PageList
    {
        Addr head = noPage;
        Addr tail = noPage;
        std::size_t count = 0;
    };

    /** Region @p number, or nullptr when none of its pages is owned. */
    Region *
    findRegion(Addr number) const
    {
        return number == _cachedNumber ? _cachedRegion
                                       : findRegionSlow(number);
    }

    /** findRegion's map probe; a hit becomes the cached region. */
    Region *findRegionSlow(Addr number) const;

    /** The used slot of @p ppn, or nullptr when it is unowned. */
    Slot *
    findSlot(Addr ppn) const
    {
        Region *region = findRegion(ppn >> regionShift);
        if (!region)
            return nullptr;
        Slot &slot = region->slots[ppn & (regionFrames - 1)];
        return slot.used ? &slot : nullptr;
    }

    /** The slot of a page known to be owned (a list neighbour). */
    Slot &linked(Addr ppn) const { return *findSlot(ppn); }

    std::unordered_map<Addr, std::unique_ptr<Region>> _regions;
    /** Last region found; a freed region must not stay here. */
    mutable Addr _cachedNumber = noPage;
    mutable Region *_cachedRegion = nullptr;
    std::unordered_map<EnclaveId, PageList> _lists;
    std::size_t _size = 0;
    std::uint64_t _conflicts = 0;
};

} // namespace hypertee

#endif // HYPERTEE_EMS_OWNERSHIP_HH
