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
 */

#ifndef HYPERTEE_EMS_OWNERSHIP_HH
#define HYPERTEE_EMS_OWNERSHIP_HH

#include <cstdint>
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
    /** Neighbours in the owner's private-page list (Private only). */
    Addr prev = noPage;
    Addr next = noPage;
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
    const PageOwner *lookup(Addr ppn) const;

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

    std::size_t size() const { return _table.size(); }
    std::uint64_t conflicts() const { return _conflicts; }

  private:
    /** One owner's private pages, linked through PageOwner. */
    struct PageList
    {
        Addr head = noPage;
        Addr tail = noPage;
        std::size_t count = 0;
    };

    std::unordered_map<Addr, PageOwner> _table;
    std::unordered_map<EnclaveId, PageList> _lists;
    std::uint64_t _conflicts = 0;
};

} // namespace hypertee

#endif // HYPERTEE_EMS_OWNERSHIP_HH
