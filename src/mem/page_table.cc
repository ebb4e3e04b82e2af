#include "mem/page_table.hh"

#include "sim/logging.hh"

namespace hypertee
{

namespace
{

constexpr std::uint64_t permMask = 0xff;
constexpr std::uint64_t keyShift = 48;
constexpr std::uint64_t ppnShift = 10;
constexpr std::uint64_t ppnMask = (1ULL << 38) - 1; // PTE[47:10]

std::uint64_t
makeLeaf(Addr pa, std::uint64_t perms, KeyId key)
{
    return (std::uint64_t(key) << keyShift) |
           ((pageNumber(pa) & ppnMask) << ppnShift) | perms | PteValid;
}

std::uint64_t
makeNode(Addr table_pa)
{
    return ((pageNumber(table_pa) & ppnMask) << ppnShift) | PteValid;
}

Addr
pteTarget(std::uint64_t pte)
{
    return ((pte >> ppnShift) & ppnMask) << pageShift;
}

bool
isLeaf(std::uint64_t pte)
{
    return pte & (PteRead | PteWrite | PteExec);
}

} // namespace

PageTable::PageTable(PhysicalMemory *mem, FrameAllocator alloc)
    : _mem(mem), _alloc(std::move(alloc))
{
    panicIf(_mem == nullptr, "page table needs physical memory");
    panicIf(!_alloc, "page table needs a frame allocator");
    _root = _alloc();
    panicIf(_root % pageSize != 0, "allocator returned unaligned frame");
    _mem->zero(_root, pageSize);
    _frames.push_back(_root);
}

Addr
PageTable::vpn(Addr va, int level)
{
    // level 2 is the root index, level 0 the leaf index.
    return (va >> (pageShift + bitsPerLevel * level)) &
           ((1ULL << bitsPerLevel) - 1);
}

std::size_t
PageTable::pagesInLeafTable(Addr va, std::size_t n)
{
    const std::size_t left = (1U << bitsPerLevel) - vpn(va, 0);
    return n < left ? n : left;
}

Addr
PageTable::pteAddrAt(Addr table, Addr va, int level) const
{
    return table + vpn(va, level) * 8;
}

void
PageTable::checkRun(Addr va, std::size_t n)
{
    panicIf(!inVaSpace(va, n), "page run outside the Sv39 space at va ",
            va);
}

Addr
PageTable::leafTable(Addr va, bool create)
{
    Addr table = _root;
    for (int level = levels - 1; level > 0; --level) {
        Addr pte_addr = pteAddrAt(table, va, level);
        std::uint64_t pte = _mem->read64(pte_addr);
        if (!(pte & PteValid)) {
            if (!create)
                return noTable;
            Addr frame = _alloc();
            _mem->zero(frame, pageSize);
            _frames.push_back(frame);
            pte = makeNode(frame);
            _mem->write64(pte_addr, pte);
        }
        panicIf(isLeaf(pte), "superpages not modelled");
        table = pteTarget(pte);
    }
    return table;
}

void
PageTable::map(Addr va, Addr pa, std::uint64_t perms, KeyId key_id)
{
    panicIf(pa % pageSize != 0, "map requires page-aligned addresses");
    const Addr ppn = pageNumber(pa);
    mapRun(va, {&ppn, 1}, perms, key_id);
}

void
PageTable::mapRun(Addr va, std::span<const Addr> ppns,
                  std::uint64_t perms, KeyId key_id)
{
    panicIf(va % pageSize != 0, "map requires page-aligned addresses");
    checkRun(va, ppns.size());
    perms &= permMask;
    for (std::size_t done = 0; done < ppns.size();) {
        const Addr first = va + done * pageSize;
        const std::size_t take = pagesInLeafTable(first, ppns.size() - done);
        Addr slot = pteAddrAt(leafTable(first, true), first, 0);
        for (std::size_t i = 0; i < take; ++i, slot += 8) {
            panicIf(_mem->read64(slot) & PteValid, "double map of va ",
                    first + i * pageSize);
            _mem->write64(slot, makeLeaf(ppns[done + i] << pageShift,
                                         perms, key_id));
        }
        done += take;
    }
}

bool
PageTable::anyMapped(Addr va, std::size_t n) const
{
    checkRun(va, n);
    for (std::size_t done = 0; done < n;) {
        const Addr first = va + done * pageSize;
        const std::size_t take = pagesInLeafTable(first, n - done);
        const Addr table = leafTable(first);
        if (table != noTable) {
            Addr slot = pteAddrAt(table, first, 0);
            for (std::size_t i = 0; i < take; ++i, slot += 8) {
                if (_mem->read64(slot) & PteValid)
                    return true;
            }
        }
        done += take;
    }
    return false;
}

void
PageTable::lookupRun(Addr va, std::span<LeafSlot> out) const
{
    checkRun(va, out.size());
    for (std::size_t done = 0; done < out.size();) {
        const Addr first = va + done * pageSize;
        const std::size_t take = pagesInLeafTable(first, out.size() - done);
        const Addr table = leafTable(first);
        std::span<LeafSlot> chunk = out.subspan(done, take);
        if (table == noTable) {
            for (LeafSlot &leaf : chunk)
                leaf = LeafSlot{};
        } else {
            Addr slot = pteAddrAt(table, first, 0);
            for (LeafSlot &leaf : chunk) {
                const std::uint64_t pte = _mem->read64(slot);
                leaf = {slot, (pte & PteValid) != 0,
                        pageNumber(pteTarget(pte))};
                slot += 8;
            }
        }
        done += take;
    }
}

void
PageTable::clearRun(std::span<const LeafSlot> slots)
{
    for (const LeafSlot &leaf : slots) {
        if (leaf.valid)
            _mem->write64(leaf.pteAddr, 0);
    }
}

WalkResult
PageTable::walk(Addr va) const
{
    WalkResult res;
    Addr table = _root;
    for (int level = levels - 1; level >= 0; --level) {
        Addr pte_addr = pteAddrAt(table, va, level);
        std::uint64_t pte = _mem->read64(pte_addr);
        res.visited[res.levels] = pte_addr;
        ++res.levels;
        if (!(pte & PteValid))
            return res;
        if (level == 0 || isLeaf(pte)) {
            panicIf(level != 0, "superpages not modelled");
            res.valid = true;
            res.pa = pteTarget(pte) | (va & (pageSize - 1));
            res.perms = pte & permMask;
            res.keyId = static_cast<KeyId>(pte >> keyShift);
            res.pteAddr = pte_addr;
            return res;
        }
        table = pteTarget(pte);
    }
    return res;
}

bool
PageTable::unmap(Addr va)
{
    LeafSlot leaf;
    lookupRun(va, {&leaf, 1});
    clearRun({&leaf, 1});
    return leaf.valid;
}

bool
PageTable::setPerms(Addr va, std::uint64_t perms)
{
    WalkResult res = walk(va);
    if (!res.valid)
        return false;
    std::uint64_t pte = _mem->read64(res.pteAddr);
    pte = (pte & ~permMask) | (perms & permMask) | PteValid;
    _mem->write64(res.pteAddr, pte);
    return true;
}

bool
PageTable::accessedBit(Addr va) const
{
    WalkResult res = walk(va);
    return res.valid && (res.perms & PteAccessed);
}

bool
PageTable::dirtyBit(Addr va) const
{
    WalkResult res = walk(va);
    return res.valid && (res.perms & PteDirty);
}

void
PageTable::clearAccessedDirty(Addr va)
{
    WalkResult res = walk(va);
    if (!res.valid)
        return;
    std::uint64_t pte = _mem->read64(res.pteAddr);
    pte &= ~(std::uint64_t(PteAccessed) | PteDirty);
    _mem->write64(res.pteAddr, pte);
}

void
PageTable::setAccessedDirty(Addr va, bool accessed, bool dirty)
{
    WalkResult res = walk(va);
    if (!res.valid)
        return;
    std::uint64_t pte = _mem->read64(res.pteAddr);
    if (accessed)
        pte |= PteAccessed;
    if (dirty)
        pte |= PteDirty;
    _mem->write64(res.pteAddr, pte);
}

void
PageTable::walkRecurse(
    Addr table, int level, Addr va_prefix,
    const std::function<void(Addr, const WalkResult &)> &fn) const
{
    for (Addr idx = 0; idx < (1ULL << bitsPerLevel); ++idx) {
        std::uint64_t pte = _mem->read64(table + idx * 8);
        if (!(pte & PteValid))
            continue;
        Addr va = va_prefix |
                  (idx << (pageShift + bitsPerLevel * level));
        if (level == 0) {
            WalkResult res;
            res.valid = true;
            res.pa = pteTarget(pte);
            res.perms = pte & permMask;
            res.keyId = static_cast<KeyId>(pte >> keyShift);
            res.pteAddr = table + idx * 8;
            res.levels = levels;
            fn(va, res);
        } else {
            walkRecurse(pteTarget(pte), level - 1, va, fn);
        }
    }
}

void
PageTable::forEachMapping(
    const std::function<void(Addr, const WalkResult &)> &fn) const
{
    walkRecurse(_root, levels - 1, 0, fn);
}

} // namespace hypertee
