#include "ems/ownership.hh"

namespace hypertee
{

PageOwnershipTable::Region *
PageOwnershipTable::findRegionSlow(Addr number) const
{
    auto it = _regions.find(number);
    if (it == _regions.end())
        return nullptr; // misses are never cached
    _cachedNumber = number;
    _cachedRegion = it->second.get();
    return _cachedRegion;
}

bool
PageOwnershipTable::claim(Addr ppn, EnclaveId owner, PageKind kind,
                          ShmId shm)
{
    const Addr number = ppn >> regionShift;
    Region *region = findRegion(number);
    if (!region) {
        if (_parkedCount != 0) {
            RegionMap::node_type &node = _parked[--_parkedCount];
            node.key() = number;
            region = node.mapped().get();
            _regions.insert(std::move(node));
        } else {
            region = (_regions[number] = std::make_unique<Region>()).get();
        }
        _cachedNumber = number;
        _cachedRegion = region;
    }
    Slot &slot = region->slots[ppn & (regionFrames - 1)];
    if (slot.used) {
        ++_conflicts;
        return false;
    }
    slot = Slot{PageOwner{owner, kind, shm}, true, noPage, noPage};
    ++region->live;
    ++_size;
    if (kind == PageKind::Private) {
        PageList &list = _lists[owner];
        slot.prev = list.tail;
        if (list.tail == noPage)
            list.head = ppn;
        else
            linked(list.tail).next = ppn;
        list.tail = ppn;
        ++list.count;
    }
    return true;
}

bool
PageOwnershipTable::release(Addr ppn)
{
    const Addr number = ppn >> regionShift;
    Region *region = findRegion(number);
    if (!region)
        return false;
    Slot &slot = region->slots[ppn & (regionFrames - 1)];
    if (!slot.used)
        return false;
    if (slot.page.kind == PageKind::Private) {
        auto found = _lists.find(slot.page.owner);
        PageList &list = found->second;
        if (slot.prev == noPage)
            list.head = slot.next;
        else
            linked(slot.prev).next = slot.next;
        if (slot.next == noPage)
            list.tail = slot.prev;
        else
            linked(slot.next).prev = slot.prev;
        if (--list.count == 0)
            _lists.erase(found);
    }
    slot = Slot{};
    --_size;
    if (--region->live == 0) {
        // Every slot was reset on its release, so the region can be
        // parked as it is; past maxParked it is freed.
        RegionMap::node_type node = _regions.extract(number);
        if (_parkedCount < maxParked)
            _parked[_parkedCount++] = std::move(node);
        if (_cachedNumber == number) {
            _cachedNumber = noPage;
            _cachedRegion = nullptr;
        }
    }
    return true;
}

std::vector<Addr>
PageOwnershipTable::pagesOf(EnclaveId enclave) const
{
    std::vector<Addr> out;
    pagesOf(enclave, out);
    return out;
}

void
PageOwnershipTable::pagesOf(EnclaveId enclave, std::vector<Addr> &out) const
{
    out.clear();
    auto list = _lists.find(enclave);
    if (list == _lists.end())
        return;
    out.reserve(list->second.count);
    for (Addr ppn = list->second.head; ppn != noPage;
         ppn = linked(ppn).next)
        out.push_back(ppn);
}

std::size_t
PageOwnershipTable::privatePages(EnclaveId enclave) const
{
    auto list = _lists.find(enclave);
    return list == _lists.end() ? 0 : list->second.count;
}

} // namespace hypertee
