#include "ems/ownership.hh"

namespace hypertee
{

bool
PageOwnershipTable::claim(Addr ppn, EnclaveId owner, PageKind kind,
                          ShmId shm)
{
    auto [it, inserted] = _table.try_emplace(ppn, PageOwner{owner, kind,
                                                            shm});
    if (!inserted) {
        ++_conflicts;
        return false;
    }
    if (kind == PageKind::Private) {
        PageList &list = _lists[owner];
        it->second.prev = list.tail;
        if (list.tail == noPage)
            list.head = ppn;
        else
            _table.at(list.tail).next = ppn;
        list.tail = ppn;
        ++list.count;
    }
    return true;
}

bool
PageOwnershipTable::release(Addr ppn)
{
    auto it = _table.find(ppn);
    if (it == _table.end())
        return false;
    const PageOwner &page = it->second;
    if (page.kind == PageKind::Private) {
        auto found = _lists.find(page.owner);
        PageList &list = found->second;
        if (page.prev == noPage)
            list.head = page.next;
        else
            _table.at(page.prev).next = page.next;
        if (page.next == noPage)
            list.tail = page.prev;
        else
            _table.at(page.next).prev = page.prev;
        if (--list.count == 0)
            _lists.erase(found);
    }
    _table.erase(it);
    return true;
}

const PageOwner *
PageOwnershipTable::lookup(Addr ppn) const
{
    auto it = _table.find(ppn);
    return it == _table.end() ? nullptr : &it->second;
}

std::vector<Addr>
PageOwnershipTable::pagesOf(EnclaveId enclave) const
{
    std::vector<Addr> out;
    auto list = _lists.find(enclave);
    if (list == _lists.end())
        return out;
    out.reserve(list->second.count);
    for (Addr ppn = list->second.head; ppn != noPage;
         ppn = _table.at(ppn).next)
        out.push_back(ppn);
    return out;
}

std::size_t
PageOwnershipTable::privatePages(EnclaveId enclave) const
{
    auto list = _lists.find(enclave);
    return list == _lists.end() ? 0 : list->second.count;
}

} // namespace hypertee
