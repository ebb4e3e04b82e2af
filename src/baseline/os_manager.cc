#include "baseline/os_manager.hh"

#include <utility>

namespace hypertee
{

BaselineOsManager::BaselineOsManager(TeeModel model)
    : _exposure(exposureOf(model))
{
}

void
BaselineOsManager::victimAllocate(Addr va)
{
    _accessed[pageAlign(va)] = false;
    if (_exposure.allocationEventsVisible)
        ++_allocationEvents;
}

void
BaselineOsManager::victimTouch(Addr va)
{
    // A non-resident page faults: a swap-in, visible to the OS that
    // owns paging.
    auto [it, faulted] = _accessed.try_emplace(pageAlign(va), true);
    if (faulted && _exposure.swapVictimsAttackerChosen)
        _faultEvents.push_back(it->first);
    it->second = true;
}

std::size_t
BaselineOsManager::drainAllocationEvents()
{
    return std::exchange(_allocationEvents, 0);
}

bool
BaselineOsManager::readAccessedBit(Addr va, bool &value)
{
    if (!_exposure.pageTablesAttackerManaged)
        return false; // tables are enclave/module-private
    auto it = _accessed.find(pageAlign(va));
    value = (it != _accessed.end()) && it->second;
    return true;
}

bool
BaselineOsManager::clearAccessedBit(Addr va)
{
    if (!_exposure.pageTablesAttackerManaged)
        return false;
    if (auto it = _accessed.find(pageAlign(va)); it != _accessed.end())
        it->second = false;
    return true;
}

bool
BaselineOsManager::evictPage(Addr va)
{
    if (!_exposure.swapVictimsAttackerChosen)
        return false; // EMS (or enclave) chooses swap pages instead
    _accessed.erase(pageAlign(va));
    return true;
}

std::vector<Addr>
BaselineOsManager::drainFaultEvents()
{
    return std::exchange(_faultEvents, {});
}

} // namespace hypertee
