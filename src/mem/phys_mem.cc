#include "mem/phys_mem.hh"

#include <cstring>

#include "sim/logging.hh"

namespace hypertee
{

PhysicalMemory::PhysicalMemory(Addr base, Addr size)
    : _base(base), _size(size)
{
    fatalIf(size == 0, "physical memory must be non-empty");
    fatalIf(base % pageSize != 0, "memory base must be page aligned");
    fatalIf(size % pageSize != 0, "memory size must be page aligned");
    _regions.resize(((size - 1) >> regionShift) + 1);
}

PhysicalMemory::Page &
PhysicalMemory::materialize(Addr addr)
{
    std::unique_ptr<Region> &region = _regions[regionIndex(addr)];
    if (!region)
        region = std::make_unique<Region>();
    std::unique_ptr<Page> &page = region->pages[pageIndex(addr)];
    if (!page) {
        page = std::make_unique<Page>(); // value-initialized: zeroes
        ++region->live;
    }
    return *page;
}

std::size_t
PhysicalMemory::touchedPages() const
{
    std::size_t pages = 0;
    for (const std::unique_ptr<Region> &region : _regions)
        pages += region ? region->live : 0;
    return pages;
}

void
PhysicalMemory::write(Addr addr, const std::uint8_t *data, Addr len)
{
    panicIf(!containsRange(addr, len), "physical write out of range: ",
            addr, "+", len);
    while (len > 0) {
        Addr in_page = addr - pageAlign(addr);
        Addr take = std::min<Addr>(len, pageSize - in_page);
        std::memcpy(pageFor(addr).data() + in_page, data, take);
        addr += take;
        data += take;
        len -= take;
    }
}

void
PhysicalMemory::read(Addr addr, std::uint8_t *data, Addr len) const
{
    panicIf(!containsRange(addr, len), "physical read out of range: ",
            addr, "+", len);
    while (len > 0) {
        Addr in_page = addr - pageAlign(addr);
        Addr take = std::min<Addr>(len, pageSize - in_page);
        const Page *page = pageForRead(addr);
        if (page) {
            std::memcpy(data, page->data() + in_page, take);
        } else {
            std::memset(data, 0, take);
        }
        addr += take;
        data += take;
        len -= take;
    }
}

void
PhysicalMemory::writeBytes(Addr addr, const Bytes &data)
{
    write(addr, data.data(), data.size());
}

Bytes
PhysicalMemory::readBytes(Addr addr, Addr len) const
{
    Bytes out(len);
    read(addr, out.data(), len);
    return out;
}

std::uint64_t
PhysicalMemory::read64Spanning(Addr addr) const
{
    std::uint8_t buf[8];
    read(addr, buf, 8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | buf[i];
    return v;
}

void
PhysicalMemory::write64Spanning(Addr addr, std::uint64_t value)
{
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
    write(addr, buf, 8);
}

void
PhysicalMemory::zeroSlow(Addr addr, Addr len)
{
    panicIf(!containsRange(addr, len), "physical zero out of range: ", addr,
            "+", len);
    while (len > 0) {
        Addr in_page = addr - pageAlign(addr);
        Addr take = std::min<Addr>(len, pageSize - in_page);
        if (in_page == 0 && take == pageSize) {
            // Whole page: drop the backing store instead of writing,
            // and the region with its last page.
            std::unique_ptr<Region> &region = _regions[regionIndex(addr)];
            if (region) {
                std::unique_ptr<Page> &page = region->pages[pageIndex(addr)];
                if (page) {
                    page.reset();
                    if (--region->live == 0)
                        region.reset();
                }
            }
        } else {
            std::memset(pageFor(addr).data() + in_page, 0, take);
        }
        addr += take;
        len -= take;
    }
}

} // namespace hypertee
