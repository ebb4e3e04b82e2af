#include "mem/bitmap.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace hypertee
{

EnclaveBitmap::EnclaveBitmap(PhysicalMemory *mem, Addr bm_base)
    : _mem(mem), _bmBase(bm_base)
{
    panicIf(mem == nullptr, "bitmap requires physical memory");
    fatalIf(bm_base % pageSize != 0, "BM_BASE must be page aligned");
    fatalIf(!mem->contains(bm_base), "BM_BASE outside physical memory");

    _firstPpn = pageNumber(mem->base());
    _pageCount = mem->size() >> pageShift;
    Addr bytes = (_pageCount + 7) / 8;
    _regionSize = pagesFor(bytes) << pageShift;
    fatalIf(!mem->containsRange(bm_base, _regionSize),
            "bitmap region does not fit in physical memory");

    _mem->zero(_bmBase, _regionSize);

    // The bitmap protects itself: mark its own pages as enclave.
    for (Addr p = pageNumber(_bmBase);
         p < pageNumber(_bmBase + _regionSize); ++p) {
        setEnclavePage(p, true);
    }
}

Addr
EnclaveBitmap::bitAddr(Addr ppn, int &bit_in_byte) const
{
    panicIf(ppn < _firstPpn || ppn >= _firstPpn + _pageCount,
            "bitmap lookup for ppn outside memory: ", ppn);
    Addr index = ppn - _firstPpn;
    bit_in_byte = static_cast<int>(index % 8);
    return _bmBase + index / 8;
}

bool
EnclaveBitmap::isEnclavePage(Addr ppn) const
{
    int bit;
    Addr addr = bitAddr(ppn, bit);
    return (_mem->read8(addr) >> bit) & 1;
}

bool
EnclaveBitmap::setEnclavePage(Addr ppn, bool enclave)
{
    int bit;
    Addr addr = bitAddr(ppn, bit);
    std::uint8_t byte = _mem->read8(addr);
    bool current = (byte >> bit) & 1;
    if (current == enclave)
        return false;
    if (enclave) {
        byte |= std::uint8_t(1) << bit;
        ++_enclavePages;
    } else {
        byte = static_cast<std::uint8_t>(byte & ~(1 << bit));
        --_enclavePages;
    }
    _mem->write8(addr, byte);
    ++_updates;
    HT_TRACE_INSTANT1(TraceCategory::Bitmap,
                      enclave ? "bitmap.set" : "bitmap.clear",
                      TraceSink::global().now(), "ppn", ppn);
    return true;
}

} // namespace hypertee
