#include "fabric/ihub.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace hypertee
{

IHub::IHub(PhysicalMemory *cs_mem, PhysicalMemory *ems_mem,
           EnclaveBitmap *bitmap, MemoryEncryptionEngine *enc_engine)
    : _csMem(cs_mem), _emsMem(ems_mem), _bitmap(bitmap),
      _encEngine(enc_engine), _emsPort(this)
{
    panicIf(cs_mem == nullptr || ems_mem == nullptr,
            "iHub needs both memories");
}

bool
IHub::csAccessAllowed(Addr addr, Addr len)
{
    // Reject any range that touches EMS private memory at all — a
    // boundary-straddling access must die here explicitly, not
    // incidentally via the CS containment check below — and any
    // range not fully inside CS memory.
    if (_emsMem->overlapsRange(addr, len) ||
        !_csMem->containsRange(addr, len)) {
        ++_blockedCs;
        HT_TRACE_INSTANT1(TraceCategory::IHub, "ihub.csBlocked",
                          TraceSink::global().now(), "addr", addr);
        return false;
    }
    return true;
}

bool
IHub::csRead(Addr addr, std::uint8_t *data, Addr len)
{
    if (!csAccessAllowed(addr, len))
        return false;
    HT_TRACE_INSTANT1(TraceCategory::IHub, "ihub.csRead",
                      TraceSink::global().now(), "len", len);
    _csMem->read(addr, data, len);
    return true;
}

bool
IHub::csWrite(Addr addr, const std::uint8_t *data, Addr len)
{
    if (!csAccessAllowed(addr, len))
        return false;
    HT_TRACE_INSTANT1(TraceCategory::IHub, "ihub.csWrite",
                      TraceSink::global().now(), "len", len);
    _csMem->write(addr, data, len);
    return true;
}

EmsPort &
IHub::emsPort()
{
    panicIf(_portTaken, "EMS port already taken");
    _portTaken = true;
    return _emsPort;
}

bool
IHub::dmaAccess(std::uint32_t device, Addr addr, Addr len, bool write)
{
    return _dma.check(device, addr, len, write);
}

// --------------------------------------------------------------- EmsPort

Bytes
EmsPort::readCs(Addr addr, Addr len) const
{
    HT_TRACE_INSTANT1(TraceCategory::IHub, "ihub.emsRead",
                      TraceSink::global().now(), "len", len);
    return _hub->_csMem->readBytes(addr, len);
}

void
EmsPort::writeCs(Addr addr, const Bytes &data)
{
    HT_TRACE_INSTANT1(TraceCategory::IHub, "ihub.emsWrite",
                      TraceSink::global().now(), "len", data.size());
    _hub->_csMem->writeBytes(addr, data);
}

void
EmsPort::zeroCs(Addr addr, Addr len)
{
    HT_TRACE_INSTANT1(TraceCategory::IHub, "ihub.emsZero",
                      TraceSink::global().now(), "len", len);
    _hub->_csMem->zero(addr, len);
}

bool
EmsPort::setBitmapBit(Addr ppn, bool enclave)
{
    return _hub->_bitmap->setEnclavePage(ppn, enclave);
}

bool
EmsPort::configureKey(KeyId id, const Bytes &key)
{
    return _hub->_encEngine->configureKey(id, key);
}

void
EmsPort::releaseKey(KeyId id)
{
    _hub->_encEngine->releaseKey(id);
}

bool
EmsPort::keyConfigured(KeyId id) const
{
    return _hub->_encEngine->hasKey(id);
}

bool
EmsPort::configureDmaWindow(std::size_t window, std::uint32_t device,
                            Addr base, Addr size, std::uint8_t perms)
{
    return _hub->_dma.configure(window, device, base, size, perms);
}

void
EmsPort::clearDmaWindow(std::size_t window)
{
    _hub->_dma.clear(window);
}

Mailbox &
EmsPort::mailbox()
{
    return _hub->_mailbox;
}

} // namespace hypertee
