/**
 * @file
 * iHub: the bridge between the computing subsystem and the HyperTEE
 * IP (Sections III-A, III-D).
 *
 * Enforces the unidirectional isolation the paper's design rests on:
 *   - EMS may access the whole CS memory space and I/O devices;
 *   - CS can never reach EMS private memory, the mailbox internals,
 *     the DMA whitelist registers, or the encryption-engine key
 *     table.
 * The EMS-only operations are exposed through an EmsPort object that
 * is handed exclusively to the EMS at construction — CS-side code
 * has no path to them, and blocked CS probes are counted.
 */

#ifndef HYPERTEE_FABRIC_IHUB_HH
#define HYPERTEE_FABRIC_IHUB_HH

#include <memory>

#include "fabric/dma_whitelist.hh"
#include "fabric/mailbox.hh"
#include "mem/bitmap.hh"
#include "mem/mem_crypto.hh"
#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace hypertee
{

class IHub;

/**
 * Capability handle for EMS-side operations. Constructed only by
 * IHub; possession is the model's equivalent of being wired to the
 * EMS-side port of the hub.
 */
class EmsPort
{
  public:
    /** Read/write anywhere in CS memory (unidirectional access). */
    Bytes readCs(Addr addr, Addr len) const;
    void writeCs(Addr addr, const Bytes &data);
    void zeroCs(Addr addr, Addr len);

    /** Update the enclave bitmap (lives in CS memory). */
    bool setBitmapBit(Addr ppn, bool enclave);

    /** Program the memory-encryption key table. */
    bool configureKey(KeyId id, const Bytes &key);
    void releaseKey(KeyId id);
    bool keyConfigured(KeyId id) const;

    /** Program a DMA whitelist window. */
    bool configureDmaWindow(std::size_t window, std::uint32_t device,
                            Addr base, Addr size, std::uint8_t perms);
    void clearDmaWindow(std::size_t window);

    Mailbox &mailbox();

  private:
    friend class IHub;
    explicit EmsPort(IHub *hub) : _hub(hub) {}
    IHub *_hub;
};

class IHub
{
  public:
    /**
     * @param cs_mem computing-subsystem memory
     * @param ems_mem EMS private memory (invisible to CS)
     */
    IHub(PhysicalMemory *cs_mem, PhysicalMemory *ems_mem,
         EnclaveBitmap *bitmap, MemoryEncryptionEngine *enc_engine);

    /**
     * CS-side load/store gateway. Rejects (and counts) any attempt
     * to touch EMS private space; CS never sees those bytes.
     * @return true when the access proceeded.
     */
    bool csRead(Addr addr, std::uint8_t *data, Addr len);
    bool csWrite(Addr addr, const std::uint8_t *data, Addr len);

    /** The one EMS-side capability handle. Call exactly once. */
    EmsPort &emsPort();

    /** DMA transaction check (devices sit on the CS fabric). */
    bool dmaAccess(std::uint32_t device, Addr addr, Addr len, bool write);

    Mailbox &mailbox() { return _mailbox; }
    const DmaWhitelist &dmaWhitelist() const { return _dma; }

    std::uint64_t blockedCsAccesses() const { return _blockedCs; }

    /** One fabric hop (CS <-> iHub or iHub <-> EMS). */
    Tick hopLatency() const { return _hopLatency; }
    void setHopLatency(Tick t) { _hopLatency = t; }

  private:
    friend class EmsPort;

    /** Gate check shared by csRead/csWrite; counts blocked probes. */
    bool csAccessAllowed(Addr addr, Addr len);

    PhysicalMemory *_csMem;
    PhysicalMemory *_emsMem;
    EnclaveBitmap *_bitmap;
    MemoryEncryptionEngine *_encEngine;
    Mailbox _mailbox;
    DmaWhitelist _dma;
    EmsPort _emsPort;
    bool _portTaken = false;
    std::uint64_t _blockedCs = 0;
    Tick _hopLatency = 40'000; ///< 40 ns per hop
};

} // namespace hypertee

#endif // HYPERTEE_FABRIC_IHUB_HH
