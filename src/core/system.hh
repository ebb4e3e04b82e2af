/**
 * @file
 * HyperTeeSystem: the full simulated SoC (Figure 1).
 *
 * Assembles CS memory + cores, EMS private memory, the enclave
 * bitmap, the multi-key memory encryption and integrity engines, the
 * iHub with its mailbox and DMA whitelist, the per-core EMCall gates
 * and a secure-booted EMS runtime. Also provides a minimal CS OS
 * model: one OsFrames frame allocator and a host page table, which is
 * all the untrusted OS contributes to enclave management here.
 */

#ifndef HYPERTEE_CORE_SYSTEM_HH
#define HYPERTEE_CORE_SYSTEM_HH

#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "emcall/emcall.hh"
#include "ems/runtime.hh"
#include "fabric/ihub.hh"
#include "mem/bitmap.hh"
#include "mem/mem_crypto.hh"
#include "mem/phys_mem.hh"

namespace hypertee
{

struct SystemParams
{
    Addr csMemBase = 0x8000'0000;
    Addr csMemSize = 512ULL * 1024 * 1024;
    Addr emsMemBase = 0x10'0000'0000ULL;
    Addr emsMemSize = 64ULL * 1024 * 1024;
    unsigned csCoreCount = 4;
    CoreParams csCore = csCoreParams();
    EmCallParams emcall;
    EmsRuntimeParams ems;
    std::size_t encryptionKeySlots = 64;
    std::uint64_t seed = 0x4242;
};

class HyperTeeSystem
{
  public:
    explicit HyperTeeSystem(const SystemParams &params = {});

    // ---- hardware blocks ----
    PhysicalMemory &csMem() { return *_csMem; }
    PhysicalMemory &emsMem() { return *_emsMem; }
    EnclaveBitmap &bitmap() { return *_bitmap; }
    MemoryEncryptionEngine &encryptionEngine() { return *_encEngine; }
    MemoryIntegrityEngine &integrityEngine() { return *_integEngine; }
    IHub &ihub() { return *_ihub; }

    unsigned coreCount() const { return unsigned(_cores.size()); }
    Core &core(unsigned i) { return *_cores.at(i); }
    EmCall &emCall(unsigned i) { return *_emCalls.at(i); }
    EmsRuntime &ems() { return *_ems; }
    const KeyManager &keyManager() const { return *_km; }

    /** Vendor CA view: the certified EK public key. */
    const Bytes &certifiedEkPublic() const { return _ekPublic; }

    /** Platform measurement established by secure boot. */
    const Bytes &platformMeasurement() const;

    // ---- minimal CS OS ----
    /** Host (non-enclave) address space. */
    PageTable &hostPageTable() { return *_hostPt; }
    /** Map fresh frames for a host VA range. */
    void osMapRange(Addr va, Addr bytes, std::uint64_t perms);

    /** Grants the OS made to the EMS pool (attack observable). */
    std::uint64_t osPoolGrants() const { return _ems->pool().osRequests(); }

  private:
    SystemParams _p;

    std::unique_ptr<PhysicalMemory> _csMem;
    std::unique_ptr<PhysicalMemory> _emsMem;
    std::unique_ptr<EnclaveBitmap> _bitmap;
    /** CS memory above the bitmap: host page tables, host mappings
     *  and the EMS pool's batches all come from here. */
    std::unique_ptr<OsFrames> _osFrames;
    std::unique_ptr<MemoryEncryptionEngine> _encEngine;
    std::unique_ptr<MemoryIntegrityEngine> _integEngine;
    std::unique_ptr<IHub> _ihub;
    std::unique_ptr<KeyManager> _km;
    std::unique_ptr<EmsRuntime> _ems;
    std::vector<std::unique_ptr<Core>> _cores;
    std::vector<std::unique_ptr<EmCall>> _emCalls;
    std::unique_ptr<PageTable> _hostPt;

    Bytes _ekPublic;
};

} // namespace hypertee

#endif // HYPERTEE_CORE_SYSTEM_HH
