#include "core/system.hh"

#include "crypto/sha256.hh"
#include "sim/logging.hh"

namespace hypertee
{

HyperTeeSystem::HyperTeeSystem(const SystemParams &params) : _p(params)
{
    _csMem = std::make_unique<PhysicalMemory>(_p.csMemBase, _p.csMemSize);
    _emsMem =
        std::make_unique<PhysicalMemory>(_p.emsMemBase, _p.emsMemSize);

    // The chip initialization logic reserves the bitmap region at the
    // base of CS memory; the OS frame allocator starts above it.
    _bitmap = std::make_unique<EnclaveBitmap>(_csMem.get(), _p.csMemBase);
    _osFrames = std::make_unique<OsFrames>(
        pageNumber(_p.csMemBase + _bitmap->regionSize()),
        pageNumber(_p.csMemBase + _p.csMemSize));

    _encEngine =
        std::make_unique<MemoryEncryptionEngine>(_p.encryptionKeySlots);
    Random key_rng(_p.seed ^ 0x1eaf);
    Bytes integ_key(16);
    for (auto &b : integ_key)
        b = static_cast<std::uint8_t>(key_rng.next());
    _integEngine = std::make_unique<MemoryIntegrityEngine>(integ_key);

    _ihub = std::make_unique<IHub>(_csMem.get(), _emsMem.get(),
                                   _bitmap.get(), _encEngine.get());

    // eFuse keys burnt at manufacturing: deterministic from the seed
    // so experiments replay exactly.
    EFuse efuse;
    efuse.endorsementSeed.resize(32);
    efuse.sealedKey.resize(32);
    for (auto &b : efuse.endorsementSeed)
        b = static_cast<std::uint8_t>(key_rng.next());
    for (auto &b : efuse.sealedKey)
        b = static_cast<std::uint8_t>(key_rng.next());
    _km = std::make_unique<KeyManager>(efuse);
    _ekPublic = _km->endorsementPublicKey();

    // EMS runtime, fed by the OS frame allocator.
    _ems = std::make_unique<EmsRuntime>(&_ihub->emsPort(), _csMem.get(),
                                        *_km, _p.ems, *_osFrames);

    // Secure boot: EEPROM hashes match the shipped images.
    Bytes runtime_image = bytesFromString("hypertee-ems-runtime-v1");
    Bytes cs_firmware = bytesFromString("hypertee-emcall-firmware-v1");
    bool boot_ok = _ems->secureBoot(runtime_image,
                                    Sha256::digest(runtime_image),
                                    cs_firmware,
                                    Sha256::digest(cs_firmware));
    panicIf(!boot_ok, "secure boot failed with matching hashes");
    _ems->connectMailbox();

    // Host page table (the OS's own address space management).
    _hostPt = std::make_unique<PageTable>(_csMem.get(), [this] {
        std::optional<Addr> ppn = _osFrames->grantOne();
        fatalIf(!ppn, "OS out of frames for host page tables");
        return *ppn << pageShift;
    });

    // CS cores + one EMCall gate per core, with context hooks.
    for (unsigned i = 0; i < _p.csCoreCount; ++i) {
        auto core = std::make_unique<Core>(_p.csCore, _bitmap.get());
        core->hierarchy().attachEngines(_encEngine.get(),
                                        _integEngine.get());
        core->hierarchy().setProtectionEnabled(true);
        core->mmu().setPageTable(_hostPt.get());

        EmCallParams ep = _p.emcall;
        ep.csFreqHz = _p.csCore.freqHz;
        ep.reqIdBase = std::uint64_t(i) << 48;
        auto gate = std::make_unique<EmCall>(&_ihub->mailbox(), ep,
                                             _p.seed ^ (0xca11 + i));

        Core *core_ptr = core.get();
        EmCallHooks hooks;
        hooks.switchContext = [this, core_ptr](EnclaveId enclave,
                                               bool enclave_mode) {
            const PageTable *pt =
                enclave_mode ? _ems->enclavePageTable(enclave)
                             : _hostPt.get();
            panicIf(pt == nullptr, "context switch to unknown enclave ",
                    enclave);
            core_ptr->mmu().setPageTable(pt);
            core_ptr->mmu().setEnclaveMode(enclave_mode);
            core_ptr->mmu().flushTlbs();
        };
        hooks.flushTlb = [core_ptr] { core_ptr->mmu().flushTlbs(); };
        gate->setHooks(std::move(hooks));

        _cores.push_back(std::move(core));
        _emCalls.push_back(std::move(gate));
    }
}

const Bytes &
HyperTeeSystem::platformMeasurement() const
{
    return _ems->platformMeasurement();
}

void
HyperTeeSystem::osMapRange(Addr va, Addr bytes, std::uint64_t perms)
{
    for (Addr off = 0; off < bytes; off += pageSize) {
        std::optional<Addr> ppn = _osFrames->grantOne();
        fatalIf(!ppn, "OS out of physical frames");
        _hostPt->map(va + off, *ppn << pageShift, perms | PteUser);
    }
}

} // namespace hypertee
