/**
 * @file
 * The EMS Runtime: the software side of the HyperTEE IP.
 *
 * Receives primitive requests from the mailbox (doorbell-driven),
 * sanity-checks every argument (Section III-B protection 3), executes
 * the management task against the real page tables / bitmap /
 * ownership table / key hierarchy, and answers with a response packet
 * whose completedAt field carries the modelled EMS-side service time.
 *
 * The paper's runtime is 3843 lines of Rust on the EMS core; this is
 * its C++ twin living inside the simulator, with the same externally
 * visible behaviour at primitive granularity.
 */

#ifndef HYPERTEE_EMS_RUNTIME_HH
#define HYPERTEE_EMS_RUNTIME_HH

#include <map>
#include <memory>
#include <set>
#include <span>

#include "crypto/crypto_engine.hh"
#include "ems/attestation.hh"
#include "ems/cost_model.hh"
#include "ems/enclave_control.hh"
#include "ems/key_manager.hh"
#include "ems/memory_pool.hh"
#include "ems/ownership.hh"
#include "fabric/ihub.hh"
#include "sim/random.hh"

namespace hypertee
{

/** Shared-memory control structure (Section V). */
struct ShmControl
{
    ShmId id = 0;
    EnclaveId creator = invalidEnclaveId;
    std::vector<Addr> pages;
    std::uint64_t maxPerms = 0; ///< PteRead|PteWrite ceiling
    KeyId keyId = 0;
    /** legal connection list: enclave -> granted permissions. */
    std::map<EnclaveId, std::uint64_t> legalConnections;
    std::set<EnclaveId> attached;
};

struct EmsRuntimeParams
{
    EmsCostParams cost = emsMediumCost();
    CryptoEngineParams crypto;
    bool cryptoEnginePresent = true;
    EnclaveMemoryPool::Params pool;
    std::uint64_t seed = 0xE5E5;
    /** Cache+TLB scrub time charged when a KeyID is recycled. */
    Tick keyRecycleFlushTime = 12'000'000; ///< 12 us
};

class EmsRuntime
{
  public:
    /**
     * @param port the EMS-side iHub capability
     * @param cs_mem the CS physical memory (the same capability the
     *        port wraps; needed directly for page-table plumbing)
     * @param os the CS OS the memory pool draws its batches from
     */
    EmsRuntime(EmsPort *port, PhysicalMemory *cs_mem,
               const KeyManager &km, const EmsRuntimeParams &params,
               OsFrames &os);

    /**
     * Secure boot (Section VI): verify the runtime image and CS
     * firmware hashes against the EEPROM values, then compute the
     * platform measurement. Primitives are rejected until this
     * succeeds.
     */
    bool secureBoot(const Bytes &runtime_image,
                    const Bytes &expected_runtime_hash,
                    const Bytes &cs_firmware,
                    const Bytes &expected_firmware_hash);

    bool booted() const { return _booted; }
    const Bytes &platformMeasurement() const { return _platformMeas; }

    /** Install the doorbell so mailbox requests are serviced. */
    void connectMailbox();

    /** Service every pending mailbox request. */
    void drain();

    /**
     * Dispatch one request (also used directly by tests). Emits one
     * "EMS <prim>" trace span covering the modelled service time.
     */
    PrimitiveResponse handle(const PrimitiveRequest &req);

    // ---- introspection (tests, benches, EmCall hook wiring) ----
    /** nullptr for an unknown or destroyed enclave. */
    const EnclaveControl *enclave(EnclaveId id) const;
    const PageTable *enclavePageTable(EnclaveId id) const;
    const ShmControl *shm(ShmId id) const;
    EnclaveMemoryPool &pool() { return *_pool; }
    PageOwnershipTable &ownership() { return _ownership; }
    const KeyManager &keyManager() const { return _km; }
    CryptoEngine &cryptoEngine() { return _engine; }
    const EmsCostModel &costModel() const { return _cost; }

    std::uint64_t sanityRejections() const { return _sanityRejections; }
    std::uint64_t shmGuessRejections() const { return _shmGuesses; }

    /** Release an enclave's KeyID under slot pressure. */
    bool suspendEnclave(EnclaveId id);

    /**
     * Enclave-peripheral sharing (Section V-B): on the driver
     * enclave's request, program DMA whitelist windows covering a
     * shared region's physical pages for @p device. The caller must
     * hold a legal connection to the region.
     * @param first_window first whitelist register pair to use.
     * @return number of windows programmed (0 on rejection).
     */
    std::size_t grantDmaAccess(EnclaveId caller, ShmId shm_id,
                               std::uint32_t device,
                               std::uint8_t perms,
                               std::size_t first_window = 0);

  private:
    using Handler = PrimitiveResponse (EmsRuntime::*)(
        const PrimitiveRequest &, Tick &);

    PrimitiveResponse reject(PrimStatus status);

    /** handle() minus the tracing wrapper. */
    PrimitiveResponse handleImpl(const PrimitiveRequest &req);

    EnclaveControl *liveEnclave(EnclaveId id);
    KeyId assignKeyId(const Bytes &key, Tick &service);
    /**
     * The one way a CS page leaves the pool: fill @p ppns from it all
     * or nothing, then zero, claim and bitmap-protect each page and
     * charge the zero and map time. Returns false (no page taken,
     * nothing charged) when the pool cannot supply them.
     */
    bool grantPages(std::span<Addr> ppns, EnclaveId owner, PageKind kind,
                    ShmId shm, Tick &service);
    /** The one way back: scrub, unprotect, disown and pool each page. */
    void scrubAndReturn(std::span<const Addr> ppns, Tick &service);
    /** Map @p ppns at @p va in @p enc, charging per page. */
    void mapEnclaveRun(EnclaveControl &enc, Addr va,
                       std::span<const Addr> ppns, std::uint64_t perms,
                       Tick &service);
    /** Scrub and return every page of a live enclave, then forget it. */
    void teardown(EnclaveId id, Tick &service);

    PrimitiveResponse doCreate(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doAdd(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doEnter(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doResume(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doExit(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doDestroy(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doAlloc(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doFree(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doWb(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doShmGet(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doShmAt(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doShmDt(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doShmShr(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doShmDes(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doMeas(const PrimitiveRequest &, Tick &);
    PrimitiveResponse doAttest(const PrimitiveRequest &, Tick &);

    PageTable::FrameAllocator makeFrameAllocator(EnclaveId owner);

    EmsPort *_port;
    PhysicalMemory *_csMem;
    KeyManager _km;
    Tick _pendingFrameCharge = 0;
    EmsRuntimeParams _p;
    EmsCostModel _cost;
    CryptoEngine _engine;
    Random _rng;
    std::unique_ptr<EnclaveMemoryPool> _pool;
    PageOwnershipTable _ownership;

    /**
     * Handler scratch, kept so a steady-state primitive allocates
     * nothing: the run EALLOC drew, EFREE's and ESHMDT's leaf
     * slots, and the pages EFREE and EDESTROY hand back.
     */
    std::vector<Addr> _grantBuf;
    std::vector<LeafSlot> _slotBuf;
    std::vector<Addr> _returnBuf;

    std::map<EnclaveId, EnclaveControl> _enclaves;
    std::map<ShmId, ShmControl> _shms;
    EnclaveId _nextEnclave = 1;
    ShmId _nextShm = 1;
    KeyId _nextKey = 1;

    bool _booted = false;
    Bytes _platformMeas;
    std::uint64_t _sanityRejections = 0;
    std::uint64_t _shmGuesses = 0;
};

} // namespace hypertee

#endif // HYPERTEE_EMS_RUNTIME_HH
