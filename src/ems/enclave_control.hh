/**
 * @file
 * Enclave control structures, kept in EMS private memory.
 *
 * The CS never sees these: the runtime exposes only primitive
 * results. The per-enclave private page table (Section IV-A) hangs
 * off the control structure and its frames are drawn from the
 * enclave memory pool, so the table itself is enclave memory.
 */

#ifndef HYPERTEE_EMS_ENCLAVE_CONTROL_HH
#define HYPERTEE_EMS_ENCLAVE_CONTROL_HH

#include <map>
#include <memory>

#include "crypto/bytes.hh"
#include "crypto/sha256.hh"
#include "mem/page_table.hh"
#include "sim/types.hh"

namespace hypertee
{

/** Resource declaration from the enclave's configuration file. */
struct EnclaveConfig
{
    std::size_t stackPages = 16;
    std::size_t heapPages = 64;    ///< initial heap reservation
    std::size_t maxShmPages = 256; ///< shared-memory window budget
};

/** Canonical virtual layout inside an enclave address space. */
struct EnclaveLayout
{
    static constexpr Addr codeBase = 0x1000'0000;
    static constexpr Addr heapBase = 0x4000'0000;
    static constexpr Addr shmBase = 0x6000'0000;
    static constexpr Addr stackTop = 0x7000'0000;
};

enum class EnclaveState : std::uint8_t
{
    Created,   ///< ECREATE done, EADD in progress
    Measured,  ///< EMEAS finalized; may be entered
    Running,   ///< at least one core inside
    Suspended, ///< KeyID released under pressure
};

struct EnclaveControl
{
    EnclaveId id = invalidEnclaveId;
    EnclaveState state = EnclaveState::Created;
    EnclaveConfig config;
    KeyId keyId = 0;

    std::unique_ptr<PageTable> pageTable;

    /** Running SHA-256 over EADD'd content; finalized by EMEAS. */
    std::unique_ptr<Sha256> measureCtx;
    Bytes measurement;
    std::uint64_t measuredBytes = 0;

    Addr heapCursor = EnclaveLayout::heapBase;
    Addr shmCursor = EnclaveLayout::shmBase;

    /** shmId -> VA where this enclave attached it. */
    std::map<ShmId, Addr> attachedShm;
};

} // namespace hypertee

#endif // HYPERTEE_EMS_ENCLAVE_CONTROL_HH
