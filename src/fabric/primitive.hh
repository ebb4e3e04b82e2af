/**
 * @file
 * Enclave primitive request/response packets (Table II).
 *
 * These are the only things that ever cross the CS/EMS boundary:
 * "Notably, only primitive requests and responses are transmitted
 * through the mailbox. Enclave private data are not required for
 * enclave management tasks." (Section III-C)
 */

#ifndef HYPERTEE_FABRIC_PRIMITIVE_HH
#define HYPERTEE_FABRIC_PRIMITIVE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/bytes.hh"
#include "sim/types.hh"

namespace hypertee
{

/** The sixteen HyperTEE primitives (Table II). */
enum class PrimitiveOp : std::uint8_t
{
    // Life cycle management
    ECreate,
    EAdd,
    EEnter,
    EResume,
    EExit,
    EDestroy,
    // Memory management
    EAlloc,
    EFree,
    EWb,
    // Communication management
    EShmGet,
    EShmAt,
    EShmDt,
    EShmShr,
    EShmDes,
    // Key management and attestation
    EMeas,
    EAttest,
};

/** Privilege level each primitive may be invoked from (Table II). */
PrivMode requiredPrivilege(PrimitiveOp op);

/** Human-readable name ("ECREATE", ...). */
const char *primitiveName(PrimitiveOp op);

enum class PrimStatus : std::uint8_t
{
    Ok,
    InvalidArgument,
    PermissionDenied,
    OutOfMemory,
    NotFound,
    AlreadyExists,
    NotAuthorized,
    Busy,
};

const char *primStatusName(PrimStatus s);

/**
 * A packet's argument or result words. No primitive takes more than
 * inlineWords arguments, and only EWB answers with more results (a
 * count and one address per page), so a list lives inside its packet
 * and a round trip allocates nothing for it; a longer list moves to
 * the heap. Copies copy the words; a move leaves a heap list empty.
 */
class WordList
{
  public:
    static constexpr std::size_t inlineWords = 3;

    using const_iterator = const std::uint64_t *;

    WordList() = default;
    WordList(std::initializer_list<std::uint64_t> words)
    {
        for (std::uint64_t w : words)
            push_back(w);
    }
    explicit WordList(std::span<const std::uint64_t> words)
    {
        for (std::uint64_t w : words)
            push_back(w);
    }

    std::size_t size() const { return _heap.empty() ? _count : _heap.size(); }
    bool empty() const { return size() == 0; }
    const std::uint64_t *
    data() const
    {
        return _heap.empty() ? _inline.data() : _heap.data();
    }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size(); }
    std::uint64_t operator[](std::size_t i) const { return data()[i]; }

    std::uint64_t
    at(std::size_t i) const
    {
        if (i >= size())
            throw std::out_of_range("WordList::at");
        return data()[i];
    }

    void
    push_back(std::uint64_t w)
    {
        if (_heap.empty() && _count < inlineWords) {
            _inline[_count++] = w;
            return;
        }
        if (_heap.empty()) {
            _heap.assign(_inline.begin(), _inline.end());
            _count = 0;
        }
        _heap.push_back(w);
    }

    friend bool
    operator==(const WordList &a, const WordList &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    std::array<std::uint64_t, inlineWords> _inline{};
    std::size_t _count = 0; ///< inline words in use (none once on heap)
    std::vector<std::uint64_t> _heap; ///< every word, past inlineWords
};

struct PrimitiveRequest
{
    std::uint64_t reqId = 0;       ///< unique binding id (EMCall)
    PrimitiveOp op = PrimitiveOp::ECreate;
    EnclaveId caller = invalidEnclaveId; ///< encapsulated by EMCall
    PrivMode mode = PrivMode::User;      ///< checked by EMCall
    WordList args;
    Bytes payload;                 ///< e.g. EADD page contents
    Tick issuedAt = 0;
};

/** Response flags telling the EMCall gate what to do on return. */
enum ResponseFlag : std::uint64_t
{
    kFlagFlushTlb = 1,       ///< bitmap changed: flush stale entries
    kFlagEnterEnclave = 2,   ///< switch CS registers into the enclave
    kFlagExitEnclave = 4,    ///< restore host context
};

struct PrimitiveResponse
{
    std::uint64_t reqId = 0;
    PrimStatus status = PrimStatus::Ok;
    std::uint64_t flags = 0;       ///< ResponseFlag bits for the gate
    WordList results;
    Bytes payload;                 ///< e.g. attestation certificate
    Tick completedAt = 0;          ///< EMS-side service time
};

} // namespace hypertee

#endif // HYPERTEE_FABRIC_PRIMITIVE_HH
