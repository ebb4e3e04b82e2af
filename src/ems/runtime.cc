#include "ems/runtime.hh"

#include <algorithm>

#include "crypto/aes128.hh"
#include "crypto/sha256.hh"
#include "crypto/x25519.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace hypertee
{

EmsRuntime::EmsRuntime(EmsPort *port, PhysicalMemory *cs_mem,
                       const KeyManager &km,
                       const EmsRuntimeParams &params,
                       OsFrames &os)
    : _port(port), _csMem(cs_mem), _km(km), _p(params), _cost(params.cost),
      _engine(params.crypto, params.cryptoEnginePresent), _rng(params.seed)
{
    panicIf(port == nullptr, "runtime needs the EMS port");
    panicIf(cs_mem == nullptr, "runtime needs CS memory");
    _pool = std::make_unique<EnclaveMemoryPool>(os, params.pool,
                                                params.seed ^ 0x9e3779b9);
}

bool
EmsRuntime::secureBoot(const Bytes &runtime_image,
                       const Bytes &expected_runtime_hash,
                       const Bytes &cs_firmware,
                       const Bytes &expected_firmware_hash)
{
    Bytes runtime_hash = Sha256::digest(runtime_image);
    Bytes firmware_hash = Sha256::digest(cs_firmware);
    if (!ctEqual(runtime_hash, expected_runtime_hash))
        return false; // tampered EMS runtime: refuse to boot
    if (!ctEqual(firmware_hash, expected_firmware_hash))
        return false; // tampered EMCall firmware

    Bytes both = runtime_hash;
    both.insert(both.end(), firmware_hash.begin(), firmware_hash.end());
    _platformMeas = Sha256::digest(both);
    _booted = true;
    return true;
}

void
EmsRuntime::connectMailbox()
{
    _port->mailbox().setDoorbell([this] { drain(); });
}

void
EmsRuntime::drain()
{
    HT_TRACE_INSTANT1(TraceCategory::Ems, "ems.drain",
                      TraceSink::global().now(), "depth",
                      _port->mailbox().requestDepth());
    PrimitiveRequest req;
    while (_port->mailbox().popRequest(req)) {
        PrimitiveResponse resp = handle(req);
        resp.reqId = req.reqId;
        bool ok = _port->mailbox().pushResponse(resp);
        panicIf(!ok, "response queue overflow");
    }
}

PrimitiveResponse
EmsRuntime::reject(PrimStatus status)
{
    ++_sanityRejections;
    PrimitiveResponse resp;
    resp.status = status;
    return resp;
}

EnclaveControl *
EmsRuntime::liveEnclave(EnclaveId id)
{
    auto it = _enclaves.find(id);
    return it == _enclaves.end() ? nullptr : &it->second;
}

const EnclaveControl *
EmsRuntime::enclave(EnclaveId id) const
{
    auto it = _enclaves.find(id);
    return it == _enclaves.end() ? nullptr : &it->second;
}

const PageTable *
EmsRuntime::enclavePageTable(EnclaveId id) const
{
    const EnclaveControl *enc = enclave(id);
    return enc ? enc->pageTable.get() : nullptr;
}

const ShmControl *
EmsRuntime::shm(ShmId id) const
{
    auto it = _shms.find(id);
    return it == _shms.end() ? nullptr : &it->second;
}

KeyId
EmsRuntime::assignKeyId(const Bytes &key, Tick &service)
{
    // The next KeyID that is neither the plaintext domain (0) nor
    // held by a live enclave or shm. The 16-bit counter wraps, and
    // configureKey() on a held KeyID would silently re-key that live
    // domain.
    KeyId id = 0;
    for (std::uint32_t tries = 0; tries <= 0xffff && id == 0; ++tries) {
        KeyId cand = _nextKey++;
        if (cand != 0 && !_port->keyConfigured(cand))
            id = cand;
    }
    if (id == 0)
        return 0;
    if (_port->configureKey(id, key))
        return id;
    // KeyID exhaustion (Section IV-C): suspend a non-running enclave
    // to free a slot; EMCall flushes TLB and caches so the recycled
    // KeyID cannot alias stale lines.
    for (auto &[eid, enc] : _enclaves) {
        if (enc.state == EnclaveState::Measured && enc.keyId != 0) {
            suspendEnclave(eid);
            service += _p.keyRecycleFlushTime;
            if (_port->configureKey(id, key))
                return id;
        }
    }
    return 0;
}

bool
EmsRuntime::suspendEnclave(EnclaveId id)
{
    EnclaveControl *enc = liveEnclave(id);
    if (!enc || enc->keyId == 0 || enc->state == EnclaveState::Running)
        return false;
    _port->releaseKey(enc->keyId);
    enc->keyId = 0;
    enc->state = EnclaveState::Suspended;
    return true;
}

std::size_t
EmsRuntime::grantDmaAccess(EnclaveId caller, ShmId shm_id,
                           std::uint32_t device, std::uint8_t perms,
                           std::size_t first_window)
{
    auto it = _shms.find(shm_id);
    if (it == _shms.end())
        return 0;
    const ShmControl &shm = it->second;
    // Only an authorized participant (the driver enclave) may expose
    // the region to a peripheral.
    if (!shm.legalConnections.count(caller))
        return 0;

    // The whitelist holds contiguous windows; cover the region with
    // one window per contiguous physical run.
    std::size_t window = first_window;
    std::size_t programmed = 0;
    std::size_t i = 0;
    while (i < shm.pages.size()) {
        std::size_t j = i + 1;
        while (j < shm.pages.size() &&
               shm.pages[j] == shm.pages[j - 1] + 1) {
            ++j;
        }
        bool ok = _port->configureDmaWindow(
            window++, device, shm.pages[i] << pageShift,
            (j - i) * pageSize, perms);
        if (!ok)
            return 0; // out of register pairs: fail closed
        ++programmed;
        i = j;
    }
    return programmed;
}

PageTable::FrameAllocator
EmsRuntime::makeFrameAllocator(EnclaveId owner)
{
    return [this, owner]() -> Addr {
        std::vector<Addr> got = grantPages(1, owner, PageKind::PageTable,
                                           0, _pendingFrameCharge);
        fatalIf(got.empty(), "enclave memory pool exhausted while "
                             "allocating a page-table frame");
        return got[0] << pageShift;
    };
}

std::vector<Addr>
EmsRuntime::grantPages(std::size_t n, EnclaveId owner, PageKind kind,
                       ShmId shm, Tick &service)
{
    std::vector<Addr> ppns = _pool->allocate(n);
    if (ppns.size() != n)
        return {};
    for (Addr ppn : ppns) {
        _port->zeroCs(ppn << pageShift, pageSize);
        bool claimed = _ownership.claim(ppn, owner, kind, shm);
        panicIf(!claimed, "pool page already owned: ", ppn);
        _port->setBitmapBit(ppn, true);
    }
    service += _cost.perPageZeroTime(n) + _cost.perPageMapTime(n);
    return ppns;
}

void
EmsRuntime::mapEnclaveRun(EnclaveControl &enc, Addr va,
                          std::span<const Addr> ppns,
                          std::uint64_t perms, Tick &service)
{
    enc.pageTable->mapRun(va, ppns, perms | PteUser, enc.keyId);
    // Charged per page: instTime truncates, so perPageMapTime(n) is
    // not n * perPageMapTime(1).
    service += ppns.size() * _cost.perPageMapTime(1);
}

void
EmsRuntime::scrubAndReturn(const std::vector<Addr> &ppns, Tick &service)
{
    for (Addr ppn : ppns) {
        _port->zeroCs(ppn << pageShift, pageSize);
        _port->setBitmapBit(ppn, false);
        _ownership.release(ppn);
    }
    service += _cost.perPageZeroTime(ppns.size());
    service += _cost.perPageMapTime(ppns.size());
    _pool->release(ppns);
}

void
EmsRuntime::teardown(EnclaveId id, Tick &service)
{
    EnclaveControl &enc = _enclaves.at(id);
    // A destroyed enclave must not leave attached shared memory.
    for (auto &[shm_id, va] : enc.attachedShm) {
        (void)va;
        auto it = _shms.find(shm_id);
        if (it != _shms.end())
            it->second.attached.erase(id);
    }

    // Scrub every private page and page-table frame, then recycle.
    scrubAndReturn(_ownership.pagesOf(id), service);
    std::vector<Addr> pt_frames;
    for (Addr frame : enc.pageTable->tableFrames())
        pt_frames.push_back(pageNumber(frame));
    enc.pageTable.reset();
    scrubAndReturn(pt_frames, service);

    if (enc.keyId != 0)
        _port->releaseKey(enc.keyId);
    _enclaves.erase(id);
}

PrimitiveResponse
EmsRuntime::handle(const PrimitiveRequest &req)
{
    auto &trace = TraceSink::global();
    if (!trace.on(TraceCategory::Ems))
        return handleImpl(req);

    // One span per primitive: [now, now + modelled service time],
    // recorded after the handler ran, when its end is known.
    const Tick ts = trace.now();
    PrimitiveResponse resp = handleImpl(req);
    trace.span(TraceCategory::Ems,
               std::string("EMS ") + primitiveName(req.op), ts,
               ts + resp.completedAt);
    trace.arg("reqId", static_cast<double>(req.reqId));
    trace.arg("status",
              static_cast<double>(static_cast<unsigned>(resp.status)));
    return resp;
}

PrimitiveResponse
EmsRuntime::handleImpl(const PrimitiveRequest &req)
{
    if (!_booted) {
        PrimitiveResponse resp;
        resp.status = PrimStatus::PermissionDenied;
        return resp;
    }

    Tick service = _cost.instTime(EmsCostModel::baseInsts(req.op));
    _pendingFrameCharge = 0;

    // Forged cross-privilege packets die here too (defense in depth
    // behind the EMCall gate check).
    if (req.mode != requiredPrivilege(req.op) &&
        req.mode != PrivMode::Machine) {
        PrimitiveResponse resp = reject(PrimStatus::PermissionDenied);
        resp.completedAt = service;
        return resp;
    }

    Handler handler = nullptr;
    switch (req.op) {
      case PrimitiveOp::ECreate: handler = &EmsRuntime::doCreate; break;
      case PrimitiveOp::EAdd: handler = &EmsRuntime::doAdd; break;
      case PrimitiveOp::EEnter: handler = &EmsRuntime::doEnter; break;
      case PrimitiveOp::EResume: handler = &EmsRuntime::doResume; break;
      case PrimitiveOp::EExit: handler = &EmsRuntime::doExit; break;
      case PrimitiveOp::EDestroy: handler = &EmsRuntime::doDestroy; break;
      case PrimitiveOp::EAlloc: handler = &EmsRuntime::doAlloc; break;
      case PrimitiveOp::EFree: handler = &EmsRuntime::doFree; break;
      case PrimitiveOp::EWb: handler = &EmsRuntime::doWb; break;
      case PrimitiveOp::EShmGet: handler = &EmsRuntime::doShmGet; break;
      case PrimitiveOp::EShmAt: handler = &EmsRuntime::doShmAt; break;
      case PrimitiveOp::EShmDt: handler = &EmsRuntime::doShmDt; break;
      case PrimitiveOp::EShmShr: handler = &EmsRuntime::doShmShr; break;
      case PrimitiveOp::EShmDes: handler = &EmsRuntime::doShmDes; break;
      case PrimitiveOp::EMeas: handler = &EmsRuntime::doMeas; break;
      case PrimitiveOp::EAttest: handler = &EmsRuntime::doAttest; break;
    }
    panicIf(handler == nullptr, "unhandled primitive");

    PrimitiveResponse resp = (this->*handler)(req, service);

    // Watermark maintenance after every pool-touching primitive: a
    // fleet-scale EMS keeps the free-page pool inside its
    // [low, high] band so create bursts do not stall on demand-driven
    // OS refills. The bookkeeping time is charged to the primitive
    // that tripped the rebalance. No-op (and no charge) when the
    // watermarks are disabled, which is every pre-fleet scenario.
    EnclaveMemoryPool::Rebalance moved = _pool->rebalance();
    service += _cost.perPageMapTime(moved.refilled + moved.returned);

    resp.completedAt = service + _pendingFrameCharge;
    return resp;
}

// ------------------------------------------------------------ lifecycle

PrimitiveResponse
EmsRuntime::doCreate(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 3)
        return reject(PrimStatus::InvalidArgument);
    EnclaveConfig cfg;
    cfg.stackPages = req.args[0];
    cfg.heapPages = req.args[1];
    cfg.maxShmPages = req.args[2];
    if (cfg.stackPages == 0 || cfg.stackPages > 4096 ||
        cfg.heapPages > (1u << 20) || cfg.maxShmPages > (1u << 20)) {
        return reject(PrimStatus::InvalidArgument);
    }

    EnclaveId id = _nextEnclave++;
    EnclaveControl enc;
    enc.id = id;
    enc.config = cfg;
    enc.measureCtx = std::make_unique<Sha256>();

    Bytes key_ctx;
    for (int i = 0; i < 4; ++i)
        key_ctx.push_back(static_cast<std::uint8_t>(id >> (8 * i)));
    enc.keyId = assignKeyId(_km.memoryKey(key_ctx), service);
    if (enc.keyId == 0)
        return reject(PrimStatus::OutOfMemory);

    // Dedicated private page table; its frames come from the pool so
    // the table itself is bitmap-protected enclave memory.
    enc.pageTable =
        std::make_unique<PageTable>(_csMem, makeFrameAllocator(id));

    // Static allocation at creation (Section IV-A): stack + initial
    // heap are mapped now, so no allocation events leak later.
    auto it = _enclaves.emplace(id, std::move(enc)).first;
    EnclaveControl &e = it->second;

    // Static allocation draws the stack and heap as one batch so
    // the data pages form a contiguous physical run (matching how a
    // host process is laid out) before any page-table frames are
    // interleaved.
    std::vector<Addr> frames = grantPages(cfg.stackPages + cfg.heapPages,
                                          id, PageKind::Private, 0,
                                          service);
    if (frames.empty()) {
        // Nothing half-built survives: the root table frame and the
        // KeyID go back.
        teardown(id, service);
        return reject(PrimStatus::OutOfMemory);
    }

    const std::span<const Addr> granted(frames);
    mapEnclaveRun(e, EnclaveLayout::stackTop - cfg.stackPages * pageSize,
                  granted.first(cfg.stackPages), PteRead | PteWrite,
                  service);
    mapEnclaveRun(e, e.heapCursor, granted.subspan(cfg.stackPages),
                  PteRead | PteWrite, service);
    e.heapCursor += cfg.heapPages * pageSize;

    PrimitiveResponse resp;
    resp.results = {id};
    resp.flags = kFlagFlushTlb; // bitmap bits were set
    return resp;
}

PrimitiveResponse
EmsRuntime::doAdd(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 3 || req.payload.size() != pageSize)
        return reject(PrimStatus::InvalidArgument);
    EnclaveControl *enc = liveEnclave(
        static_cast<EnclaveId>(req.args[0]));
    if (!enc || enc->state != EnclaveState::Created)
        return reject(PrimStatus::NotFound);
    Addr va = req.args[1];
    std::uint64_t perms = req.args[2] &
                          (PteRead | PteWrite | PteExec);
    if (va % pageSize != 0 || perms == 0 || !PageTable::inVaSpace(va, 1))
        return reject(PrimStatus::InvalidArgument);
    if (enc->pageTable->anyMapped(va, 1))
        return reject(PrimStatus::AlreadyExists);

    std::vector<Addr> got =
        grantPages(1, enc->id, PageKind::Private, 0, service);
    if (got.empty())
        return reject(PrimStatus::OutOfMemory);
    Addr pa = got[0] << pageShift;

    // Copy the page image into enclave memory and extend the
    // running measurement (billed at EMEAS, Table IV).
    _port->writeCs(pa, req.payload);
    service += _cost.perPageCopyTime(1);
    enc->measureCtx->update(req.payload);
    // The VA and perms are part of the identity too.
    std::uint8_t meta[16];
    for (int i = 0; i < 8; ++i)
        meta[i] = static_cast<std::uint8_t>(va >> (8 * i));
    for (int i = 0; i < 8; ++i)
        meta[8 + i] = static_cast<std::uint8_t>(perms >> (8 * i));
    enc->measureCtx->update(meta, sizeof(meta));
    enc->measuredBytes += pageSize + sizeof(meta);

    mapEnclaveRun(*enc, va, got, perms, service);

    PrimitiveResponse resp;
    resp.flags = kFlagFlushTlb;
    return resp;
}

PrimitiveResponse
EmsRuntime::doEnter(const PrimitiveRequest &req, Tick &service)
{
    (void)service;
    if (req.args.size() != 1)
        return reject(PrimStatus::InvalidArgument);
    EnclaveControl *enc = liveEnclave(
        static_cast<EnclaveId>(req.args[0]));
    if (!enc)
        return reject(PrimStatus::NotFound);
    if (enc->state != EnclaveState::Measured &&
        enc->state != EnclaveState::Running) {
        // Unmeasured enclaves may not run: attestation integrity.
        return reject(PrimStatus::PermissionDenied);
    }
    enc->state = EnclaveState::Running;

    PrimitiveResponse resp;
    resp.results = {enc->id};
    resp.flags = kFlagEnterEnclave;
    return resp;
}

PrimitiveResponse
EmsRuntime::doResume(const PrimitiveRequest &req, Tick &service)
{
    (void)service;
    if (req.args.size() != 1)
        return reject(PrimStatus::InvalidArgument);
    EnclaveControl *enc = liveEnclave(
        static_cast<EnclaveId>(req.args[0]));
    if (!enc || enc->state != EnclaveState::Running)
        return reject(PrimStatus::NotFound);

    PrimitiveResponse resp;
    resp.results = {enc->id};
    resp.flags = kFlagEnterEnclave;
    return resp;
}

PrimitiveResponse
EmsRuntime::doExit(const PrimitiveRequest &req, Tick &service)
{
    (void)service;
    if (req.caller == invalidEnclaveId)
        return reject(PrimStatus::PermissionDenied);
    EnclaveControl *enc = liveEnclave(req.caller);
    if (!enc)
        return reject(PrimStatus::NotFound);
    enc->state = EnclaveState::Measured; // parked, may re-enter

    PrimitiveResponse resp;
    resp.flags = kFlagExitEnclave;
    return resp;
}

PrimitiveResponse
EmsRuntime::doDestroy(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 1)
        return reject(PrimStatus::InvalidArgument);
    EnclaveId id = static_cast<EnclaveId>(req.args[0]);
    if (!liveEnclave(id))
        return reject(PrimStatus::NotFound);
    teardown(id, service);

    PrimitiveResponse resp;
    resp.flags = kFlagFlushTlb | kFlagExitEnclave;
    return resp;
}

// --------------------------------------------------------------- memory

PrimitiveResponse
EmsRuntime::doAlloc(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.empty() || req.args.size() > 2)
        return reject(PrimStatus::InvalidArgument);
    if (req.caller == invalidEnclaveId)
        return reject(PrimStatus::PermissionDenied);
    EnclaveControl *enc = liveEnclave(req.caller);
    if (!enc)
        return reject(PrimStatus::NotFound);
    std::size_t n = req.args[0];
    if (n == 0 || n > (1u << 18))
        return reject(PrimStatus::InvalidArgument);

    Addr va = req.args.size() == 2 ? pageAlign(req.args[1])
                                   : enc->heapCursor;
    if (!PageTable::inVaSpace(va, n))
        return reject(PrimStatus::InvalidArgument);
    if (enc->pageTable->anyMapped(va, n))
        return reject(PrimStatus::AlreadyExists);
    std::vector<Addr> frames =
        grantPages(n, enc->id, PageKind::Private, 0, service);
    if (frames.empty())
        return reject(PrimStatus::OutOfMemory);
    mapEnclaveRun(*enc, va, frames, PteRead | PteWrite, service);
    if (req.args.size() == 1)
        enc->heapCursor += n * pageSize;

    PrimitiveResponse resp;
    resp.results = {va};
    resp.flags = kFlagFlushTlb;
    return resp;
}

PrimitiveResponse
EmsRuntime::doFree(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 2)
        return reject(PrimStatus::InvalidArgument);
    if (req.caller == invalidEnclaveId)
        return reject(PrimStatus::PermissionDenied);
    EnclaveControl *enc = liveEnclave(req.caller);
    if (!enc)
        return reject(PrimStatus::NotFound);
    Addr va = pageAlign(req.args[0]);
    std::size_t n = req.args[1];
    if (n == 0 || !PageTable::inVaSpace(va, n))
        return reject(PrimStatus::InvalidArgument);

    // All or nothing: validate the whole range before unmapping any
    // of it, so a rejected request leaves every page mapped, owned
    // and still owned for EDESTROY's scrub. The enclave owns each of
    // its mapped private pages once, so a run longer than that fails
    // within its first privatePages() + 1 pages: only those are
    // looked up, and they decide the status.
    std::vector<LeafSlot> slots(
        std::min(n, _ownership.privatePages(enc->id) + 1));
    enc->pageTable->lookupRun(va, slots);
    std::vector<Addr> freed;
    freed.reserve(slots.size());
    for (const LeafSlot &slot : slots) {
        if (!slot.valid)
            return reject(PrimStatus::NotFound);
        const PageOwner *owner = _ownership.lookup(slot.ppn);
        if (!owner || owner->owner != enc->id ||
            owner->kind != PageKind::Private)
            return reject(PrimStatus::PermissionDenied);
        freed.push_back(slot.ppn);
    }
    panicIf(freed.size() != n, "EFREE validated a short run");
    enc->pageTable->clearRun(slots);
    scrubAndReturn(freed, service);

    PrimitiveResponse resp;
    resp.flags = kFlagFlushTlb;
    return resp;
}

PrimitiveResponse
EmsRuntime::doWb(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 1)
        return reject(PrimStatus::InvalidArgument);
    std::size_t requested = req.args[0];
    if (requested == 0 || requested > 4096)
        return reject(PrimStatus::InvalidArgument);

    // Swapping defense (Section IV-A): hand back a *random* number
    // of *unused pool pages*, never a victim's active pages. The
    // contents are encrypted before the OS sees the frames.
    std::vector<Addr> pages =
        _pool->randomTake(requested, requested / 2 + 1, _rng);
    if (pages.empty())
        return reject(PrimStatus::OutOfMemory);

    SecretBytes swap_key(_km.memoryKey(bytesFromString("ewb-swap")));
    Aes128 aes(swap_key.get());
    for (Addr ppn : pages) {
        Addr pa = ppn << pageShift;
        Bytes content = _port->readCs(pa, pageSize);
        _port->writeCs(pa, aes.ctrTransform(content, pa, 0));
        _port->setBitmapBit(ppn, false);
    }
    service += _engine.aesTime(pages.size() * pageSize);
    service += _cost.perPageMapTime(pages.size());

    PrimitiveResponse resp;
    resp.results.push_back(pages.size());
    for (Addr ppn : pages)
        resp.results.push_back(ppn << pageShift);
    resp.flags = kFlagFlushTlb;
    return resp;
}

// -------------------------------------------------------- communication

PrimitiveResponse
EmsRuntime::doShmGet(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 2)
        return reject(PrimStatus::InvalidArgument);
    if (req.caller == invalidEnclaveId)
        return reject(PrimStatus::PermissionDenied);
    EnclaveControl *enc = liveEnclave(req.caller);
    if (!enc)
        return reject(PrimStatus::NotFound);
    std::size_t n = req.args[0];
    std::uint64_t max_perms = req.args[1] & (PteRead | PteWrite);
    if (n == 0 || n > enc->config.maxShmPages || max_perms == 0)
        return reject(PrimStatus::InvalidArgument);

    ShmId id = _nextShm++;
    ShmControl shm;
    shm.id = id;
    shm.creator = enc->id;
    shm.maxPerms = max_perms;
    // Dedicated shared-memory key, distinct from private keys
    // (Section V-A): derived from initial sender + ShmID.
    shm.keyId = assignKeyId(_km.sharedMemoryKey(enc->id, id), service);
    if (shm.keyId == 0)
        return reject(PrimStatus::OutOfMemory);

    shm.pages = grantPages(n, enc->id, PageKind::Shared, id, service);
    if (shm.pages.empty()) {
        _port->releaseKey(shm.keyId);
        return reject(PrimStatus::OutOfMemory);
    }

    // The creator joins its own legal connection list at max perms.
    shm.legalConnections[enc->id] = max_perms;
    _shms.emplace(id, std::move(shm));

    PrimitiveResponse resp;
    resp.results = {id};
    resp.flags = kFlagFlushTlb;
    return resp;
}

PrimitiveResponse
EmsRuntime::doShmShr(const PrimitiveRequest &req, Tick &service)
{
    (void)service;
    if (req.args.size() != 3)
        return reject(PrimStatus::InvalidArgument);
    if (req.caller == invalidEnclaveId)
        return reject(PrimStatus::PermissionDenied);
    auto it = _shms.find(static_cast<ShmId>(req.args[0]));
    if (it == _shms.end())
        return reject(PrimStatus::NotFound);
    ShmControl &shm = it->second;
    // Only the initial sender may authorize receivers.
    if (shm.creator != req.caller)
        return reject(PrimStatus::NotAuthorized);
    EnclaveId receiver = static_cast<EnclaveId>(req.args[1]);
    if (!liveEnclave(receiver))
        return reject(PrimStatus::NotFound);
    std::uint64_t perms = req.args[2] & shm.maxPerms;
    if (perms == 0)
        return reject(PrimStatus::InvalidArgument);
    shm.legalConnections[receiver] = perms;
    return {};
}

PrimitiveResponse
EmsRuntime::doShmAt(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 2)
        return reject(PrimStatus::InvalidArgument);
    if (req.caller == invalidEnclaveId)
        return reject(PrimStatus::PermissionDenied);
    EnclaveControl *enc = liveEnclave(req.caller);
    if (!enc)
        return reject(PrimStatus::NotFound);
    auto it = _shms.find(static_cast<ShmId>(req.args[0]));
    if (it == _shms.end()) {
        // Brute-force ShmID probing lands here (Section V-A).
        ++_shmGuesses;
        return reject(PrimStatus::NotFound);
    }
    ShmControl &shm = it->second;
    auto conn = shm.legalConnections.find(enc->id);
    if (conn == shm.legalConnections.end()) {
        ++_shmGuesses;
        return reject(PrimStatus::NotAuthorized);
    }
    if (enc->attachedShm.count(shm.id))
        return reject(PrimStatus::AlreadyExists);
    std::uint64_t perms = req.args[1] & conn->second;
    if (perms == 0)
        return reject(PrimStatus::PermissionDenied);
    // ESHMDES refuses while a region is attached, so every id is live.
    std::size_t shm_pages = shm.pages.size();
    for (const auto &[id, attached_va] : enc->attachedShm)
        shm_pages += _shms.at(id).pages.size();
    if (shm_pages > enc->config.maxShmPages)
        return reject(PrimStatus::OutOfMemory);

    Addr va = enc->shmCursor;
    if (enc->pageTable->anyMapped(va, shm.pages.size()))
        return reject(PrimStatus::AlreadyExists);
    enc->pageTable->mapRun(va, shm.pages, perms | PteUser, shm.keyId);
    enc->shmCursor += shm.pages.size() * pageSize;
    enc->attachedShm[shm.id] = va;
    shm.attached.insert(enc->id);
    service += _cost.perPageMapTime(shm.pages.size());

    PrimitiveResponse resp;
    resp.results = {va};
    resp.flags = kFlagFlushTlb;
    return resp;
}

PrimitiveResponse
EmsRuntime::doShmDt(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 1)
        return reject(PrimStatus::InvalidArgument);
    if (req.caller == invalidEnclaveId)
        return reject(PrimStatus::PermissionDenied);
    EnclaveControl *enc = liveEnclave(req.caller);
    if (!enc)
        return reject(PrimStatus::NotFound);
    auto it = _shms.find(static_cast<ShmId>(req.args[0]));
    if (it == _shms.end())
        return reject(PrimStatus::NotFound);
    ShmControl &shm = it->second;
    auto att = enc->attachedShm.find(shm.id);
    if (att == enc->attachedShm.end())
        return reject(PrimStatus::NotFound);

    std::vector<LeafSlot> slots(shm.pages.size());
    enc->pageTable->lookupRun(att->second, slots);
    enc->pageTable->clearRun(slots);
    enc->attachedShm.erase(att);
    shm.attached.erase(enc->id);
    service += _cost.perPageMapTime(shm.pages.size());

    PrimitiveResponse resp;
    resp.flags = kFlagFlushTlb;
    return resp;
}

PrimitiveResponse
EmsRuntime::doShmDes(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 1)
        return reject(PrimStatus::InvalidArgument);
    if (req.caller == invalidEnclaveId)
        return reject(PrimStatus::PermissionDenied);
    auto it = _shms.find(static_cast<ShmId>(req.args[0]));
    if (it == _shms.end())
        return reject(PrimStatus::NotFound);
    ShmControl &shm = it->second;
    // Malicious-release defense (Section V-C): only the initial
    // sender, and only with zero active connections.
    if (shm.creator != req.caller)
        return reject(PrimStatus::NotAuthorized);
    if (!shm.attached.empty())
        return reject(PrimStatus::Busy);

    scrubAndReturn(shm.pages, service);
    _port->releaseKey(shm.keyId);
    _shms.erase(it);

    PrimitiveResponse resp;
    resp.flags = kFlagFlushTlb;
    return resp;
}

// ------------------------------------------- measurement / attestation

PrimitiveResponse
EmsRuntime::doMeas(const PrimitiveRequest &req, Tick &service)
{
    if (req.args.size() != 1)
        return reject(PrimStatus::InvalidArgument);
    EnclaveControl *enc = liveEnclave(
        static_cast<EnclaveId>(req.args[0]));
    if (!enc || enc->state != EnclaveState::Created || !enc->measureCtx)
        return reject(PrimStatus::NotFound);

    // All the hashing work over the enclave image lands here; with
    // the crypto engine this is the Table IV EMEAS 7.8% -> 0.10%
    // story.
    service += _engine.shaTime(enc->measuredBytes);
    auto digest = enc->measureCtx->finish();
    enc->measurement = Bytes(digest.begin(), digest.end());
    enc->measureCtx.reset();
    enc->state = EnclaveState::Measured;

    PrimitiveResponse resp;
    resp.payload = enc->measurement; // measurements are public
    return resp;
}

PrimitiveResponse
EmsRuntime::doAttest(const PrimitiveRequest &req, Tick &service)
{
    if (req.caller == invalidEnclaveId)
        return reject(PrimStatus::PermissionDenied);
    EnclaveControl *enc = liveEnclave(req.caller);
    if (!enc || enc->measurement.empty())
        return reject(PrimStatus::NotFound);
    // payload: verifier nonce (16) || verifier DH public (32)
    if (req.payload.size() != 48)
        return reject(PrimStatus::InvalidArgument);
    Bytes nonce(req.payload.begin(), req.payload.begin() + 16);

    // Ephemeral X25519 share for the SIGMA session.
    Bytes dh_priv(32);
    for (auto &b : dh_priv)
        b = static_cast<std::uint8_t>(_rng.next());
    Bytes dh_pub = x25519Base(dh_priv);

    Bytes salt(16);
    for (auto &b : salt)
        b = static_cast<std::uint8_t>(_rng.next());

    AttestationQuote quote = buildQuote(_km, _platformMeas,
                                        enc->measurement, salt, dh_pub,
                                        nonce);
    // Two signatures (EK chain + AK quote) plus the DH op.
    service += 2 * _engine.signTime() + _engine.ecdhTime();

    PrimitiveResponse resp;
    resp.payload = quote.serialize();
    return resp;
}

} // namespace hypertee
