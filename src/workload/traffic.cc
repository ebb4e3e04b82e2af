#include "workload/traffic.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace hypertee
{

const char *
fleetOpName(FleetOp op)
{
    switch (op) {
      case FleetOp::Create: return "create";
      case FleetOp::Attest: return "attest";
      case FleetOp::Seal: return "seal";
      case FleetOp::Unseal: return "unseal";
      case FleetOp::Destroy: return "destroy";
    }
    return "unknown";
}

namespace
{

/**
 * Exponential draw with the given mean, via inverse CDF. rng.real()
 * is in [0, 1), so 1-u is in (0, 1] and the log is finite.
 */
double
expDraw(Random &rng, double mean)
{
    return -mean * std::log(1.0 - rng.real());
}

} // namespace

// ------------------------------------------------------ arrival processes

PoissonArrivals::PoissonArrivals(double rate_per_sec,
                                 std::uint64_t seed)
    : _meanTicks(double(ticksPerSecond) / rate_per_sec), _rng(seed)
{
    fatalIf(rate_per_sec <= 0, "Poisson arrivals need a rate");
}

Tick
PoissonArrivals::next()
{
    return static_cast<Tick>(expDraw(_rng, _meanTicks));
}

MmppArrivals::MmppArrivals(const Params &params, std::uint64_t seed)
    : _p(params), _rng(seed)
{
    fatalIf(_p.quietRatePerSec <= 0 || _p.burstRatePerSec <= 0,
            "MMPP needs positive rates");
    fatalIf(_p.meanQuietSec <= 0 || _p.meanBurstSec <= 0,
            "MMPP needs positive dwell times");
    _dwellLeftTicks =
        expDraw(_rng, _p.meanQuietSec * double(ticksPerSecond));
}

Tick
MmppArrivals::next()
{
    // Competing exponentials: within a state, the next arrival is
    // exponential at the state's rate; if the state's remaining dwell
    // expires first, switch states and redraw (memorylessness makes
    // the restart exact).
    double elapsed = 0;
    for (;;) {
        double rate =
            _burst ? _p.burstRatePerSec : _p.quietRatePerSec;
        double candidate =
            expDraw(_rng, double(ticksPerSecond) / rate);
        if (candidate <= _dwellLeftTicks) {
            _dwellLeftTicks -= candidate;
            return static_cast<Tick>(elapsed + candidate);
        }
        elapsed += _dwellLeftTicks;
        _burst = !_burst;
        double dwell_sec =
            _burst ? _p.meanBurstSec : _p.meanQuietSec;
        _dwellLeftTicks =
            expDraw(_rng, dwell_sec * double(ticksPerSecond));
    }
}

double
MmppArrivals::analyticMeanRatePerSec() const
{
    return (_p.quietRatePerSec * _p.meanQuietSec +
            _p.burstRatePerSec * _p.meanBurstSec) /
           (_p.meanQuietSec + _p.meanBurstSec);
}

double
MmppArrivals::analyticMeanInterarrivalTicks() const
{
    return double(ticksPerSecond) / analyticMeanRatePerSec();
}

// --------------------------------------------------------- fleet churn

namespace
{

/**
 * The fleet churn: enclave create/attest/seal/unseal/destroy across
 * `enclaveSlots` pre-warmed enclaves whose pages come from a shared
 * EnclaveMemoryPool, backed by a modelled OS.
 */
class FleetChurn final : public RequestSource
{
  public:
    explicit FleetChurn(const FleetTrafficParams &params)
        : _p(params), _cost(params.cost)
    {
        fatalIf(_p.enclaveSlots == 0, "fleet sim needs enclave slots");

        _pool = std::make_unique<EnclaveMemoryPool>(_os, _p.pool,
                                                    shardSeed(_p.seed, 2));

        // Pre-warmed fleet: the full enclave population is live before
        // the first measured request, so every load point samples steady
        // state rather than the create-heavy ramp transient. Creates are
        // still exercised — the churn mix re-creates what it destroys.
        _slotPages.resize(_p.enclaveSlots);
        _livePos.resize(_p.enclaveSlots);
        for (std::uint32_t slot = 0; slot < _p.enclaveSlots; ++slot) {
            _slotPages[slot] = _pool->allocate(_p.pagesPerEnclave);
            panicIf(_slotPages[slot].size() != _p.pagesPerEnclave,
                    "modelled OS ran out of pages during pre-warm");
            addLive(slot);
        }
        _peakLive = _live.size();
    }

    const char *
    className(std::uint32_t cls) const override
    {
        return fleetOpName(static_cast<FleetOp>(cls));
    }

    EmsRequest
    make(std::uint32_t client, Random &rng) override
    {
        // Op-mix policy, a pure function of fleet state and the RNG:
        // fill the fleet first (9:1 create-heavy warm-up), then churn
        // with balanced create/destroy so the live population holds at
        // the slot count.
        FleetOp op = FleetOp::Create;
        std::uint32_t slot = 0;
        if (!_live.empty()) {
            bool warming = !_freeSlots.empty() &&
                           _live.size() < _p.enclaveSlots &&
                           _peakLive < _p.enclaveSlots;
            std::uint64_t roll = rng.below(1000);
            // Steady churn: attest 35%, seal 25%, unseal 25%, create
            // 7.5%, destroy 7.5%.
            if (warming && roll < 900)
                op = FleetOp::Create;
            else if (roll < 350)
                op = FleetOp::Attest;
            else if (roll < 600)
                op = FleetOp::Seal;
            else if (roll < 850)
                op = FleetOp::Unseal;
            else if (roll >= 925)
                op = FleetOp::Destroy;
            if (op == FleetOp::Create && _freeSlots.empty())
                op = FleetOp::Attest; // fleet full: nothing to create
            if (op != FleetOp::Create)
                slot = _live[rng.below(_live.size())];
        }
        return {static_cast<std::uint32_t>(op), client, slot};
    }

    Tick
    admit(EmsRequest &req, Random &rng) override
    {
        // Fleet bookkeeping happens only for admitted requests, so a
        // rejected create never leaks a slot.
        std::uint32_t slot = req.target;
        std::size_t pages = _p.pagesPerEnclave;
        Tick service = 0;
        switch (static_cast<FleetOp>(req.cls)) {
          case FleetOp::Create: {
            slot = req.target = _freeSlots.back();
            _freeSlots.pop_back();
            addLive(slot);
            _peakLive = std::max<std::uint64_t>(_peakLive, _live.size());
            service = _cost.pageServiceTime(PrimitiveOp::ECreate, pages);
            std::uint64_t grants_before = _pool->osRequests();
            _slotPages[slot] = _pool->allocate(pages);
            panicIf(_slotPages[slot].size() != pages,
                    "modelled OS ran out of pages");
            if (_pool->osRequests() != grants_before) {
                // The pool crossed its refill threshold mid-create: the
                // request eats the OS round trip the pool normally hides.
                std::size_t granted = _pool->osRequestSizes().back();
                service += _p.osGrantBase +
                           _p.osGrantPerPage * Tick(granted);
                ++_osGrantStalls;
            }
            break;
          }
          case FleetOp::Attest:
            service = _cost.instTime(
                          EmsCostModel::baseInsts(PrimitiveOp::EMeas) +
                          EmsCostModel::baseInsts(PrimitiveOp::EAttest)) +
                      _p.attestCryptoTime;
            break;
          case FleetOp::Seal:
            service = _cost.instTime(
                          EmsCostModel::baseInsts(PrimitiveOp::EWb)) +
                      _p.sealCryptoPerPage * Tick(_p.sealPages);
            break;
          case FleetOp::Unseal:
            service = _cost.instTime(
                          EmsCostModel::baseInsts(PrimitiveOp::EAdd)) +
                      _p.sealCryptoPerPage * Tick(_p.sealPages);
            break;
          case FleetOp::Destroy: {
            // Swap-remove through the position index: the last live
            // slot takes the destroyed one's place. make() draws from
            // _live by index, so this order is part of the seeded run.
            std::uint32_t pos = _livePos[slot];
            panicIf(pos >= _live.size() || _live[pos] != slot,
                    "destroy of a dead slot");
            std::uint32_t moved = _live.back();
            _live[pos] = moved;
            _livePos[moved] = pos;
            _live.pop_back();
            _freeSlots.push_back(slot);
            pages = _slotPages[slot].size();
            service = _cost.pageServiceTime(PrimitiveOp::EDestroy, pages);
            _pool->release(_slotPages[slot]);
            _slotPages[slot].clear();
            break;
          }
        }
        // Per-request service variance (EMS cache state, page walk
        // depth): +/-20% uniform.
        return service * rng.between(80, 120) / 100;
    }

    Tick
    maintain(ShardStats &stats, const std::string &prefix) override
    {
        // Watermark maintenance between batches: the scheduler's
        // background duty. Its OS traffic is charged to the *next* batch
        // on this EMS, never to the requests that already completed.
        Tick owed = 0;
        EnclaveMemoryPool::Rebalance moved = _pool->rebalance();
        if (moved.refilled > 0) {
            owed += _p.osGrantBase + _p.osGrantPerPage * Tick(moved.refilled);
            stats.scalar(prefix + ".rebalance_refills") += 1;
        }
        if (moved.returned > 0) {
            owed += _cost.perPageMapTime(moved.returned);
            stats.scalar(prefix + ".rebalance_returns") += 1;
        }
        return owed;
    }

    void
    report(ShardStats &stats, const std::string &prefix) const override
    {
        stats.scalar(prefix + ".peak_live_enclaves").set(double(_peakLive));
        stats.scalar(prefix + ".pool_os_requests")
            .set(double(_pool->osRequests()));
        stats.scalar(prefix + ".pool_os_returns")
            .set(double(_pool->osReturns()));
        stats.scalar(prefix + ".pool_grant_stalls")
            .set(double(_osGrantStalls));
    }

  private:
    void
    addLive(std::uint32_t slot)
    {
        _livePos[slot] = static_cast<std::uint32_t>(_live.size());
        _live.push_back(slot);
    }

    FleetTrafficParams _p;
    EmsCostModel _cost;
    // The modelled OS never runs dry, so pool pressure shows up as
    // grant latency, not allocation failure.
    OsFrames _os{0x100000};
    std::unique_ptr<EnclaveMemoryPool> _pool;

    // Fleet state: slot -> pages held; free slots; live slot list,
    // in the order make() draws from, and each live slot's index in it
    // (stale for a free slot). 32-bit positions keep the index small.
    std::vector<std::vector<Addr>> _slotPages;
    std::vector<std::uint32_t> _freeSlots;
    std::vector<std::uint32_t> _live;
    std::vector<std::uint32_t> _livePos;
    std::uint64_t _peakLive = 0;
    std::uint64_t _osGrantStalls = 0;
};

} // namespace

// ------------------------------------------------------- FleetTrafficSim

FleetTrafficSim::FleetTrafficSim(const FleetTrafficParams &params,
                                 std::string stat_prefix,
                                 ShardStats &stats)
    : FleetTrafficSim(params, std::make_unique<FleetChurn>(params),
                      std::move(stat_prefix), stats)
{}

FleetTrafficSim::FleetTrafficSim(const FleetTrafficParams &params,
                                 std::unique_ptr<RequestSource> source,
                                 std::string stat_prefix,
                                 ShardStats &stats)
    : _p(params), _prefix(std::move(stat_prefix)), _stats(stats),
      _source(std::move(source)), _rng(shardSeed(params.seed, 0))
{
    fatalIf(_p.emsCores == 0, "fleet sim needs EMS cores");
    fatalIf(_p.batchMax == 0, "fleet sim needs a batch size");
    fatalIf(_p.queueCapacity == 0, "fleet sim needs a queue");
    fatalIf(_p.jitterMax > 0 && _p.mode != FleetLoadMode::ClosedLoop,
            "dispatch jitter needs closed-loop clients");

    switch (_p.mode) {
      case FleetLoadMode::OpenPoisson:
        _arrivals = std::make_unique<PoissonArrivals>(
            _p.offeredRatePerSec, shardSeed(_p.seed, 1));
        break;
      case FleetLoadMode::OpenMmpp:
        _arrivals = std::make_unique<MmppArrivals>(
            _p.mmpp, shardSeed(_p.seed, 1));
        break;
      case FleetLoadMode::ClosedLoop:
        fatalIf(_p.clients == 0, "closed loop needs clients");
        break;
    }

    _serverBatch.assign(_p.emsCores, 0);
    for (unsigned s = 0; s < _p.emsCores; ++s) {
        _serverDone.push_back(std::make_unique<Event>(
            "fleet-batch-done-" + std::to_string(s),
            [this, s] { finishBatch(s); }));
    }
}

FleetTrafficSim::~FleetTrafficSim() = default;

void
FleetTrafficSim::run()
{
    if (_p.mode == FleetLoadMode::ClosedLoop) {
        _clientOutstanding.assign(_p.clients, 0);
        _clientIssued.assign(_p.clients, 0);
        for (unsigned c = 0; c < _p.clients; ++c) {
            _clientEv.push_back(std::make_unique<Event>(
                "fleet-client-" + std::to_string(c),
                [this, c] { clientIssue(c); }));
            if (_p.jitterMax > 0) {
                _clientDispatchEv.push_back(std::make_unique<Event>(
                    "fleet-dispatch-" + std::to_string(c),
                    [this, c] { clientDispatch(c); }));
            }
            // Staggered starts keep the client fleet decorrelated.
            Tick start =
                _rng.below(_p.thinkTime + _p.thinkJitter + 1);
            _eq.reschedule(_clientEv[c].get(), start);
        }
    } else {
        _arrivalEv = std::make_unique<Event>(
            "fleet-arrival", [this] { offerRequest(); });
        _eq.reschedule(_arrivalEv.get(), _arrivals->next());
    }
    _eq.run();

    // Summary telemetry behind the knee curve. Each load point uses
    // a distinct prefix, so shard merging never double-counts.
    _stats.scalar(_prefix + ".offered").set(double(_offered));
    _stats.scalar(_prefix + ".completed").set(double(_completed));
    _stats.scalar(_prefix + ".rejected").set(double(_rejected));
    _stats.scalar(_prefix + ".goodput_rps").set(goodputPerSec());
    _stats.scalar(_prefix + ".peak_queue_depth")
        .set(double(_peakQueueDepth));
    _stats.scalar(_prefix + ".peak_in_flight")
        .set(double(_peakInFlight));
    _source->report(_stats, _prefix);
}

double
FleetTrafficSim::goodputPerSec() const
{
    Tick end = _eq.now();
    if (end == 0)
        return 0;
    return double(_completed) * double(ticksPerSecond) / double(end);
}

Tick
FleetTrafficSim::think()
{
    return _p.thinkTime +
           (_p.thinkJitter > 0 ? _rng.below(_p.thinkJitter + 1) : 0);
}

void
FleetTrafficSim::offerRequest()
{
    if (_issued >= _p.requests)
        return;
    ++_issued;
    EmsRequest req = _source->make(0, _rng);
    req.issued = _eq.now();
    admit(req);
    if (_issued < _p.requests)
        _eq.reschedule(_arrivalEv.get(),
                       _eq.now() + _arrivals->next());
}

void
FleetTrafficSim::clientIssue(unsigned client)
{
    // The previous round trip (and its think time) has fully
    // elapsed once this event fires: the client is idle again.
    if (_clientOutstanding[client]) {
        _clientOutstanding[client] = 0;
        --_inFlight;
    }
    if (_issued >= _p.requests)
        return; // budget spent: this client retires
    ++_issued;
    _clientIssued[client] = _eq.now();
    if (_p.jitterMax > 0) {
        // EMCall scheduling obfuscation: the request reaches the EMS
        // in a randomized dispatch slot.
        _eq.reschedule(_clientDispatchEv[client].get(),
                       _eq.now() + _rng.below(_p.jitterMax + 1));
    } else {
        clientDispatch(client);
    }
}

void
FleetTrafficSim::clientDispatch(unsigned client)
{
    EmsRequest req = _source->make(client, _rng);
    req.issued = _clientIssued[client];
    if (admit(req)) {
        _clientOutstanding[client] = 1;
    } else {
        // Rejection response still pays the transport; the client
        // thinks, then retries with a fresh request.
        _eq.reschedule(_clientEv[client].get(),
                       _eq.now() + _p.transportOverhead + think());
    }
}

FleetTrafficSim::ClassStats &
FleetTrafficSim::classStats(std::uint32_t cls)
{
    if (cls >= _classStats.size())
        _classStats.resize(cls + 1);
    return _classStats[cls];
}

std::string
FleetTrafficSim::classKey(std::uint32_t cls, const char *suffix) const
{
    return _prefix + "." + _source->className(cls) + suffix;
}

bool
FleetTrafficSim::admit(EmsRequest req)
{
    ClassStats &cs = classStats(req.cls);
    ++_offered;
    if (cs.offered == nullptr)
        cs.offered = &_stats.scalar(classKey(req.cls, "_offered"));
    *cs.offered += 1;
    if (_queue.size() >= _p.queueCapacity) {
        ++_rejected;
        if (cs.rejected == nullptr)
            cs.rejected = &_stats.scalar(classKey(req.cls, "_rejected"));
        *cs.rejected += 1;
        return false;
    }
    req.service = _source->admit(req, _rng);

    _queue.push_back(req);
    _peakQueueDepth =
        std::max<std::uint64_t>(_peakQueueDepth, _queue.size());
    ++_inFlight;
    _peakInFlight = std::max(_peakInFlight, _inFlight);
    tryDispatch();
    return true;
}

void
FleetTrafficSim::tryDispatch()
{
    for (unsigned s = 0; s < _p.emsCores && !_queue.empty(); ++s) {
        if (_serverDone[s]->scheduled())
            continue; // busy until its batch-done event fires

        // One doorbell/mailbox round trip covers the whole batch;
        // members complete in order at their cumulative offsets.
        Tick t = _p.batchOverhead + _pendingMaintenance;
        _pendingMaintenance = 0;
        std::size_t n = 0;
        for (; n < _p.batchMax && !_queue.empty(); ++n) {
            t += _queue.front().service;
            recordCompletion(_queue.front(), _eq.now() + t);
            _queue.pop_front();
        }
        _serverBatch[s] = n;
        _eq.reschedule(_serverDone[s].get(), _eq.now() + t);
    }
}

void
FleetTrafficSim::finishBatch(unsigned server)
{
    if (_p.mode != FleetLoadMode::ClosedLoop)
        _inFlight -= _serverBatch[server];
    _pendingMaintenance += _source->maintain(_stats, _prefix);
    tryDispatch();
}

void
FleetTrafficSim::recordCompletion(const EmsRequest &req, Tick finish)
{
    // The response is seen after the (obfuscated) poll and the
    // transport back to the client.
    Tick poll = _p.jitterMax > 0 ? _rng.below(_p.jitterMax + 1) : 0;
    Tick done = finish + poll + _p.transportOverhead;
    ClassStats &cs = classStats(req.cls);
    if (cs.latency == nullptr)
        cs.latency = &_stats.distribution(classKey(req.cls, "_latency"));
    cs.latency->sample(double(done - req.issued));
    ++_completed;
    if (_p.mode == FleetLoadMode::ClosedLoop)
        _eq.reschedule(_clientEv[req.client].get(), done + think());
}

// ------------------------------------------------------ sweep definition

std::vector<FleetScenario>
fleetSloScenarios(bool smoke, std::uint64_t seed)
{
    // The modelled 2-core EMS saturates near ~185k requests/sec for
    // this op mix, so the Poisson points straddle the knee.
    std::vector<double> rates;
    if (smoke)
        rates = {40'000, 175'000, 225'000};
    else
        rates = {40'000, 90'000,  150'000,
                 175'000, 195'000, 225'000};

    FleetTrafficParams base;
    base.enclaveSlots = smoke ? 1024 : 4096;
    base.requests = smoke ? 8'000 : 60'000;
    base.pagesPerEnclave = 8;
    base.queueCapacity = 1024;
    base.batchMax = 8;
    base.emsCores = 2;
    base.pool.initialPages = smoke ? 4096 : 16384;
    base.pool.refillBatch = 4096;
    base.pool.lowWatermark = 2048;
    base.pool.highWatermark = smoke ? 16384 : 65536;
    base.seed = seed;

    std::vector<FleetScenario> out;
    for (double rate : rates) {
        FleetScenario s;
        s.params = base;
        s.params.mode = FleetLoadMode::OpenPoisson;
        s.params.offeredRatePerSec = rate;
        // Each load point gets an independent seed split so its
        // streams never correlate with a neighbouring point.
        s.params.seed = shardSeed(seed, out.size());
        s.name =
            "poisson_" + std::to_string(std::uint64_t(rate) / 1000) +
            "k";
        out.push_back(std::move(s));
    }
    {
        FleetScenario s;
        s.params = base;
        s.params.mode = FleetLoadMode::OpenMmpp;
        s.params.mmpp.quietRatePerSec = 60'000;
        s.params.mmpp.burstRatePerSec = 600'000;
        s.params.mmpp.meanQuietSec = 4e-3;
        s.params.mmpp.meanBurstSec = 1e-3;
        s.params.seed = shardSeed(seed, out.size());
        s.name = "mmpp_burst";
        out.push_back(std::move(s));
    }
    {
        FleetScenario s;
        s.params = base;
        s.params.mode = FleetLoadMode::ClosedLoop;
        s.params.clients = 512;
        s.params.thinkTime = 4'000'000;
        s.params.thinkJitter = 4'000'000;
        s.params.seed = shardSeed(seed, out.size());
        s.name = "closed_512c";
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace hypertee
