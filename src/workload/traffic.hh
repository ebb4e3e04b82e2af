/**
 * @file
 * The EMS scheduler and the traffic that drives it.
 *
 * One event-driven model of how the EMS queues and serves primitive
 * requests: a front end — open-loop Poisson, open-loop bursty
 * (two-state MMPP), or closed-loop clients with think time — feeds a
 * bounded admission queue with per-class rejection accounting, and k
 * EMS cores drain it in batches that amortize the doorbell/mailbox
 * overhead. Per-class latency Distributions give p50/p99/p999 vs
 * offered load (the knee curve), goodput and rejection rate through
 * `--stats-json`. What is served is a RequestSource: the fleet churn
 * (bench_fleet_slo: enclave create/attest/seal/unseal/destroy over
 * thousands of enclaves on the watermarked EnclaveMemoryPool) or a
 * ScriptedSource (Figure 6 and the EMS timing attacker).
 *
 * Everything is deterministic from one seed: every Random stream is
 * split from FleetTrafficParams::seed, which the benches derive from
 * the per-shard `shardSeed` — so a sweep fans out across shards with
 * byte-identical output for any `--jobs`.
 */

#ifndef HYPERTEE_WORKLOAD_TRAFFIC_HH
#define HYPERTEE_WORKLOAD_TRAFFIC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ems/cost_model.hh"
#include "ems/memory_pool.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/shard.hh"
#include "sim/types.hh"

namespace hypertee
{

/** The enclave-management operation classes the fleet churns. */
enum class FleetOp : std::uint8_t
{
    Create = 0,
    Attest,
    Seal,
    Unseal,
    Destroy,
};

constexpr std::size_t fleetOpCount = 5;

/** Stable lower-case name used in stat keys and table rows. */
const char *fleetOpName(FleetOp op);

/**
 * A deterministic interarrival-time source: one call per request,
 * reproducible from the construction seed.
 */
class InterarrivalProcess
{
  public:
    virtual ~InterarrivalProcess() = default;

    /** Ticks until the next arrival. */
    virtual Tick next() = 0;
};

/**
 * Open-loop Poisson arrivals: exponential interarrivals at a fixed
 * rate, memoryless and smooth (CV = 1). The textbook open-loop
 * traffic model every queueing result is quoted against.
 */
class PoissonArrivals final : public InterarrivalProcess
{
  public:
    /** @param rate_per_sec offered load, requests per second. */
    PoissonArrivals(double rate_per_sec, std::uint64_t seed);

    Tick next() override;

  private:
    double _meanTicks;
    Random _rng;
};

/**
 * Two-state Markov-modulated Poisson process: a quiet state and a
 * burst state, each with its own arrival rate, with exponentially
 * distributed dwell times. Models flash-crowd request traffic; the
 * interarrival CV exceeds 1, which is what stresses the admission
 * queue and the pool watermarks.
 */
class MmppArrivals final : public InterarrivalProcess
{
  public:
    struct Params
    {
        double quietRatePerSec = 20'000;
        double burstRatePerSec = 200'000;
        double meanQuietSec = 4e-3;
        double meanBurstSec = 1e-3;
    };

    MmppArrivals(const Params &params, std::uint64_t seed);

    Tick next() override;

    /** Time-averaged arrival rate of the modulated process. */
    double analyticMeanRatePerSec() const;

    /** Analytic mean interarrival time, in ticks. */
    double analyticMeanInterarrivalTicks() const;

  private:
    Params _p;
    Random _rng;
    bool _burst = false;
    double _dwellLeftTicks;
};

/** How the front end offers load to the EMS. */
enum class FleetLoadMode : std::uint8_t
{
    OpenPoisson,
    OpenMmpp,
    ClosedLoop,
};

struct FleetTrafficParams
{
    FleetLoadMode mode = FleetLoadMode::OpenPoisson;

    // ---- open-loop front end ----
    /** Offered load for OpenPoisson, requests per second. */
    double offeredRatePerSec = 50'000;
    /** Burst shape for OpenMmpp. */
    MmppArrivals::Params mmpp;

    // ---- closed-loop front end ----
    /** Concurrent clients; in-flight requests never exceed this. */
    unsigned clients = 256;
    Tick thinkTime = 2'000'000;   ///< 2 us of client-side work
    Tick thinkJitter = 2'000'000; ///< +U[0, jitter] decorrelation

    /** Total requests the front end offers before stopping. */
    std::uint64_t requests = 50'000;

    // ---- EMS scheduler under test ----
    unsigned emsCores = 2;
    /** Admission bound: arrivals beyond this depth are rejected. */
    std::size_t queueCapacity = 1024;
    /** Requests coalesced into one doorbell/mailbox round trip. */
    std::size_t batchMax = 8;
    /** Fixed cost per batch (doorbell + mailbox + dispatch). */
    Tick batchOverhead = 900'000;
    /** Gate + response transport added to every round trip. */
    Tick transportOverhead = 300'000;
    /** EMCall obfuscation (closed loop): U[0, jitterMax] dispatch and
     *  poll delays per request; 0 is off. */
    Tick jitterMax = 0;

    // ---- fleet churn source: shape ----
    /** Enclave slots; live enclaves converge to this population. */
    std::size_t enclaveSlots = 4096;
    /** Pages a create draws from the pool (destroy returns them). */
    std::size_t pagesPerEnclave = 8;
    /** Pages sealed/unsealed per request. */
    std::size_t sealPages = 4;
    EmsCostParams cost = emsMediumCost();

    // ---- fleet churn source: crypto service terms ----
    Tick attestCryptoTime = 6'000'000; ///< quote signing on the engine
    Tick sealCryptoPerPage = 450'000;  ///< AES-GCM per 4 KiB page

    // ---- fleet churn source: free-page pool ----
    EnclaveMemoryPool::Params pool;
    /** Fixed OS round-trip charged when a refill leaves the EMS. */
    Tick osGrantBase = 8'000'000;
    /** Per-page OS cost within a grant (batched fault path). */
    Tick osGrantPerPage = 60'000;

    /** Root of every internal Random stream (split per consumer). */
    std::uint64_t seed = 1;
};

/** One EMS request as the scheduler sees it. */
struct EmsRequest
{
    std::uint32_t cls = 0;    ///< source-defined request class
    std::uint32_t client = 0; ///< issuing client (closed loop)
    std::uint32_t target = 0; ///< source-defined (churn: enclave slot)
    Tick issued = 0;          ///< latency is measured from here
    Tick service = 0;         ///< EMS-side service time
};

/**
 * What the EMS serves: the request mix and the service model behind
 * it. The scheduler owns the front end, the queue and the servers; a
 * source owns all state its requests act on, and draws from the
 * scheduler's Random so one seed orders the whole simulation.
 */
class RequestSource
{
  public:
    virtual ~RequestSource() = default;

    /** Stat-key name of request class @p cls. */
    virtual const char *className(std::uint32_t cls) const = 0;

    /** The next request of @p client (0 in open loop). */
    virtual EmsRequest make(std::uint32_t client, Random &rng) = 0;

    /** Book in an admitted request; returns its EMS service time. */
    virtual Tick admit(EmsRequest &req, Random &rng) = 0;

    /** Duty after a server's batch; the next batch pays its time. */
    virtual Tick maintain(ShardStats &, const std::string &) { return 0; }

    /** Export end-of-run telemetry under `<prefix>.`. */
    virtual void report(ShardStats &, const std::string &) const {}
};

/**
 * Closed-loop scripted requests: client c's i-th admitted request
 * costs cost(c, i) and is recorded under class name client_class[c],
 * so clients that share a name share a latency Distribution.
 */
class ScriptedSource final : public RequestSource
{
  public:
    using Cost = std::function<Tick(std::uint32_t client, std::uint64_t i)>;

    ScriptedSource(std::vector<std::string> client_class, Cost cost)
        : _class(std::move(client_class)), _admitted(_class.size()),
          _cost(std::move(cost))
    {}

    const char *
    className(std::uint32_t cls) const override
    {
        return _class.at(cls).c_str();
    }

    EmsRequest
    make(std::uint32_t client, Random &) override
    {
        return {client, client};
    }

    Tick
    admit(EmsRequest &req, Random &) override
    {
        return _cost(req.client, _admitted.at(req.client)++);
    }

  private:
    std::vector<std::string> _class;
    std::vector<std::uint64_t> _admitted;
    Cost _cost;
};

/**
 * The event-driven EMS scheduler. Samples per-class latencies,
 * offered/rejected counts and scheduler telemetry into a caller-owned
 * ShardStats under `<prefix>.` so independent load points merge
 * cleanly across shards.
 */
class FleetTrafficSim
{
  public:
    /** Serve the fleet churn described by @p params. */
    FleetTrafficSim(const FleetTrafficParams &params,
                    std::string stat_prefix, ShardStats &stats);
    /** Serve @p source's requests. */
    FleetTrafficSim(const FleetTrafficParams &params,
                    std::unique_ptr<RequestSource> source,
                    std::string stat_prefix, ShardStats &stats);
    ~FleetTrafficSim();

    FleetTrafficSim(const FleetTrafficSim &) = delete;
    FleetTrafficSim &operator=(const FleetTrafficSim &) = delete;

    /** Run until the request budget is offered and drained. */
    void run();

    // ---- results (also exported through the ShardStats) ----
    std::uint64_t offered() const { return _offered; }
    std::uint64_t completed() const { return _completed; }
    std::uint64_t rejected() const { return _rejected; }
    std::uint64_t peakInFlight() const { return _peakInFlight; }
    std::uint64_t peakQueueDepth() const { return _peakQueueDepth; }
    Tick endTime() const { return _eq.now(); }
    /** Completed requests per simulated second. */
    double goodputPerSec() const;

  private:
    void offerRequest();
    /** @return false when the admission queue rejected the request. */
    bool admit(EmsRequest req);
    void tryDispatch();
    void finishBatch(unsigned server);
    void clientIssue(unsigned client);
    void clientDispatch(unsigned client);
    void recordCompletion(const EmsRequest &req, Tick finish);
    Tick think();

    /**
     * One request class's stats. Each is resolved through ShardStats
     * the first time its class uses it, so it exists only from then
     * on (a class never rejected has no `_rejected` scalar), and is
     * kept, since a ShardStats lookup per request would cost more than
     * the queueing model. Classes that share a name share the stats.
     */
    struct ClassStats
    {
        Scalar *offered = nullptr;
        Scalar *rejected = nullptr;
        Distribution *latency = nullptr;
    };
    ClassStats &classStats(std::uint32_t cls);
    /** `<prefix>.<class name><suffix>`. */
    std::string classKey(std::uint32_t cls, const char *suffix) const;

    FleetTrafficParams _p;
    std::string _prefix;
    ShardStats &_stats;
    std::unique_ptr<RequestSource> _source;
    std::vector<ClassStats> _classStats; ///< indexed by request class

    EventQueue _eq;
    Random _rng; ///< source draws, think jitter, obfuscation jitter
    std::unique_ptr<InterarrivalProcess> _arrivals;

    std::deque<EmsRequest> _queue;
    std::vector<std::unique_ptr<Event>> _serverDone;
    std::vector<std::size_t> _serverBatch; ///< requests in service
    /** Maintenance time owed by the next batch. */
    Tick _pendingMaintenance = 0;
    std::unique_ptr<Event> _arrivalEv;

    // Closed-loop clients.
    std::vector<std::unique_ptr<Event>> _clientEv;
    /** Dispatch after the obfuscation delay (jitterMax > 0 only). */
    std::vector<std::unique_ptr<Event>> _clientDispatchEv;
    std::vector<Tick> _clientIssued;
    /** 1 while the client's request is outstanding. */
    std::vector<std::uint8_t> _clientOutstanding;

    std::uint64_t _offered = 0;
    std::uint64_t _issued = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _rejected = 0;
    std::uint64_t _inFlight = 0;
    std::uint64_t _peakInFlight = 0;
    std::uint64_t _peakQueueDepth = 0;
};

/** One sweep point of the fleet SLO bench / golden fixture. */
struct FleetScenario
{
    std::string name; ///< stat prefix and row label
    FleetTrafficParams params;
};

/**
 * The bench_fleet_slo sweep: offered-load points below, at and beyond
 * the modelled EMS capacity (the knee curve), plus one bursty MMPP
 * point and one closed-loop point, over a fleet of
 * `enclaveSlots` >= 1024 concurrent enclaves. The @p smoke variant
 * trims request counts and sweep width for CI; both variants are
 * pure functions of @p seed.
 */
std::vector<FleetScenario> fleetSloScenarios(bool smoke,
                                             std::uint64_t seed);

} // namespace hypertee

#endif // HYPERTEE_WORKLOAD_TRAFFIC_HH
