/**
 * @file
 * fleet_mixed: a wearable fleet phoning home to a router that fronts
 * three peered stitchd shards, all in this process, driven over the
 * localhost wire. It is an open loop with Poisson arrivals at one rate
 * kept below saturation, hot-set duplicates plus a unique tail,
 * priority bands, and healthz probes on their own connection at a
 * fixed interval. Hot requests read the local and remote cache tiers;
 * tail requests simulate and then replicate (cacheput write-behind)
 * to the peers.
 *
 * A run is a series of rounds, each on a fresh fleet: set-up, then
 * the timed phase. Set-up binds the shards and the router, sends one
 * job per app to every shard, so every kernel the tail needs is
 * compiled, and caches the hot set through the router, as a fleet
 * that has been serving for a while already has. The compile jobs use
 * identities disjoint from the timed schedule, so which timed
 * requests hit is a pure function of the schedule. Fresh fleets bound
 * the memory a round retains and give several set-up samples per run.
 *
 * Identities are made distinct through the design point or through
 * instruction budgets at or above the runaway budget, never through
 * a finite budget, so every request runs the default simulation path.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include <malloc.h>
#include <sys/prctl.h>

#include "bench.hh"
#include "fault/fault.hh"
#include "fleet/router.hh"
#include "svc/engine.hh"
#include "svc/server.hh"
#include "telem/span.hh"

using stitch::obs::Json;
namespace svc = stitch::svc;

namespace stitchbench
{

namespace
{

constexpr int kShards = 3;
constexpr int kSenders = 3; ///< open-loop senders (+1 prober)
/**
 * The traffic mix. As in fleet::LoadMix, the repository's model of
 * the same fleet (stitchload), every job is a 1/2-sample capture and
 * priorities are uniform over three bands. The hot set is APP1-4 in
 * each of the paper's four modes with the default policy: 16 jobs,
 * the same for every seed, so the cost of a hit does not depend on
 * which design points a seed happens to draw. The tail walks all 32
 * captures (every policy).
 *
 * The hot share is an assumption with no source. LoadMix's 60 % puts
 * the median request on the edge between unqueued hits and hits
 * queued behind a simulation, so p50 jumps between those two
 * populations from seed to seed. At 90 % the median request is an
 * unqueued hit and p95 a tail simulation.
 */
constexpr double kHotFraction = 0.9;
constexpr double kArrivalRate = 80.0; ///< arrivals per second
/** Timed phase of a round: 320 arrivals, so its 32 tail jobs are the
 *  32 captures, each once, and every round simulates the same mix. */
constexpr double kRoundS = 4.0;
constexpr double kProbeIntervalMs = 100.0;
constexpr std::uint64_t kTimeoutMs = 10000;
/** Shards listen on kBasePort + i, the router on kBasePort + kShards
 *  (below the usual ephemeral range). */
constexpr int kBasePort = 31400;

/** Request ids travel in the job's "name" (presentation-only, not
 *  hashed) so shard-side spans can be joined to client spans. */
std::string
reqName(std::uint64_t req)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "r%012" PRIx64, req);
    return buf;
}

std::uint64_t
reqOfName(const Json &doc)
{
    if (!doc.isObject() || !doc.has("name"))
        return 0;
    const std::string &name = doc.get("name").asString();
    if (name.size() != 13 || name[0] != 'r')
        return 0;
    return std::strtoull(name.c_str() + 1, nullptr, 16);
}

/** The 1/2-sample captures of the universe, in a seeded order. */
std::vector<int>
shuffledCaptures(Rng &rng)
{
    std::vector<int> points;
    const auto &universe = designUniverse();
    for (std::size_t i = 0; i < universe.size(); ++i)
        if (universe[i].samplesShort == 1 && universe[i].samplesLong == 2)
            points.push_back(static_cast<int>(i));
    for (std::size_t i = points.size(); i > 1; --i)
        std::swap(points[i - 1], points[rng.below(i)]);
    return points;
}

/** One slot of a timed schedule. */
struct Slot
{
    int point = 0;           ///< index into designUniverse()
    std::uint64_t budget = 0; ///< 0 or >= runawayBudget()
    int priority = 0;
    double dueMs = 0.0; ///< open loop: offset from phase start
};

std::uint64_t
scheduleDigest(const std::vector<Slot> &slots)
{
    std::uint64_t digest = 0;
    for (const Slot &slot : slots) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "|%.6f|", slot.dueMs);
        digest = digestBytes(
            jobDoc(designUniverse()[static_cast<std::size_t>(slot.point)],
                   slot.budget, slot.priority, "")
                    .dump() +
                buf,
            digest ^ 0x9e3779b97f4a7c15ull);
    }
    return digest;
}

/** What one timed request observed. */
struct Sample
{
    std::uint64_t req = 0;
    bool ok = false;
    bool cached = false;
    std::int64_t dueNs = 0;
    std::int64_t sendNs = 0;
    std::int64_t doneNs = 0;
    std::string shard;
    std::uint64_t bytes = 0; ///< request + response frames
};

/** The output check shared by every client of one round. */
class Checker
{
  public:
    /** Failure kind of `response` to a request for `point`, or "". */
    std::string
    check(const DesignPoint &point, const Json &response)
    {
        try {
            return checkOrThrow(point, response);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "malformed response: %s\n", e.what());
            return "untyped";
        }
    }

  private:
    std::string
    checkOrThrow(const DesignPoint &point, const Json &response)
    {
        if (!response.isObject() || !response.has("status"))
            return "untyped";
        if (response.get("status").asString() != "ok")
            return response.has("error_kind")
                       ? "typed:" +
                             response.get("error_kind").asString()
                       : "untyped";
        const Json &report = response.get("report");
        const Json &derived = response.get("derived");
        const std::string mismatch =
            Golden::instance().check(point, report, derived);
        if (!mismatch.empty()) {
            std::fprintf(stderr, "wrong output: %s\n",
                         mismatch.c_str());
            return "wrong_output";
        }
        // A cached answer must be byte-identical to the simulated one
        // (the first answer seen for the key in this round).
        const std::uint64_t hash =
            digestBytes(derived.dump(), digestBytes(report.dump()));
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, fresh] =
            first_.emplace(response.get("key").asString(), hash);
        if (!fresh && it->second != hash) {
            std::fprintf(stderr, "wrong output: %s differs from the "
                                 "first answer for its key\n",
                         point.id().c_str());
            return "wrong_output";
        }
        return "";
    }

    std::mutex mutex_;
    std::map<std::string, std::uint64_t> first_;
};

/**
 * Three peered shards and a router, served on localhost threads.
 * With a SpanLog, every shard and router handler call is recorded
 * and the engines run with stage telemetry.
 */
class Fleet
{
  public:
    explicit Fleet(SpanLog *spans) : spans_(spans)
    {
        // Bind every server first so the peer ports are known; the
        // handlers only touch the engines at request time.
        for (int i = 0; i < kShards; ++i)
            shards_.push_back(bind(
                [this, i](const Json &doc) { return shardCall(i, doc); },
                static_cast<std::uint16_t>(kBasePort + i)));
        for (int i = 0; i < kShards; ++i) {
            svc::EngineOptions options;
            options.telemetry = spans_ != nullptr;
            for (int p = 0; p < kShards; ++p)
                if (p != i)
                    options.remoteCache.peers.push_back(endpoint(p));
            engines_[i] = std::make_unique<svc::JobEngine>(options);
            sinkOffsetNs_[i] =
                nowNs() - static_cast<std::int64_t>(
                              engines_[i]->spanSink().nowUs() * 1000);
        }
        stitch::fleet::RouterOptions routerOptions;
        for (int i = 0; i < kShards; ++i)
            routerOptions.shards.push_back(endpoint(i));
        router_ = std::make_unique<stitch::fleet::Router>(routerOptions);
        front_ = bind([this](const Json &doc) { return frontCall(doc); },
                      static_cast<std::uint16_t>(kBasePort + kShards));

        for (auto &server : shards_)
            threads_.emplace_back([srv = server.get()] { srv->serve(); });
        threads_.emplace_back([srv = front_.get()] { srv->serve(); });
    }

    ~Fleet()
    {
        front_->stop();
        for (auto &server : shards_)
            server->stop();
        for (auto &thread : threads_)
            thread.join();
    }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    std::uint16_t port() const { return front_->port(); }
    bool fixedPorts() const { return fixedPorts_; }
    std::uint16_t shardPort(int i) const { return shards_[i]->port(); }
    svc::JobEngine &engine(int i) { return *engines_[i]; }
    stitch::fleet::RouterStats routerStats() const
    {
        return router_->stats();
    }

    /** Engine stage spans of every shard, on this process's clock,
     *  joined to their request ids. */
    std::vector<Span>
    engineSpans() const
    {
        std::vector<Span> out;
        std::lock_guard<std::mutex> lock(jobReqMutex_);
        for (int i = 0; i < kShards; ++i)
            for (const auto &s : engines_[i]->spanSink().snapshot()) {
                Span span;
                span.name = std::string("engine.") +
                            stitch::telem::stageName(s.stage);
                auto it = jobReq_.find({i, s.jobId});
                span.req = it == jobReq_.end() ? 0 : it->second;
                span.startNs =
                    sinkOffsetNs_[i] +
                    static_cast<std::int64_t>(s.startUs) * 1000;
                span.endNs = sinkOffsetNs_[i] +
                             static_cast<std::int64_t>(s.endUs) * 1000;
                span.lane = 100 + i;
                out.push_back(span);
            }
        return out;
    }

  private:
    /** The ring hashes "host:port", so every fresh fleet routes the
     *  same way only on the same ports: bind the fixed one when it is
     *  free, an ephemeral one otherwise. */
    std::unique_ptr<svc::Server>
    bind(const svc::Server::RequestHandler &handler, std::uint16_t port)
    {
        try {
            return std::make_unique<svc::Server>(handler, port);
        } catch (const stitch::fault::ConfigError &) {
            fixedPorts_ = false;
            return std::make_unique<svc::Server>(handler, 0);
        }
    }

    std::string
    endpoint(int i) const
    {
        return "127.0.0.1:" + std::to_string(shards_[i]->port());
    }

    /** A shard's dispatch — the same split the engine-mode serve
     *  loop makes — timed when tracing. */
    Json
    shardCall(int i, const Json &doc)
    {
        svc::JobEngine &engine = *engines_[i];
        std::string what = "job";
        const std::int64_t t0 = spans_ ? nowNs() : 0;
        Json response;
        int jobId = -1;
        if (doc.isObject() && doc.has("cmd")) {
            what = doc.get("cmd").asString();
            if (what == "cacheget" || what == "cacheput")
                response = svc::cacheVerbResponse(engine, doc);
            else
                response = svc::introspectionResponse(
                    engine, what, shards_[i]->uptimeS(),
                    shards_[i]->servedCount());
        } else {
            response = svc::handleRequest(engine, doc, &jobId);
        }
        if (!spans_)
            return response;

        Span span;
        span.name = "svc.shard." + what;
        span.startNs = t0;
        span.endNs = nowNs();
        span.lane = 10 + i;
        if (what == "job") {
            span.req = reqOfName(doc);
            span.tag = response.has("cached") &&
                               response.get("cached").asBool()
                           ? "hit"
                           : "miss";
            std::lock_guard<std::mutex> lock(jobReqMutex_);
            jobReq_[{i, jobId}] = span.req;
        } else if (doc.has("spec")) {
            span.req = reqOfName(doc.get("spec")); // peer cache verbs
        } else {
            span.req = routerReq_.load(); // the router's own probes
        }
        spans_->record(span);
        return response;
    }

    Json
    frontCall(const Json &doc)
    {
        if (!spans_)
            return router_->handle(doc);
        Span span;
        span.name = "fleet.router";
        const bool probe = doc.isObject() && doc.has("cmd");
        span.tag = probe ? "probe" : "job";
        span.req = probe ? doc.get("probe").asUint() : reqOfName(doc);
        span.lane = 1;
        routerReq_.store(span.req);
        span.startNs = nowNs();
        Json response = router_->handle(doc);
        span.endNs = nowNs();
        routerReq_.store(0);
        spans_->record(span);
        return response;
    }

    SpanLog *spans_;
    bool fixedPorts_ = true;
    /** Request the (serial) router is handling: parents the probes
     *  it sends to shards, which carry no id of their own. */
    std::atomic<std::uint64_t> routerReq_{0};
    std::array<std::unique_ptr<svc::JobEngine>, kShards> engines_;
    std::array<std::int64_t, kShards> sinkOffsetNs_{};
    mutable std::mutex jobReqMutex_;
    std::map<std::pair<int, int>, std::uint64_t> jobReq_;
    std::vector<std::unique_ptr<svc::Server>> shards_;
    std::unique_ptr<stitch::fleet::Router> router_;
    std::unique_ptr<svc::Server> front_;
    std::vector<std::thread> threads_;
};

/** Send one job document; fills the sample and tallies the outcome. */
void
sendJob(const Json &doc, const DesignPoint &point, const std::string &host,
        std::uint16_t port, Checker &checker, Sample &sample,
        Tally &tally, bool countBytes)
{
    ++tally.attempted;
    sample.sendNs = nowNs();
    Json response;
    try {
        response = svc::requestReport(host, port, doc, nullptr, 0,
                                      kTimeoutMs);
    } catch (const stitch::fault::ConfigError &) {
        sample.doneNs = nowNs();
        tally.fail("transport");
        return;
    }
    sample.doneNs = nowNs();
    const std::string failure = checker.check(point, response);
    if (!failure.empty()) {
        tally.fail(failure);
        return;
    }
    sample.ok = true;
    sample.cached = response.get("cached").asBool();
    if (response.has("shard"))
        sample.shard = response.get("shard").asString();
    if (countBytes) // frames carry a 4-byte length prefix each way
        sample.bytes = doc.dump().size() + response.dump().size() + 8;
}

/** fleet_mixed's compile warm-up: one job per app sent straight to
 *  every shard, so each engine compiles every kernel the tail needs.
 *  Budgets from a reserved range keep these identities disjoint from
 *  any timed request. */
void
compileEverywhere(Fleet &fleet, Tally &tally, Checker &checker)
{
    const auto &universe = designUniverse();
    for (int shard = 0; shard < kShards; ++shard)
        for (std::size_t i = 0; i < universe.size(); ++i) {
            const DesignPoint &point = universe[i];
            if (point.mode != "stitch" || point.policy != "auto" ||
                point.samplesShort != 1 || point.samplesLong != 2)
                continue;
            const std::uint64_t budget =
                runawayBudget() + (1ull << 40) +
                static_cast<std::uint64_t>(shard);
            Sample sample;
            sendJob(jobDoc(point, budget, 0, ""), point, "127.0.0.1",
                    fleet.shardPort(shard), checker, sample, tally,
                    false);
        }
}

/** Simulate the hot set once through the router, as a fleet that has
 *  been serving for a while already has it cached. */
void
cacheHotSet(Fleet &fleet, const std::vector<int> &hotSet, Tally &tally,
            Checker &checker)
{
    for (int index : hotSet) {
        const DesignPoint &point =
            designUniverse()[static_cast<std::size_t>(index)];
        Sample sample;
        sendJob(jobDoc(point, 0, 0, ""), point, "127.0.0.1", fleet.port(),
                checker, sample, tally, false);
    }
}

void
flushAll(Fleet &fleet)
{
    for (int i = 0; i < kShards; ++i)
        fleet.engine(i).flushRemoteCache();
}

svc::RemoteCacheStats
remoteTotals(Fleet &fleet)
{
    svc::RemoteCacheStats sum;
    for (int i = 0; i < kShards; ++i) {
        const auto s = fleet.engine(i).remoteCache()->stats();
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.stores += s.stores;
    }
    return sum;
}

/** Everything one round measured. */
struct Round
{
    bool traced = false;
    double setupS = 0.0;
    std::int64_t t0 = 0, t1 = 0; ///< the timed phase
    std::vector<Sample> jobs;
    std::vector<Sample> probes;
    std::vector<double> queueMs; ///< engine queue wait, timed jobs
    std::uint64_t jobsRetained = 0;
    double rssMb = 0.0; ///< resident at the end of the timed phase
    bool fixedPorts = true; ///< routing reproducible across rounds
    stitch::fleet::RouterStats router; ///< timed-phase deltas
    svc::RemoteCacheStats remote;      ///< timed-phase deltas
    std::uint64_t simulated[6] = {};   ///< sim.* sums, timed misses
    std::vector<Span> spans;
};

const char *const kSimTotals[6] = {
    "instructions",        "makespan_cycles",
    "custom_instructions", "fused_custom_instructions",
    "snoc_hops",           "messages"};

/** Run `body(client)` on `clients` threads and join them. */
template <typename Body>
void
runClients(int clients, Body body)
{
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&body, c] { body(c); });
    for (auto &thread : threads)
        thread.join();
}

/** Counters at the start of a round's timed phase. */
struct TimedStart
{
    std::array<int, kShards> jobs{}; ///< jobCount() per shard
    stitch::fleet::RouterStats router;
    svc::RemoteCacheStats remote;
};

TimedStart
timedStart(Fleet &fleet)
{
    TimedStart start;
    for (int i = 0; i < kShards; ++i)
        start.jobs[i] = fleet.engine(i).jobCount();
    start.router = fleet.routerStats();
    start.remote = remoteTotals(fleet);
    return start;
}

/** Common end-of-round bookkeeping. */
void
finishRound(Fleet &fleet, Round &round, SpanLog *log,
            const TimedStart &start)
{
    const stitch::fleet::RouterStats &routerBefore = start.router;
    const svc::RemoteCacheStats &remoteBefore = start.remote;
    round.rssMb = currentRssMb();
    round.fixedPorts = fleet.fixedPorts();
    flushAll(fleet);
    const auto routerAfter = fleet.routerStats();
    round.router.failoverReroutes =
        routerAfter.failoverReroutes - routerBefore.failoverReroutes;
    round.router.unavailable =
        routerAfter.unavailable - routerBefore.unavailable;
    const auto remoteAfter = remoteTotals(fleet);
    round.remote.hits = remoteAfter.hits - remoteBefore.hits;
    round.remote.misses = remoteAfter.misses - remoteBefore.misses;
    round.remote.stores = remoteAfter.stores - remoteBefore.stores;
    for (int i = 0; i < kShards; ++i) {
        svc::JobEngine &engine = fleet.engine(i);
        round.jobsRetained +=
            static_cast<std::uint64_t>(engine.jobCount());
        for (int id = start.jobs[i]; id < engine.jobCount(); ++id) {
            const auto &result = engine.result(id);
            round.queueMs.push_back(result.queueMs);
            if (result.cached ||
                result.status != svc::JobResult::Status::Completed)
                continue;
            const Json &totals = result.report.get("totals");
            for (int k = 0; k < 6; ++k)
                round.simulated[k] += totals.get(kSimTotals[k]).asUint();
        }
    }
    if (log) {
        round.spans = log->snapshot();
        for (Span &span : fleet.engineSpans())
            round.spans.push_back(std::move(span));
    }
}

/** Say so when a round could not use the fixed ports: its routing,
 *  and with it the shard spread, is then not reproducible. */
void
noteRouting(Result &result, const std::vector<Round> &rounds)
{
    for (const Round &round : rounds)
        if (!round.fixedPorts) {
            result.notes.push_back(
                "fixed ports busy: routing varies between rounds");
            return;
        }
}

/** Rounds per run: a fixed count for a given --seconds, so exact
 *  counters repeat exactly; at least two, and even, so the traced
 *  run has as many traced rounds as untraced ones. */
int
roundsFor(const Options &options, double roundCostS)
{
    int rounds = static_cast<int>(std::lround(options.seconds / roundCostS));
    rounds = std::max(2, rounds);
    return rounds + rounds % 2;
}

// -------------------------------------------------------------------
// Aggregation of rounds into the two metric sets.

/** Spans of one request, by name. */
struct ReqSpans
{
    const Span *client = nullptr;
    const Span *router = nullptr;
    const Span *shard = nullptr;
};

/** Length of [from, to] that `spans` (sorted, disjoint) cover. */
double
coveredMs(const std::vector<const Span *> &spans, std::int64_t from,
          std::int64_t to)
{
    if (to <= from)
        return 0.0;
    auto it = std::partition_point(
        spans.begin(), spans.end(),
        [from](const Span *s) { return s->endNs <= from; });
    std::int64_t covered = 0;
    for (; it != spans.end() && (*it)->startNs < to; ++it)
        covered += std::min(to, (*it)->endNs) -
                   std::max(from, (*it)->startNs);
    return msBetween(0, covered);
}

void
addLayerMetrics(Result &result, const std::vector<Round> &rounds,
                double calib)
{
    std::vector<double> wait, routerSelf, hitHandle, missHandle,
        probeHandle, queue, simulate, compile, stitchMs, report,
        late, unaccounted, busy, spread, tracedLat, plainLat;
    double simNs = 0.0, bytes = 0.0, hits = 0.0, oks = 0.0;
    std::uint64_t nBytes = 0, reroutes = 0, unavailable = 0;
    std::uint64_t remoteHits = 0, remoteMisses = 0, remoteStores = 0;
    std::uint64_t retained = 0, sim[6] = {};
    /** Client time of the traced requests, split along the blocking
     *  path: serve-loop wait, router self, shard handler covered by
     *  its engine and peer spans, shard uncovered, front-door rest. */
    double path[6] = {};

    for (const Round &round : rounds) {
        for (const Sample &s : round.jobs)
            if (s.ok)
                (round.traced ? tracedLat : plainLat)
                    .push_back(msBetween(s.dueNs, s.doneNs));
        if (!round.traced)
            continue;

        std::map<std::string, double> perShard;
        for (const Sample &s : round.jobs) {
            late.push_back(msBetween(s.dueNs, s.sendNs));
            if (!s.ok)
                continue;
            oks += 1;
            hits += s.cached ? 1 : 0;
            perShard[s.shard] += 1;
            bytes += static_cast<double>(s.bytes);
            ++nBytes;
        }
        double maxShard = 0.0, sumShard = 0.0;
        for (const auto &[shard, count] : perShard) {
            maxShard = std::max(maxShard, count);
            sumShard += count;
        }
        if (sumShard > 0)
            spread.push_back(maxShard / (sumShard / kShards));
        reroutes += round.router.failoverReroutes;
        unavailable += round.router.unavailable;
        remoteHits += round.remote.hits;
        remoteMisses += round.remote.misses;
        remoteStores += round.remote.stores;
        retained = round.jobsRetained;
        for (int k = 0; k < 6; ++k)
            sim[k] += round.simulated[k];
        for (double q : round.queueMs)
            queue.push_back(q);

        // Join the spans of each timed request. The router is serial,
        // so its spans are disjoint and sorted by start.
        std::map<std::uint64_t, ReqSpans> byReq;
        std::map<std::uint64_t, std::vector<const Span *>> shardKids;
        std::vector<const Span *> routerSpans;
        double compileSum = 0, stitchSum = 0, reportSum = 0,
               shardBusy = 0;
        for (const Span &span : round.spans) {
            const bool timed =
                span.startNs >= round.t0 && span.endNs <= round.t1;
            // Compile and stitch count over the whole round: set-up
            // compiles are the fleets' set-up cost.
            if (span.name == "engine.compile")
                compileSum += span.ms();
            if (span.name == "engine.stitch")
                stitchSum += span.ms();
            if (!timed)
                continue;
            if (span.lane >= 10 && span.lane < 10 + kShards)
                shardBusy += span.ms();
            ReqSpans &r = byReq[span.req];
            if (span.name == "client.request")
                r.client = &span;
            else if (span.name == "fleet.router")
                r.router = &span;
            else if (span.name == "svc.shard.job")
                r.shard = &span;
            else if (span.name.rfind("engine.", 0) == 0 ||
                     span.name == "svc.shard.cacheget" ||
                     span.name == "svc.shard.cacheput")
                shardKids[span.req].push_back(&span);
            if (span.name == "fleet.router")
                routerSpans.push_back(&span);
            if (span.name == "engine.report")
                reportSum += span.ms();
            if (span.name == "engine.simulate") {
                simulate.push_back(span.ms());
                simNs += span.ms() * 1e6;
            }
            if (span.name == "fleet.router" && span.tag == "probe")
                probeHandle.push_back(span.ms());
        }
        std::sort(routerSpans.begin(), routerSpans.end(),
                  [](const Span *a, const Span *b) {
                      return a->startNs < b->startNs;
                  });
        compile.push_back(compileSum);
        stitchMs.push_back(stitchSum);
        report.push_back(reportSum);
        busy.push_back(shardBusy / msBetween(round.t0, round.t1));

        // The blocking path of a request: waiting while the serve loop
        // handles other requests (their router spans), the router's
        // self time, and the shard handler. Unaccounted are the rest
        // of the client span (connect, framing and (de)serialisation
        // outside both handlers) and shard handler time that no
        // engine stage or peer cache verb of the request covers.
        double total = 0.0, uncovered = 0.0;
        for (const auto &[req, r] : byReq) {
            if (!r.client)
                continue;
            total += r.client->ms();
            path[0] += r.client->ms();
            if (!r.router || !r.shard) {
                uncovered += r.client->ms();
                path[5] += r.client->ms();
                continue;
            }
            const double routerMs = r.router->ms();
            const double shardMs = r.shard->ms();
            wait.push_back(r.client->ms() - routerMs);
            routerSelf.push_back(routerMs - shardMs);
            (r.shard->tag == "hit" ? hitHandle : missHandle)
                .push_back(shardMs);
            const double serveWait = coveredMs(
                routerSpans, r.client->startNs, r.router->startNs);
            const double rest =
                std::max(0.0, r.client->ms() - routerMs - serveWait);
            const double shardSelf = selfMs(*r.shard, shardKids[req]);
            uncovered += rest + shardSelf;
            path[1] += serveWait;
            path[2] += routerMs - shardMs;
            path[3] += shardMs - shardSelf;
            path[4] += shardSelf;
            path[5] += rest;
        }
        if (total > 0)
            unaccounted.push_back(uncovered / total);
    }

    const auto n = [](const std::vector<double> &v) {
        return static_cast<std::uint64_t>(v.size());
    };

    result.add("fleet.router_wait_p99_ms", quantile(wait, 0.99), n(wait));
    result.add("fleet.router_self_p50_ms", quantile(routerSelf, 0.5),
               n(routerSelf));
    result.add("fleet.shard_busy_sum", quantile(busy, 0.5), n(busy));
    result.add("fleet.shard_spread", quantile(spread, 0.5), n(spread));
    result.add("fleet.reroutes", static_cast<double>(reroutes), 1);
    result.add("fleet.unavailable", static_cast<double>(unavailable), 1);
    result.add("svc.hit_handle_p50_ms", quantile(hitHandle, 0.5),
               n(hitHandle));
    result.add("svc.miss_handle_p50_ms", quantile(missHandle, 0.5),
               n(missHandle));
    result.add("svc.hit_rate", oks > 0 ? hits / oks : 0.0,
               static_cast<std::uint64_t>(oks));
    result.add("svc.remote_hits", static_cast<double>(remoteHits), 1);
    result.add("svc.remote_misses", static_cast<double>(remoteMisses), 1);
    result.add("svc.remote_stores", static_cast<double>(remoteStores), 1);
    result.add("svc.queue_p99_ms", quantile(queue, 0.99), n(queue));
    result.add("svc.probe_handle_p95_ms", quantile(probeHandle, 0.95),
               n(probeHandle));
    result.add("svc.wire_bytes_per_req",
               nBytes ? bytes / static_cast<double>(nBytes) : 0.0,
               nBytes);
    result.add("svc.jobs_retained", static_cast<double>(retained), 1);
    result.add("svc.report_ms", quantile(report, 0.5), n(report));
    result.add("compiler.compile_ms", quantile(compile, 0.5), n(compile));
    result.add("compiler.stitch_ms", quantile(stitchMs, 0.5),
               n(stitchMs));
    result.add("sim.simulate_p50_ms", quantile(simulate, 0.5),
               n(simulate));
    result.add("sim.simulate_p99_ms", quantile(simulate, 0.99),
               n(simulate));
    result.add("sim.host_ns_per_instr",
               sim[0] ? simNs / static_cast<double>(sim[0]) : 0.0,
               n(simulate));
    const char *simNames[6] = {"sim.instructions", "sim.makespan_cycles",
                               "sim.cust",         "sim.fused_cust",
                               "sim.snoc_hops",    "sim.messages"};
    for (int k = 0; k < 6; ++k)
        result.add(simNames[k], static_cast<double>(sim[k]), 1);
    result.add("gen.late_p99_ms", quantile(late, 0.99), n(late));
    result.add("trace_overhead_frac",
               mean(tracedLat) / mean(plainLat) - 1.0, n(tracedLat));
    result.add("trace.unaccounted_frac", quantile(unaccounted, 0.5),
               n(unaccounted));
    result.add("harness.calib_ms", calib, 5);
    char line[240];
    const double client = std::max(path[0], 1e-9);
    std::snprintf(line, sizeof line,
                  "blocking path, share of traced client time: serve-loop "
                  "wait %.3f, router self %.3f, shard covered %.3f; "
                  "unaccounted: shard self %.3f, front-door wire %.3f",
                  path[1] / client, path[2] / client, path[3] / client,
                  path[4] / client, path[5] / client);
    result.notes.push_back(line);
}

/**
 * The end-to-end set: the median over rounds of each round's figure
 * (every round holds 320 requests, 16 of them beyond its p95). A
 * burst of host noise in one round does not move the run.
 */
void
addEndToEnd(Result &result, const std::vector<Round> &rounds)
{
    std::vector<double> setup, rss, rate, p50, p95, p99;
    std::uint64_t ok = 0;
    for (const Round &round : rounds) {
        setup.push_back(round.setupS);
        rss.push_back(round.rssMb);
        std::vector<double> latency;
        for (const Sample &s : round.jobs)
            if (s.ok)
                latency.push_back(msBetween(s.dueNs, s.doneNs));
        const double seconds = msBetween(round.t0, round.t1) / 1e3;
        ok += latency.size();
        rate.push_back(static_cast<double>(latency.size()) / seconds);
        p50.push_back(quantile(latency, 0.5));
        p95.push_back(quantile(latency, 0.95));
        p99.push_back(quantile(latency, 0.99));
    }
    const auto n = [](const std::vector<double> &v) {
        return static_cast<std::uint64_t>(v.size());
    };
    result.add("setup_s", quantile(setup, 0.5), n(setup));
    result.add("jobs_s", quantile(rate, 0.5), ok);
    result.add("p50_ms", quantile(p50, 0.5), ok);
    result.add("p95_ms", quantile(p95, 0.5), ok);
    result.add("rss_mb", quantile(rss, 0.5), n(rss));
    std::string perRound = "per-round jobs/s:";
    for (double r : rate)
        perRound += " " + std::to_string(static_cast<int>(r));
    result.notes.push_back(perRound);
    char line[160];
    std::snprintf(line, sizeof line,
                  "p99_ms %.4f ms (median over rounds); peak rss %.1f MB "
                  "over the run (%zu fresh fleets)",
                  quantile(p99, 0.5), peakRssMb(), rounds.size());
    result.notes.push_back(line);
}

void
writeTrace(const Options &options, const std::vector<Round> &rounds,
           Result &result)
{
    std::vector<Span> all;
    for (const Round &round : rounds)
        all.insert(all.end(), round.spans.begin(), round.spans.end());
    linkParents(all);
    const std::string path = options.outDir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    writeChromeTrace(path, all);
    result.notes.push_back("spans written to " + path);
}

} // namespace

Result
runFleetMixed(const Options &options)
{
    Result result;
    Golden::instance(); // load before any client thread needs it
    const double calib = calibrationMs();
    const auto &universe = designUniverse();
    Rng rng(options.seed);

    // One schedule per round, all drawn from the seed up front. The
    // traced run replays each schedule twice, untraced then traced,
    // so the tracing cost is measured on identical arrivals. Each
    // round holds a fixed number of Poisson arrivals (uniform times,
    // sorted), of which a fixed share, at seeded places, are tail
    // jobs. The tail walks a seeded order of the captures round after
    // round, so every seed sees the same mix of simulation costs and
    // only the order and timing depend on the seed.
    const std::vector<int> captures = shuffledCaptures(rng);
    std::vector<int> hotSet;
    for (int point : captures)
        if (universe[static_cast<std::size_t>(point)].policy == "auto")
            hotSet.push_back(point);
    const int rounds = roundsFor(options, kRoundS + 1.0);
    const std::size_t perRound =
        static_cast<std::size_t>(std::lround(kArrivalRate * kRoundS));
    const std::size_t tailPerRound = static_cast<std::size_t>(
        std::lround(static_cast<double>(perRound) * (1 - kHotFraction)));
    std::vector<std::vector<Slot>> schedules(
        options.trace ? rounds / 2 : rounds);
    std::uint64_t tail = 0, digest = 0;
    for (auto &schedule : schedules) {
        schedule.resize(perRound);
        std::vector<double> due;
        for (std::size_t i = 0; i < perRound; ++i)
            due.push_back(rng.uniform() * kRoundS * 1e3);
        std::sort(due.begin(), due.end());
        std::vector<char> isTail(perRound, 0);
        std::fill_n(isTail.begin(), tailPerRound, 1);
        for (std::size_t i = perRound; i > 1; --i)
            std::swap(isTail[i - 1], isTail[rng.below(i)]);
        for (std::size_t i = 0; i < perRound; ++i) {
            Slot &slot = schedule[i];
            slot.dueMs = due[i];
            if (isTail[i] == 0) {
                slot.point = hotSet[rng.below(hotSet.size())];
            } else {
                slot.point = captures[tail % captures.size()];
                slot.budget = runawayBudget() + 1 + tail++;
            }
            slot.priority = static_cast<int>(rng.below(3));
        }
        digest = digestBytes(std::to_string(scheduleDigest(schedule)),
                             digest);
    }
    char line[240];
    std::snprintf(line, sizeof line,
                  "fleet_mixed: %d shards, open loop, %zu arrivals "
                  "(%zu tail) in %.1f s x %d rounds, hot set of %zu "
                  "design points, healthz every %.0f ms, schedule "
                  "digest %016" PRIx64 ", calibration %.2f ms",
                  kShards, perRound, tailPerRound, kRoundS, rounds,
                  hotSet.size(), kProbeIntervalMs, digest, calib);
    result.notes.push_back(line);

    std::vector<Round> done;
    std::vector<double> backlog, probeLatency, late;
    for (int r = 0; r < rounds; ++r) {
        const std::vector<Slot> &schedule =
            schedules[static_cast<std::size_t>(options.trace ? r / 2 : r)];
        Round round;
        round.traced = options.trace && r % 2 == 1;
        std::unique_ptr<SpanLog> log;
        if (round.traced)
            log = std::make_unique<SpanLog>();
        Checker checker;

        // Hand the previous round's freed memory back to the system so
        // each round's resident size starts from the same floor.
        ::malloc_trim(0);
        const std::int64_t s0 = nowNs();
        Fleet fleet(log.get());
        compileEverywhere(fleet, result.tally, checker);
        cacheHotSet(fleet, hotSet, result.tally, checker);
        flushAll(fleet);
        round.setupS = msBetween(s0, nowNs()) / 1e3;

        const TimedStart timed = timedStart(fleet);
        round.jobs.resize(schedule.size());
        const std::uint16_t port = fleet.port();
        const std::uint64_t reqBase = (static_cast<std::uint64_t>(r) + 1)
                                      << 32;
        std::vector<Tally> tallies(kSenders + 1);
        std::atomic<std::size_t> cursor{0};
        std::atomic<bool> sending{true};
        round.t0 = nowNs() + 2'000'000; // let the threads start
        const std::int64_t endNs =
            round.t0 + static_cast<std::int64_t>(kRoundS * 1e9);
        // Timer slack of 1 ns: the kernel's default 50 us would make
        // every wake-up, and with it every request, late by up to that.
        const auto tightTimers = [] {
            ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        };
        const auto sleepUntil = [](std::int64_t ns) {
            const std::int64_t wait = ns - nowNs();
            if (wait > 0)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(wait));
        };
        std::thread prober([&] {
            tightTimers();
            Tally &tally = tallies[kSenders];
            for (std::uint64_t k = 0; sending.load(); ++k) {
                Sample sample;
                sample.req = reqBase | (1ull << 31) | k;
                sample.dueNs =
                    round.t0 + static_cast<std::int64_t>(
                                   static_cast<double>(k) *
                                   kProbeIntervalMs * 1e6);
                if (sample.dueNs >= endNs)
                    break;
                sleepUntil(sample.dueNs);
                Json probe = Json::object();
                probe.set("cmd", "healthz");
                probe.set("probe", sample.req);
                ++tally.attempted;
                sample.sendNs = nowNs();
                try {
                    const Json response = svc::requestReport(
                        "127.0.0.1", port, probe, nullptr, 0,
                        kTimeoutMs);
                    sample.ok = response.isObject() &&
                                response.has("status") &&
                                response.get("status").asString() ==
                                    "ok";
                    if (!sample.ok)
                        tally.fail(response.has("error_kind")
                                       ? "typed:" + response.get(
                                                        "error_kind")
                                                        .asString()
                                       : "untyped");
                } catch (const stitch::fault::ConfigError &) {
                    tally.fail("transport");
                }
                sample.doneNs = nowNs();
                if (log)
                    log->record({0, 0, sample.req, "client.probe",
                                 "probe", sample.sendNs, sample.doneNs,
                                 20 + kSenders});
                round.probes.push_back(sample);
            }
        });
        runClients(kSenders, [&](int c) {
            tightTimers();
            for (std::size_t i = cursor++; i < schedule.size();
                 i = cursor++) {
                const Slot &slot = schedule[i];
                const DesignPoint &point =
                    universe[static_cast<std::size_t>(slot.point)];
                Sample &sample = round.jobs[i];
                sample.req = reqBase + i;
                sample.dueNs = round.t0 + static_cast<std::int64_t>(
                                              slot.dueMs * 1e6);
                sleepUntil(sample.dueNs);
                sendJob(jobDoc(point, slot.budget, slot.priority,
                               reqName(sample.req)),
                        point, "127.0.0.1", port, checker, sample,
                        tallies[static_cast<std::size_t>(c)],
                        round.traced);
                if (log)
                    log->record({0, 0, sample.req, "client.request",
                                 sample.cached ? "hit" : "miss",
                                 sample.sendNs, sample.doneNs, 20 + c});
            }
        });
        sending.store(false);
        prober.join();
        // The timed phase ends with the last answer, so jobs_s says
        // whether the fleet kept up with the arrivals.
        round.t1 = round.t0;
        for (const Sample &s : round.jobs)
            round.t1 = std::max(round.t1, s.doneNs);
        for (const Tally &t : tallies)
            result.tally.merge(t);

        // Backlog: of the requests due by the end of the phase, how
        // many were still unanswered then, relative to the number
        // that fell due in its final fifth.
        const std::int64_t windowNs =
            endNs - static_cast<std::int64_t>(kRoundS * 0.2e9);
        double dueInWindow = 0, outstanding = 0;
        for (const Sample &s : round.jobs) {
            if (s.dueNs >= windowNs)
                dueInWindow += 1;
            if (s.doneNs > endNs)
                outstanding += 1;
        }
        backlog.push_back(outstanding / std::max(1.0, dueInWindow));
        if (!round.traced) {
            for (const Sample &s : round.probes)
                if (s.ok)
                    probeLatency.push_back(msBetween(s.dueNs, s.doneNs));
            for (const Sample &s : round.jobs)
                late.push_back(msBetween(s.dueNs, s.sendNs));
        }

        finishRound(fleet, round, log.get(), timed);
        done.push_back(std::move(round));
    }

    std::snprintf(line, sizeof line,
                  "probe_p95_ms %.4f ms (n=%zu healthz probes); backlog "
                  "%.3f of the final window's arrivals unanswered at "
                  "its end (median of %zu rounds: %s)",
                  quantile(probeLatency, 0.95), probeLatency.size(),
                  quantile(backlog, 0.5), backlog.size(),
                  quantile(backlog, 0.5) < 0.5 ? "flat" : "growing");
    result.notes.push_back(line);
    std::snprintf(line, sizeof line,
                  "generator lateness (send - due, untraced rounds): "
                  "p50 %.4f ms, p99 %.4f ms (n=%zu)",
                  quantile(late, 0.5), quantile(late, 0.99), late.size());
    result.notes.push_back(line);
    noteRouting(result, done);
    if (!options.trace) {
        addEndToEnd(result, done);
        return result;
    }
    addLayerMetrics(result, done, calib);
    result.add("gen.backlog_frac", quantile(backlog, 0.5),
               static_cast<std::uint64_t>(backlog.size()));
    writeTrace(options, done, result);
    result.finishLayers();
    return result;
}

} // namespace stitchbench
