/**
 * @file
 * Fleet-level load bench: an in-process three-shard stitchd fleet
 * (each shard peered with the other two through the shared cache
 * tier) behind a stitchrouter, driven by the stitchload mix — the
 * closed-loop numbers the ROADMAP's fleet decision is gated on.
 *
 * The seeded mix (hot-set duplicates + unique tail) replays through
 * the router's consistent-hash ring, so duplicates land on one shard
 * and hit its cache while the tail spreads across the fleet. Metrics
 * land in the bench trajectory (BENCH_stitch.json) as load_p50_ms /
 * load_p99_ms (up is worse), jobs_s and fleet_hit_rate (down is
 * worse), plus the zero-expected health counters failover_reroutes
 * and untyped_failures (up is worse) — names tools/report_diff
 * already knows how to gate.
 *
 * Same repeat discipline as svc_latency: the whole fleet is rebuilt
 * `kRepeats` times and each latency metric is the best observation
 * (min for latencies, max for throughput) — the repeatable estimator
 * on a loaded host. The hit rate is deterministic across repeats
 * (each shard's serve loop serializes its own duplicates), so any
 * repeat reports it.
 */

#include <array>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "fleet/load.hh"
#include "fleet/router.hh"
#include "svc/engine.hh"
#include "svc/server.hh"

using namespace stitch;
using namespace stitch::bench;

namespace
{

constexpr int kShards = 3;

/** What one fleet replay measured. */
struct FleetRun
{
    fleet::LoadReport report;
    fleet::RouterStats router;
};

FleetRun
runFleet(const fleet::LoadMix &mix)
{
    // Frame-handler servers bind first (so every peer port is known),
    // then the engines are constructed *with* their peer lists, then
    // the serve loops start — the handlers only dereference the
    // engine pointers at request time.
    std::array<std::unique_ptr<svc::JobEngine>, kShards> engines;
    std::vector<std::unique_ptr<svc::Server>> servers;
    servers.reserve(kShards);
    for (int i = 0; i < kShards; ++i)
        servers.push_back(std::make_unique<svc::Server>(
            [&engines, &servers, i](const svc::Frame &frame,
                                    const svc::Reply &reply) {
                svc::answerFrame(*engines[i], frame,
                                 servers[i]->uptimeS(),
                                 servers[i]->servedCount(), reply);
            }));

    for (int i = 0; i < kShards; ++i) {
        svc::EngineOptions options;
        for (int p = 0; p < kShards; ++p)
            if (p != i)
                options.remoteCache.peers.push_back(
                    "127.0.0.1:" +
                    std::to_string(servers[p]->port()));
        engines[i] =
            std::make_unique<svc::JobEngine>(options);
    }

    std::vector<std::thread> serving;
    for (const auto &server : servers)
        serving.emplace_back([srv = server.get()] { srv->serve(); });

    fleet::RouterOptions routerOptions;
    for (const auto &server : servers)
        routerOptions.shards.push_back(
            "127.0.0.1:" + std::to_string(server->port()));
    fleet::Router router(routerOptions);
    svc::Server front(
        [&router](const obs::Json &doc) { return router.handle(doc); });
    std::thread fronting([&front] { front.serve(); });

    FleetRun run;
    run.report = fleet::runLoad(mix, "127.0.0.1", front.port());
    run.router = router.stats();

    front.stop();
    fronting.join();
    for (auto &engine : engines)
        engine->flushRemoteCache(); // replicate while peers listen
    for (auto &server : servers)
        server->stop();
    for (auto &thread : serving)
        thread.join();
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    initObs(argc, argv);
    printHeader("fleet-load",
                "seeded stitchload mix through a 3-shard router");

    fleet::LoadMix mix;
    mix.seed = 17;
    mix.requests = 48;
    mix.clients = 4;
    mix.hotFraction = 0.6;
    mix.hotSetSize = 6;

    constexpr int kRepeats = 3;
    FleetRun best;
    double bestP50 = 0.0, bestP99 = 0.0, bestJobsS = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
        FleetRun run = runFleet(mix);
        const double p50 =
            static_cast<double>(run.report.latency.quantile(0.5)) /
            1000.0;
        const double p99 =
            static_cast<double>(run.report.latency.quantile(0.99)) /
            1000.0;
        if (rep == 0 || p50 < bestP50)
            bestP50 = p50;
        if (rep == 0 || p99 < bestP99)
            bestP99 = p99;
        bestJobsS = std::max(bestJobsS, run.report.jobsPerSecond());
        if (rep == 0)
            best = std::move(run);
    }

    TextTable table({"shard", "ok"});
    for (const auto &[shard, n] : best.report.shards)
        table.addRow({shard, std::to_string(n)});
    table.print();
    std::printf("\n%llu ok (%llu cached, hit rate %.2f), p50 %.2fms "
                "p99 %.2fms, %.1f jobs/s (best of %d); %llu "
                "reroutes, %llu untyped\n",
                static_cast<unsigned long long>(best.report.ok),
                static_cast<unsigned long long>(best.report.cached),
                best.report.hitRate(), bestP50, bestP99, bestJobsS,
                kRepeats,
                static_cast<unsigned long long>(
                    best.router.failoverReroutes),
                static_cast<unsigned long long>(
                    best.report.untypedFailures));

    recordMetric("load_p50_ms", bestP50);
    recordMetric("load_p99_ms", bestP99);
    recordMetric("jobs_s", bestJobsS);
    recordMetric("fleet_hit_rate", best.report.hitRate());
    recordMetric("failover_reroutes",
                 best.router.failoverReroutes);
    recordMetric("untyped_failures",
                 best.report.untypedFailures);
    return 0;
}
