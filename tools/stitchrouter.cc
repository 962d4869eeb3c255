/**
 * @file
 * stitchrouter — the consistent-hash front door of a stitchd fleet.
 *
 * Usage:
 *   stitchrouter --shards=HOST:PORT,HOST:PORT,... [--port=P]
 *                [--port-file=FILE] [--vnodes=N] [--retries=N]
 *                [--retry-base-ms=X] [--retry-seed=S]
 *                [--shard-timeout-ms=N] [--holdoff-ms=N]
 *                [--max-requests=N] [--report=FILE]
 *                [--frame-limit=BYTES] [--read-timeout-ms=N]
 *                [--verbose]
 *   stitchrouter --version
 *
 * Speaks exactly stitchd's wire protocol on both sides, so every
 * existing client (stitchd --send, stitchq, stitchtop, stitchload)
 * points at the router unchanged. Jobs route by their canonical
 * cacheKey over a consistent-hash ring (--vnodes points per shard):
 * duplicates of a job always land on the same shard and dedup in its
 * cache. A shard that fails at the transport level is marked dead,
 * the job fails over along the ring's preference list (total
 * attempts bounded by 1 + --retries, with deterministic jittered
 * backoff), and the dead shard is re-probed after --holdoff-ms.
 * Clients see a typed "unavailable" error only when every attempt is
 * exhausted — never an untyped failure.
 *
 * Introspection is fleet-wide: {"cmd":"healthz"} probes every shard,
 * {"cmd":"statz"} merges the shards' lossless telemetry snapshots
 * (histogram buckets add, windows align by seq) so fleet p50/p99 are
 * real merged quantiles, and {"cmd":"scrape"} renders one Prometheus
 * exposition for the whole fleet. stitchtop --fleet renders the
 * statz form as a live dashboard.
 *
 * Shutdown mirrors stitchd: SIGINT/SIGTERM shuts the listener down, the
 * in-flight request drains, and a final stitchrouter-statz document
 * is printed (and written to --report=FILE when given).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "fleet/router.hh"
#include "obs/buildinfo.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "svc/server.hh"

using namespace stitch;

int
main(int argc, char **argv)
{
    fleet::RouterOptions options;
    svc::ServerOptions serverOptions;
    std::string shardsCsv, portFile, reportPath;
    int port = 0, maxRequests = 0;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--version") == 0) {
            std::printf("%s\n",
                        obs::versionText("stitchrouter").c_str());
            return 0;
        }
        if (cli::keyedValue(arg, "--shards=", &shardsCsv) ||
            cli::keyedValue(arg, "--port-file=", &portFile) ||
            cli::keyedValue(arg, "--report=", &reportPath))
            continue;
        if (cli::keyedValue(arg, "--port=", &value)) {
            port = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--vnodes=", &value)) {
            options.vnodes = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--retries=", &value)) {
            options.retry.maxAttempts = 1 + std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--retry-base-ms=", &value)) {
            options.retry.baseDelayMs = std::atof(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--retry-seed=", &value)) {
            options.retry.seed = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--shard-timeout-ms=", &value)) {
            options.shardTimeoutMs = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--holdoff-ms=", &value)) {
            options.holdoffMs = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--max-requests=", &value)) {
            maxRequests = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--frame-limit=", &value)) {
            serverOptions.maxFrameBytes = static_cast<std::uint32_t>(
                std::strtoul(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--read-timeout-ms=", &value)) {
            serverOptions.readTimeoutMs = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (std::strcmp(arg, "--verbose") == 0) {
            obs::Registry::setVerbosity(Verbosity::Info);
            continue;
        }
        std::fprintf(stderr, "stitchrouter: unknown flag %s\n", arg);
        return 2;
    }

    try {
        for (const svc::PeerEndpoint &shard :
             svc::parsePeerList(shardsCsv))
            options.shards.push_back(shard.name());

        fleet::Router router(options);
        svc::Server server(
            [&router](const obs::Json &request) {
                return router.handle(request);
            },
            static_cast<std::uint16_t>(port), serverOptions);

        std::printf("stitchrouter: fronting %zu shard(s)\n",
                    router.ring().size());
        svc::serveUntilSignalled(server, "stitchrouter", portFile,
                                 maxRequests);

        obs::Json report = router.statzJson();
        const fleet::RouterStats stats = router.stats();
        std::printf(
            "stitchrouter: routed %llu job(s), %llu failover "
            "reroute(s), %llu unavailable; final statz follows\n%s\n",
            static_cast<unsigned long long>(stats.jobsRouted),
            static_cast<unsigned long long>(stats.failoverReroutes),
            static_cast<unsigned long long>(stats.unavailable),
            report.dump(2).c_str());
        if (!reportPath.empty())
            obs::writeJsonFile(reportPath, report);
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "stitchrouter: %s\n", e.what());
        return 2;
    }
}
