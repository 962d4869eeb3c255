/**
 * @file
 * stitchload — the closed-loop traffic harness for a stitchd daemon
 * or a stitchrouter-fronted fleet.
 *
 * Usage:
 *   stitchload HOST:PORT [--requests=N] [--clients=N] [--seed=S]
 *              [--hot=FRAC] [--hot-set=N] [--burst-every=N]
 *              [--burst-pause-ms=N] [--retries=N]
 *              [--retry-base-ms=X] [--retry-seed=S]
 *              [--timeout-ms=N] [--json=FILE] [--quiet]
 *   stitchload --dump-stream [--requests=N] [--seed=S] ...
 *   stitchload --version
 *
 * Replays a seeded device-fleet mix (fleet/load.hh): a hot set of
 * duplicated jobs, a long tail of uniques, priority bands and
 * optional bursts. The schedule is a pure function of the mix —
 * --dump-stream prints it (keys, priorities, digest) without sending
 * anything, and two runs with the same seed send byte-identical
 * request streams. The run prints a stitch-load-report v1 document
 * (p50/p99 end-to-end latency, jobs/s, fleet cache-hit rate,
 * shed/retry counts, per-shard spread, typed-error tallies) and
 * writes it to --json=FILE for report_diff / CI gating.
 *
 * Exit status is the typed-error contract: 0 when every failure that
 * came back carried an error_kind, 1 when any untyped failure
 * slipped through (the fleet CI gate runs this while SIGKILLing a
 * shard mid-run), 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "fleet/load.hh"
#include "obs/buildinfo.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "svc/remote_cache.hh"

using namespace stitch;

int
main(int argc, char **argv)
{
    fleet::LoadMix mix;
    std::string target, jsonPath;
    bool dumpStream = false, quiet = false;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--version") == 0) {
            std::printf("%s\n",
                        obs::versionText("stitchload").c_str());
            return 0;
        }
        if (cli::keyedValue(arg, "--json=", &jsonPath))
            continue;
        if (cli::keyedValue(arg, "--requests=", &value)) {
            mix.requests = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--clients=", &value)) {
            mix.clients = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--seed=", &value)) {
            mix.seed = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--hot=", &value)) {
            mix.hotFraction = std::atof(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--hot-set=", &value)) {
            mix.hotSetSize = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--burst-every=", &value)) {
            mix.burstEvery = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--burst-pause-ms=", &value)) {
            mix.burstPauseMs = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--retries=", &value)) {
            mix.retry.maxAttempts = 1 + std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--retry-base-ms=", &value)) {
            mix.retry.baseDelayMs = std::atof(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--retry-seed=", &value)) {
            mix.retry.seed = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (cli::keyedValue(arg, "--timeout-ms=", &value)) {
            mix.timeoutMs = static_cast<std::uint64_t>(
                std::strtoull(value.c_str(), nullptr, 10));
            continue;
        }
        if (std::strcmp(arg, "--dump-stream") == 0) {
            dumpStream = true;
            continue;
        }
        if (std::strcmp(arg, "--quiet") == 0) {
            quiet = true;
            continue;
        }
        if (std::strcmp(arg, "--verbose") == 0) {
            obs::Registry::setVerbosity(Verbosity::Info);
            continue;
        }
        if (arg[0] == '-') {
            std::fprintf(stderr, "stitchload: unknown flag %s\n",
                         arg);
            return 2;
        }
        target = arg;
    }

    try {
        if (dumpStream) {
            const auto schedule = fleet::buildSchedule(mix);
            for (std::size_t i = 0; i < schedule.size(); ++i)
                std::printf("%6zu  %s  prio=%d  %s\n", i,
                            schedule[i].key.c_str(),
                            schedule[i].priority,
                            schedule[i].hot ? "hot" : "tail");
            std::printf("schedule_digest %llu\n",
                        static_cast<unsigned long long>(
                            fleet::scheduleDigest(schedule)));
            return 0;
        }

        if (target.empty()) {
            std::fprintf(
                stderr,
                "stitchload: need a HOST:PORT target (or "
                "--dump-stream)\n");
            return 2;
        }
        const svc::PeerEndpoint peer = svc::parsePeerEndpoint(target);

        const fleet::LoadReport report =
            fleet::runLoad(mix, peer.host, peer.port);
        const obs::Json doc = report.toJson();
        if (!quiet)
            std::printf("%s\n", doc.dump(2).c_str());
        if (!jsonPath.empty())
            obs::writeJsonFile(jsonPath, doc);

        if (report.untypedFailures > 0) {
            std::fprintf(
                stderr,
                "stitchload: %llu untyped failure(s) — the typed "
                "error contract is broken\n",
                static_cast<unsigned long long>(
                    report.untypedFailures));
            return 1;
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "stitchload: %s\n", e.what());
        return 2;
    }
}
