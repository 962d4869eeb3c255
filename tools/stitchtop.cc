/**
 * @file
 * stitchtop — live introspection client for a running stitchd.
 *
 * Usage:
 *   stitchtop HOST:PORT [--cmd=metrics|healthz|statz|scrape] [--fleet]
 *             [--interval=SEC] [--once] [--json]
 *   stitchtop --version
 *
 * Polls the daemon's introspection endpoint (default: metrics every
 * 2s) and renders a refreshing table: uptime,
 * queue depth, in-flight jobs, per-band backlog, cache hit/miss/evict
 * rates, per-stage latency quantiles, SLO burn-rate status (one
 * sparkline per objective, alerting objectives flagged) and the
 * recent-error ring.
 *
 * --cmd=scrape prints the daemon's Prometheus text exposition
 * verbatim (with --json, the enclosing stitchd-scrape document), so
 * `stitchtop HOST:PORT --cmd=scrape --once` is a scraper with no
 * HTTP stack.
 *
 * --once answers a single poll and exits (non-zero when the daemon is
 * unreachable or answers an error document); with --json the raw
 * response document is printed instead of the table, which is the
 * scriptable mode CI uses:
 *
 *   stitchtop 127.0.0.1:7441 --once --json | jq .jobs.completed
 *
 * --fleet points the poll at a stitchrouter: the router's statz
 * document (fleet-merged counters and latency plus per-shard health)
 * renders as a dashboard with one row per shard — health, routed
 * jobs, transport failures, completed/failed, cache hits and queue
 * depth — above the fleet-wide totals and merged p50/p99. A
 * stitchrouter-statz document is recognized by its schema, so plain
 * `stitchtop ROUTER:PORT --cmd=statz` renders the same view.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "fault/fault.hh"
#include "obs/buildinfo.hh"
#include "obs/json.hh"
#include "svc/server.hh"

using namespace stitch;

namespace
{

double
numField(const obs::Json &doc, const char *key)
{
    return doc.has(key) ? doc.get(key).asDouble() : 0.0;
}

std::string
msCell(const obs::Json &hist, const char *key)
{
    if (!hist.has(key))
        return "-";
    return strformat("%.2f", hist.get(key).asDouble());
}

/** Render an SLO objective's value history as a unicode sparkline
 *  (scaled to its own min..max; flat history renders flat). */
std::string
sparkline(const obs::Json &history)
{
    static const char *blocks[] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
    if (!history.isArray() || history.size() == 0)
        return "(no data)";
    double lo = history.at(0).asDouble(), hi = lo;
    for (std::size_t i = 1; i < history.size(); ++i) {
        const double v = history.at(i).asDouble();
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    std::string out;
    for (std::size_t i = 0; i < history.size(); ++i) {
        const double v = history.at(i).asDouble();
        int level = hi > lo ? static_cast<int>((v - lo) /
                                               (hi - lo) * 7.0)
                            : 0;
        level = std::max(0, std::min(7, level));
        out += blocks[level];
    }
    return out;
}

/** Render one metrics/statz document as the interactive view. */
void
renderTable(const obs::Json &doc, const std::string &target)
{
    std::printf("stitchtop — %s  (schema %s, uptime %.1fs, "
                "served %llu)\n\n",
                target.c_str(),
                doc.has("schema") ? doc.get("schema").asString().c_str()
                                  : "?",
                numField(doc, "uptime_s"),
                static_cast<unsigned long long>(
                    doc.has("served") ? doc.get("served").asUint()
                                      : 0));

    std::string bands = "-";
    if (doc.has("per_band_backlog") &&
        doc.get("per_band_backlog").items().size() > 0) {
        bands.clear();
        for (const auto &[prio, count] :
             doc.get("per_band_backlog").items())
            bands += (bands.empty() ? "" : " ") + prio + ":" +
                     std::to_string(count.asUint());
    }
    std::printf("queue depth %llu   in flight %llu   backlog %s\n",
                static_cast<unsigned long long>(
                    static_cast<std::uint64_t>(
                        numField(doc, "queue_depth"))),
                static_cast<unsigned long long>(
                    static_cast<std::uint64_t>(
                        numField(doc, "in_flight"))),
                bands.c_str());

    if (doc.has("jobs")) {
        const obs::Json &jobs = doc.get("jobs");
        std::printf("jobs: %llu submitted, %llu completed "
                    "(%llu simulated, %llu cached), %llu failed, "
                    "%llu cancelled\n",
                    static_cast<unsigned long long>(
                        jobs.get("submitted").asUint()),
                    static_cast<unsigned long long>(
                        jobs.get("completed").asUint()),
                    static_cast<unsigned long long>(
                        jobs.get("simulated").asUint()),
                    static_cast<unsigned long long>(
                        jobs.get("cache_hits").asUint()),
                    static_cast<unsigned long long>(
                        jobs.get("failed").asUint()),
                    static_cast<unsigned long long>(
                        jobs.get("cancelled").asUint()));
    }
    if (doc.has("cache")) {
        const obs::Json &cache = doc.get("cache");
        std::printf("cache: %.0f%% hit rate (%llu mem, %llu disk, "
                    "%llu miss), %llu stores, %llu evictions, "
                    "%llu invalidated\n",
                    cache.get("hit_rate").asDouble() * 100.0,
                    static_cast<unsigned long long>(
                        cache.get("mem_hits").asUint()),
                    static_cast<unsigned long long>(
                        cache.get("disk_hits").asUint()),
                    static_cast<unsigned long long>(
                        cache.get("misses").asUint()),
                    static_cast<unsigned long long>(
                        cache.get("stores").asUint()),
                    static_cast<unsigned long long>(
                        cache.get("evictions").asUint()),
                    static_cast<unsigned long long>(
                        cache.get("invalidated").asUint()));
        if (cache.has("degraded")) {
            const bool degraded = cache.get("degraded").asBool();
            const auto quarantined =
                cache.get("quarantined").asUint();
            const auto writeFailures =
                cache.get("write_failures").asUint();
            const auto tornWrites =
                cache.get("torn_writes").asUint();
            if (degraded || quarantined || writeFailures ||
                tornWrites)
                std::printf(
                    "cache health: %s, %llu write failures, "
                    "%llu torn writes, %llu quarantined\n",
                    degraded ? "DEGRADED (memory-only)" : "ok",
                    static_cast<unsigned long long>(writeFailures),
                    static_cast<unsigned long long>(tornWrites),
                    static_cast<unsigned long long>(quarantined));
        }
    }
    if (doc.has("resilience")) {
        const obs::Json &res = doc.get("resilience");
        const auto field = [&](const char *key) {
            return static_cast<unsigned long long>(
                res.has(key) ? res.get(key).asUint() : 0);
        };
        const unsigned long long maxQueue =
            field("max_queue_depth");
        std::printf(
            "resilience: queue cap %s, %llu rejected, %llu shed, "
            "%llu retries (%llu exhausted), %llu watchdog trips, "
            "%llu deadline exceeded\n",
            maxQueue ? std::to_string(maxQueue).c_str()
                     : "unbounded",
            field("rejected"), field("shed"), field("retries"),
            field("retry_exhausted"), field("watchdog_trips"),
            field("deadline_exceeded"));
        if (field("injected_throws") || field("injected_stalls"))
            std::printf("chaos: %llu injected throws, "
                        "%llu injected stalls\n",
                        field("injected_throws"),
                        field("injected_stalls"));
    }

    if (doc.has("latency")) {
        std::printf("\n");
        TextTable table({"stage", "count", "p50ms", "p90ms", "p99ms",
                         "maxms"});
        for (const auto &[stage, hist] : doc.get("latency").items())
            table.addRow({stage,
                          std::to_string(hist.get("count").asUint()),
                          msCell(hist, "p50_ms"),
                          msCell(hist, "p90_ms"),
                          msCell(hist, "p99_ms"),
                          msCell(hist, "max_ms")});
        table.print();
    }

    if (doc.has("slo")) {
        const obs::Json &slo = doc.get("slo");
        std::printf("\nslo (%llu violations, %llu alerts raised, "
                    "%llu alerting now):\n",
                    static_cast<unsigned long long>(
                        slo.get("violations").asUint()),
                    static_cast<unsigned long long>(
                        slo.get("alerts_raised").asUint()),
                    static_cast<unsigned long long>(
                        slo.get("alerts_active").asUint()));
        const obs::Json &objectives = slo.get("objectives");
        for (std::size_t i = 0; i < objectives.size(); ++i) {
            const obs::Json &o = objectives.at(i);
            std::printf(
                "  %-16s %s %s %-9s  value %-9s burn %.1f/%.1f  %s %s\n",
                o.get("name").asString().c_str(),
                o.get("metric").asString().c_str(),
                o.get("op").asString() == "le" ? "<=" : ">=",
                strformat("%g", o.get("target").asDouble()).c_str(),
                o.get("value_valid").asBool()
                    ? strformat("%.3g",
                                o.get("value").asDouble()).c_str()
                    : "-",
                o.get("burn_short").asDouble(),
                o.get("burn_long").asDouble(),
                sparkline(o.get("history")).c_str(),
                o.get("alerting").asBool() ? "ALERT" : "ok");
        }
    }

    if (doc.has("errors") && doc.get("errors").size() > 0) {
        std::printf("\nrecent errors:\n");
        const obs::Json &errors = doc.get("errors");
        for (std::size_t i = 0; i < errors.size(); ++i) {
            const obs::Json &e = errors.at(i);
            std::printf("  job %llu [%s] %s: %s\n",
                        static_cast<unsigned long long>(
                            e.get("job").asUint()),
                        e.get("trace_id").asString().c_str(),
                        e.get("kind").asString().c_str(),
                        e.get("error").asString().c_str());
        }
    }
}

/** Render a stitchrouter-statz document: per-shard health rows over
 *  the fleet-merged totals. */
void
renderFleetTable(const obs::Json &doc, const std::string &target)
{
    std::printf("stitchtop — fleet via %s  (schema %s, router "
                "uptime %.1fs)\n\n",
                target.c_str(),
                doc.has("schema")
                    ? doc.get("schema").asString().c_str()
                    : "?",
                numField(doc, "uptime_s"));

    if (doc.has("router")) {
        const obs::Json &router = doc.get("router");
        const auto field = [&](const char *key) {
            return static_cast<unsigned long long>(
                router.has(key) ? router.get(key).asUint() : 0);
        };
        std::printf("router: %llu routed, %llu failover reroutes, "
                    "%llu shard failures, %llu unavailable\n",
                    field("jobs_routed"),
                    field("failover_reroutes"),
                    field("shard_failures"), field("unavailable"));
    }

    if (doc.has("fleet")) {
        const obs::Json &fleet = doc.get("fleet");
        std::printf(
            "fleet: %llu/%llu shards healthy, %llu completed "
            "(%llu cached, %.0f%% hit rate), %llu failed\n",
            static_cast<unsigned long long>(
                fleet.get("healthy_shards").asUint()),
            static_cast<unsigned long long>(
                fleet.get("total_shards").asUint()),
            static_cast<unsigned long long>(static_cast<std::uint64_t>(
                numField(fleet, "jobs_completed"))),
            static_cast<unsigned long long>(static_cast<std::uint64_t>(
                numField(fleet, "jobs_cache_hits"))),
            numField(fleet, "fleet_hit_rate") * 100.0,
            static_cast<unsigned long long>(static_cast<std::uint64_t>(
                numField(fleet, "jobs_failed"))));
        if (fleet.has("e2e_p50_ms"))
            std::printf("fleet e2e latency: p50 %.2fms, p99 %.2fms "
                        "(merged across shards)\n",
                        numField(fleet, "e2e_p50_ms"),
                        numField(fleet, "e2e_p99_ms"));
    }

    if (doc.has("shards")) {
        std::printf("\n");
        TextTable table({"shard", "health", "routed", "failures",
                         "completed", "failed", "cached", "queue"});
        const obs::Json &shards = doc.get("shards");
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const obs::Json &s = shards.at(i);
            const bool healthy =
                s.has("healthy") && s.get("healthy").asBool();
            const auto cell = [&](const char *key) {
                return s.has(key)
                           ? std::to_string(
                                 static_cast<std::uint64_t>(
                                     numField(s, key)))
                           : std::string("-");
            };
            table.addRow({s.get("name").asString(),
                          healthy ? "up" : "DOWN", cell("routed"),
                          cell("failures"), cell("jobs_completed"),
                          cell("jobs_failed"),
                          cell("jobs_cache_hits"),
                          cell("queue_depth")});
        }
        table.print();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    svc::PeerEndpoint peer;
    std::string cmd = "metrics";
    double intervalS = 2.0;
    bool once = false, json = false;
    std::string value;

    bool fleet = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--version") == 0) {
            std::printf("%s\n",
                        obs::versionText("stitchtop").c_str());
            return 0;
        }
        if (cli::keyedValue(arg, "--cmd=", &cmd))
            continue;
        if (std::strcmp(arg, "--fleet") == 0) {
            // The router's statz carries the per-shard dashboard.
            fleet = true;
            cmd = "statz";
            continue;
        }
        if (cli::keyedValue(arg, "--interval=", &value)) {
            intervalS = std::atof(value.c_str());
            continue;
        }
        if (std::strcmp(arg, "--once") == 0) {
            once = true;
            continue;
        }
        if (std::strcmp(arg, "--json") == 0) {
            json = true;
            continue;
        }
        if (arg[0] == '-') {
            std::fprintf(stderr, "stitchtop: unknown flag %s\n",
                         arg);
            return 2;
        }
        // HOST:PORT positional.
        try {
            peer = svc::parsePeerEndpoint(arg);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "stitchtop: %s\n", e.what());
            return 2;
        }
    }

    if (peer.port == 0) {
        std::fprintf(
            stderr,
            "usage: stitchtop HOST:PORT [--cmd=metrics|"
            "healthz|statz|scrape] [--fleet] [--interval=SEC] "
            "[--once] [--json]\n");
        return 2;
    }
    if (cmd != "metrics" && cmd != "healthz" && cmd != "statz" &&
        cmd != "scrape") {
        std::fprintf(stderr, "stitchtop: unknown --cmd=%s\n",
                     cmd.c_str());
        return 2;
    }

    obs::Json request = obs::Json::object();
    request.set("cmd", cmd);

    for (;;) {
        obs::Json doc;
        try {
            doc = svc::requestReport(peer.host, peer.port, request);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "stitchtop: %s\n", e.what());
            return 1;
        }
        const bool isError =
            doc.has("status") &&
            doc.get("status").asString() == "error";

        if (json) {
            std::printf("%s\n", doc.dump(2).c_str());
        } else {
            if (!once)
                std::printf("\x1b[2J\x1b[H"); // clear + home
            if (isError)
                std::printf("stitchtop: daemon error: %s\n",
                            doc.get("error").asString().c_str());
            else if (cmd == "scrape")
                // The exposition is already a text format; unwrap
                // the envelope and pass it through untouched.
                std::fputs(
                    doc.get("exposition").asString().c_str(),
                    stdout);
            else if (fleet ||
                     (doc.has("schema") &&
                      doc.get("schema").asString() ==
                          "stitchrouter-statz"))
                renderFleetTable(doc, peer.name());
            else
                renderTable(doc, peer.name());
            std::fflush(stdout);
        }

        if (once)
            return isError ? 1 : 0;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(intervalS));
    }
}
