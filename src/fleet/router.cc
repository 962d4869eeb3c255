#include "fleet/router.hh"

#include <chrono>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "obs/buildinfo.hh"
#include "svc/job.hh"
#include "svc/server.hh"
#include "telem/exposition.hh"
#include "telem/timeseries.hh"

namespace stitch::fleet
{

namespace
{

/** The shards' fleetz answers folded with the telemetry merge
 *  algebra: counters and histogram buckets add, windows align by
 *  seq. Quantiles are computed on the merged population, never
 *  averaged across shards. */
struct FleetFold
{
    telem::MetricSample merged;
    telem::TimeSeries series;
    bool any = false; ///< some shard contributed a sample

    /** Fold in one shard's answer; returns its sample, if any. */
    std::optional<telem::MetricSample>
    add(const obs::Json &answer)
    {
        if (!answer.isObject() || !answer.has("sample"))
            return std::nullopt;
        telem::MetricSample sample =
            telem::MetricSample::fromWireJson(answer.get("sample"));
        merged.merge(sample); // an empty sample is merge's identity
        any = true;
        if (answer.has("windows")) {
            const obs::Json &windows = answer.get("windows");
            telem::TimeSeries shardSeries;
            for (std::size_t i = 0; i < windows.size(); ++i)
                shardSeries.push(
                    telem::Window::fromWireJson(windows.at(i)));
            series.merge(shardSeries);
        }
        return sample;
    }
};

/** Every counter and gauge of `sample`, under its series name. */
void
setSeries(obs::Json &doc, const telem::MetricSample &sample)
{
    for (const auto &[name, value] : sample.counters)
        doc.set(name, value);
    for (const auto &[name, value] : sample.gauges)
        doc.set(name, value);
}

/** `name`'s counter, or nullopt when the sample lacks the series. */
std::optional<std::uint64_t>
findCounter(const telem::MetricSample &sample, const char *name)
{
    for (const auto &[key, value] : sample.counters)
        if (key == name)
            return value;
    return std::nullopt;
}

} // namespace

Router::Router(const RouterOptions &options)
    : options_(options), ring_(options.vnodes)
{
    if (options_.shards.empty())
        throw fault::ConfigError(
            "router needs at least one shard (--shards=HOST:PORT)");
    options_.retry.validate();
    for (const std::string &text : options_.shards) {
        Shard shard;
        shard.endpoint = svc::parsePeerEndpoint(text);
        const std::string name = shard.endpoint.name();
        if (ring_.contains(name))
            throw fault::ConfigError(detail::formatMessage(
                "duplicate shard endpoint '", name, "'"));
        ring_.addShard(name);
        shards_.push_back(std::move(shard));
    }
}

Router::Shard &
Router::shardByName(const std::string &name)
{
    for (Shard &shard : shards_)
        if (shard.endpoint.name() == name)
            return shard;
    STITCH_PANIC("shard not on the ring: ", name);
}

bool
Router::skipDead(const Shard &shard) const
{
    if (!shard.dead)
        return false;
    const auto held = std::chrono::steady_clock::now() -
                      shard.deadSince;
    return held < std::chrono::milliseconds(options_.holdoffMs);
}

obs::Json
Router::handle(const obs::Json &request)
{
    try {
        if (request.isObject() && request.has("cmd")) {
            const std::string cmd =
                request.get("cmd").asString();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.cmdsServed;
            }
            if (cmd == "healthz")
                return healthzJson();
            if (cmd == "statz" || cmd == "metrics" ||
                cmd == "fleetz")
                return statzJson();
            if (cmd == "scrape")
                return scrapeJson();
            return svc::errorResponseJson(
                "config", "unknown cmd: " + cmd);
        }
        return routeJob(request);
    } catch (const fault::ConfigError &e) {
        return svc::errorResponseJson("config", e.what());
    } catch (const std::exception &e) {
        return svc::errorResponseJson("internal", e.what());
    }
}

obs::Json
Router::routeJob(const obs::Json &request)
{
    // Validate eagerly: a malformed job must answer a typed "config"
    // error from the router, not burn a shard round-trip.
    std::string key;
    try {
        key = svc::JobSpec::fromJson(request).cacheKey();
    } catch (const fault::ConfigError &e) {
        return svc::errorResponseJson("config", e.what());
    }

    const std::vector<std::string> prefs =
        ring_.preferenceList(key, ring_.size());
    const std::uint64_t key64 = svc::hashBytes(key);
    const int maxAttempts = std::max(1, options_.retry.maxAttempts);

    int attempt = 0;
    std::string lastError = "no shard reachable";
    bool candidates = true;
    while (attempt < maxAttempts && candidates) {
        candidates = false;
        for (std::size_t pi = 0;
             pi < prefs.size() && attempt < maxAttempts; ++pi) {
            Shard &shard = shardByName(prefs[pi]);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (skipDead(shard))
                    continue;
            }
            candidates = true;
            ++attempt;
            if (attempt > 1 || pi > 0) {
                // A failover hop: the job left its ring owner —
                // either a live attempt on it failed (attempt > 1)
                // or it is marked dead and was skipped (pi > 0).
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.failoverReroutes;
            }
            obs::Json response;
            try {
                response = svc::requestReport(
                    shard.endpoint.host, shard.endpoint.port,
                    request, /*chaos=*/nullptr,
                    /*requestIndex=*/key64,
                    options_.shardTimeoutMs);
            } catch (const fault::ConfigError &e) {
                lastError = e.what();
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    recordOutcome(shard, false);
                }
                if (attempt < maxAttempts &&
                    options_.retry.enabled()) {
                    const std::uint64_t us =
                        options_.retry.delayUsAfter(key64, attempt);
                    if (us > 0)
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(us));
                }
                continue;
            }
            {
                // The shard answered — it is alive, even if the
                // answer is a typed error the client must handle.
                std::lock_guard<std::mutex> lock(mutex_);
                recordOutcome(shard, true);
                ++shard.routed;
                ++stats_.jobsRouted;
            }
            if (response.isObject()) {
                response.set("shard", shard.endpoint.name());
                response.set("router_attempts", attempt);
            }
            return response;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.unavailable;
    }
    return svc::errorResponseJson(
        "unavailable",
        detail::formatMessage("no shard could serve the job after ",
                              attempt, " attempt(s): ", lastError));
}

obs::Json
Router::healthzJson()
{
    obs::Json doc = askShards(
        "healthz", routerHealthzSchema,
        [](const obs::Json &answer, obs::Json &row) {
            if (answer.has("uptime_s"))
                row.set("uptime_s", answer.get("uptime_s").asDouble());
        });
    doc.set("status", "ok");
    return doc;
}

obs::Json
Router::statzJson()
{
    FleetFold fold;
    obs::Json doc = askShards(
        "fleetz", routerStatzSchema,
        [&fold](const obs::Json &answer, obs::Json &row) {
            if (const auto sample = fold.add(answer))
                setSeries(row, *sample);
        });

    obs::Json router = obs::Json::object();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        router.set("jobs_routed", stats_.jobsRouted);
        router.set("failover_reroutes", stats_.failoverReroutes);
        router.set("shard_failures", stats_.shardFailures);
        router.set("unavailable", stats_.unavailable);
        router.set("cmds_served", stats_.cmdsServed);
    }
    router.set("ring_vnodes",
               static_cast<std::uint64_t>(ring_.vnodes()));
    doc.set("router", std::move(router));

    obs::Json fleet = obs::Json::object();
    fleet.set("healthy_shards", doc.get("healthy_shards"));
    fleet.set("total_shards", doc.get("total_shards"));
    if (fold.any) {
        const telem::MetricSample &merged = fold.merged;
        setSeries(fleet, merged);
        // The derived fields name their inputs; a missing input
        // drops the field rather than deriving from a 0.
        const auto completed =
            findCounter(merged, telem::series::jobsCompleted);
        const auto hits =
            findCounter(merged, telem::series::jobsCacheHits);
        if (completed && hits)
            fleet.set("fleet_hit_rate",
                      *completed > 0
                          ? static_cast<double>(*hits) /
                                static_cast<double>(*completed)
                          : 0.0);
        if (const telem::Histogram *e2e =
                merged.histogram(telem::series::e2e)) {
            fleet.set("e2e_p50_ms",
                      static_cast<double>(e2e->quantile(0.5)) /
                          1000.0);
            fleet.set("e2e_p99_ms",
                      static_cast<double>(e2e->quantile(0.99)) /
                          1000.0);
        }
        fleet.set("sample", merged.toWireJson());
        fleet.set("series", fold.series.toJson());
    }
    doc.set("fleet", std::move(fleet));
    return doc;
}

obs::Json
Router::scrapeJson()
{
    // One exposition for the whole fleet: merge every live shard's
    // sample, then render it exactly as a single stitchd would.
    FleetFold fold;
    obs::Json doc = askShards(
        "fleetz", "stitchrouter-scrape",
        [&fold](const obs::Json &answer, obs::Json &) {
            fold.add(answer);
        });

    const obs::Json build = obs::buildInfoJson();
    telem::ExpositionExtras extras;
    extras.uptimeS = doc.get("uptime_s").asDouble();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        extras.served = stats_.jobsRouted + stats_.cmdsServed;
    }
    extras.buildInfo = &build;
    doc.set("content_type", telem::expositionContentType);
    doc.set("exposition", telem::prometheusText(fold.merged, extras));
    return doc;
}

obs::Json
Router::askShards(
    const char *cmd, const char *schema,
    const std::function<void(const obs::Json &, obs::Json &)> &onAnswer)
{
    obs::Json doc = obs::Json::object();
    doc.set("schema", schema);
    doc.set("version", routerSchemaVersion);
    doc.set("build", obs::buildInfoJson());
    doc.set("uptime_s", std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count());

    obs::Json request = obs::Json::object();
    request.set("cmd", cmd);
    obs::Json rows = obs::Json::array();
    std::uint64_t healthy = 0;
    for (Shard &shard : shards_) {
        std::optional<obs::Json> answer;
        try {
            answer = svc::requestReport(
                shard.endpoint.host, shard.endpoint.port, request,
                /*chaos=*/nullptr, /*requestIndex=*/0,
                options_.shardTimeoutMs);
        } catch (const fault::ConfigError &) {
            // A transport failure: the shard is dead to this command.
        }
        obs::Json row = obs::Json::object();
        row.set("name", shard.endpoint.name());
        row.set("healthy", answer.has_value());
        {
            std::lock_guard<std::mutex> lock(mutex_);
            recordOutcome(shard, answer.has_value());
            row.set("routed", shard.routed);
            row.set("failures", shard.failures);
        }
        if (answer) {
            ++healthy;
            onAnswer(*answer, row);
        }
        rows.push(std::move(row));
    }
    doc.set("shards", std::move(rows));
    doc.set("healthy_shards", healthy);
    doc.set("total_shards",
            static_cast<std::uint64_t>(shards_.size()));
    return doc;
}

void
Router::recordOutcome(Shard &shard, bool answered)
{
    shard.dead = !answered;
    if (answered)
        return;
    shard.deadSince = std::chrono::steady_clock::now();
    ++shard.failures;
    ++stats_.shardFailures;
}

RouterStats
Router::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace stitch::fleet
