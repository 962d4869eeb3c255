#include "telem/slo.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault.hh"

namespace stitch::telem
{

namespace
{

const char *
opToken(SloObjective::Op op)
{
    return op == SloObjective::Op::Le ? "le" : "ge";
}

SloObjective::Op
opFromToken(const std::string &token)
{
    if (token == "le")
        return SloObjective::Op::Le;
    if (token == "ge")
        return SloObjective::Op::Ge;
    throw fault::ConfigError(detail::formatMessage(
        "slo op must be \"le\" or \"ge\", got \"", token, "\""));
}

} // namespace

const std::vector<std::string> &
sloMetrics()
{
    static const std::vector<std::string> metrics = {
        "e2e_p50_ms",  "e2e_p99_ms",       "queue_p99_ms",
        "error_rate",  "cache_hit_rate",   "throughput_jobs_s",
        "queue_depth",
    };
    return metrics;
}

bool
sloMetricValue(const std::string &metric, const Window &window,
               double *value)
{
    auto quantileMs = [&](const char *hist, double q) {
        const Histogram *h = window.histogram(hist);
        if (!h || h->count() == 0)
            return false;
        *value = static_cast<double>(h->quantile(q)) / 1000.0;
        return true;
    };
    if (metric == "e2e_p50_ms")
        return quantileMs(series::e2e, 0.50);
    if (metric == "e2e_p99_ms")
        return quantileMs(series::e2e, 0.99);
    if (metric == "queue_p99_ms")
        return quantileMs(series::queue, 0.99);
    if (metric == "error_rate") {
        const double done = static_cast<double>(
            window.counter(series::jobsCompleted) +
            window.counter(series::jobsFailed));
        if (done <= 0.0)
            return false;
        *value =
            static_cast<double>(window.counter(series::jobsFailed)) /
            done;
        return true;
    }
    if (metric == "cache_hit_rate") {
        const double completed = static_cast<double>(
            window.counter(series::jobsCompleted));
        if (completed <= 0.0)
            return false;
        *value =
            static_cast<double>(
                window.counter(series::jobsCacheHits)) /
            completed;
        return true;
    }
    if (metric == "throughput_jobs_s") {
        if (window.durationS() <= 0.0)
            return false;
        *value = window.rate(series::jobsCompleted);
        return true;
    }
    if (metric == "queue_depth") {
        *value = window.gauge(series::queueDepth);
        return true;
    }
    return false;
}

void
SloObjective::validate() const
{
    if (name.empty())
        throw fault::ConfigError("slo objective needs a name");
    const auto &known = sloMetrics();
    if (std::find(known.begin(), known.end(), metric) == known.end())
        throw fault::ConfigError(detail::formatMessage(
            "slo objective \"", name, "\": unknown metric \"",
            metric, "\""));
    if (!(budget > 0.0) || budget > 1.0)
        throw fault::ConfigError(detail::formatMessage(
            "slo objective \"", name, "\": budget must be in (0, 1]",
            ", got ", budget));
    if (shortWindows < 1 || longWindows < shortWindows)
        throw fault::ConfigError(detail::formatMessage(
            "slo objective \"", name,
            "\": need 1 <= short_windows <= long_windows"));
    if (burnFast <= 0.0 || burnSlow <= 0.0)
        throw fault::ConfigError(detail::formatMessage(
            "slo objective \"", name,
            "\": burn thresholds must be positive"));
}

SloObjective
SloObjective::fromJson(const obs::Json &doc)
{
    SloObjective o;
    o.name = doc.get("name").asString();
    o.metric = doc.get("metric").asString();
    if (doc.has("op"))
        o.op = opFromToken(doc.get("op").asString());
    o.target = doc.get("target").asDouble();
    if (doc.has("budget"))
        o.budget = doc.get("budget").asDouble();
    if (doc.has("short_windows"))
        o.shortWindows =
            static_cast<int>(doc.get("short_windows").asUint());
    if (doc.has("long_windows"))
        o.longWindows =
            static_cast<int>(doc.get("long_windows").asUint());
    if (doc.has("burn_fast"))
        o.burnFast = doc.get("burn_fast").asDouble();
    if (doc.has("burn_slow"))
        o.burnSlow = doc.get("burn_slow").asDouble();
    o.validate();
    return o;
}

obs::Json
SloObjective::toJson() const
{
    obs::Json doc = obs::Json::object();
    doc.set("name", name);
    doc.set("metric", metric);
    doc.set("op", opToken(op));
    doc.set("target", target);
    doc.set("budget", budget);
    doc.set("short_windows", shortWindows);
    doc.set("long_windows", longWindows);
    doc.set("burn_fast", burnFast);
    doc.set("burn_slow", burnSlow);
    return doc;
}

SloConfig
SloConfig::fromJson(const obs::Json &doc)
{
    if (!doc.isObject() || !doc.has("schema") ||
        doc.get("schema").asString() != sloSchema)
        throw fault::ConfigError(
            "slo config must be a stitch-slo document");
    if (doc.get("version").asUint() !=
        static_cast<std::uint64_t>(sloVersion))
        throw fault::ConfigError(detail::formatMessage(
            "unsupported stitch-slo version ",
            doc.get("version").asUint()));
    SloConfig config;
    const obs::Json &list = doc.get("objectives");
    for (std::size_t i = 0; i < list.size(); ++i)
        config.objectives.push_back(
            SloObjective::fromJson(list.at(i)));
    return config;
}

SloConfig
SloConfig::defaults()
{
    SloConfig config;
    SloObjective p99;
    p99.name = "e2e_p99";
    p99.metric = "e2e_p99_ms";
    p99.op = SloObjective::Op::Le;
    p99.target = 250.0;
    config.objectives.push_back(p99);

    SloObjective errors;
    errors.name = "error_rate";
    errors.metric = "error_rate";
    errors.op = SloObjective::Op::Le;
    errors.target = 0.01;
    config.objectives.push_back(errors);

    SloObjective hits;
    hits.name = "cache_hit_rate";
    hits.metric = "cache_hit_rate";
    hits.op = SloObjective::Op::Ge;
    hits.target = 0.25;
    config.objectives.push_back(hits);
    return config;
}

obs::Json
SloConfig::toJson() const
{
    obs::Json doc = obs::Json::object();
    doc.set("schema", sloSchema);
    doc.set("version", sloVersion);
    obs::Json list = obs::Json::array();
    for (const SloObjective &o : objectives)
        list.push(o.toJson());
    doc.set("objectives", std::move(list));
    return doc;
}

SloEngine::SloEngine(SloConfig config)
{
    for (SloObjective &o : config.objectives) {
        o.validate();
        State state;
        state.objective = std::move(o);
        states_.push_back(std::move(state));
    }
}

double
SloEngine::burnOver(const std::deque<bool> &flags, int span,
                    double budget)
{
    if (flags.empty())
        return 0.0;
    const int n = std::min<int>(span,
                                static_cast<int>(flags.size()));
    int bad = 0;
    for (int i = 0; i < n; ++i)
        bad += flags[flags.size() - 1 - static_cast<std::size_t>(i)];
    return (static_cast<double>(bad) / static_cast<double>(n)) /
           budget;
}

void
SloEngine::observe(const Window &window)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (State &state : states_) {
        const SloObjective &o = state.objective;
        double value = 0.0;
        if (!sloMetricValue(o.metric, window, &value)) {
            state.lastValid = false;
            continue; // no signal: neither violates nor heals
        }
        const bool healthy = o.op == SloObjective::Op::Le
                                 ? value <= o.target
                                 : value >= o.target;
        state.lastValue = value;
        state.lastValid = true;
        ++state.windows;
        state.violating.push_back(!healthy);
        while (static_cast<int>(state.violating.size()) >
               o.longWindows)
            state.violating.pop_front();
        state.values.push_back(value);
        while (state.values.size() > 32)
            state.values.pop_front();
        if (!healthy) {
            ++state.violations;
            ++violations_;
        }
        state.burnShort =
            burnOver(state.violating, o.shortWindows, o.budget);
        state.burnLong =
            burnOver(state.violating, o.longWindows, o.budget);
        const bool nowAlerting = state.burnShort >= o.burnFast &&
                                 state.burnLong >= o.burnSlow;
        if (nowAlerting && !state.alerting) {
            ++state.alertsRaised;
            ++alertsRaised_;
        }
        state.alerting = nowAlerting;
    }
}

obs::Json
SloEngine::statusJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    obs::Json list = obs::Json::array();
    for (const State &state : states_) {
        obs::Json doc = state.objective.toJson();
        doc.set("windows", state.windows);
        doc.set("violations", state.violations);
        doc.set("value", state.lastValue);
        doc.set("value_valid", state.lastValid);
        doc.set("burn_short", state.burnShort);
        doc.set("burn_long", state.burnLong);
        doc.set("alerting", state.alerting);
        doc.set("alerts_raised", state.alertsRaised);
        obs::Json history = obs::Json::array();
        for (double v : state.values)
            history.push(v);
        doc.set("history", std::move(history));
        list.push(std::move(doc));
    }
    return list;
}

std::uint64_t
SloEngine::violations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return violations_;
}

std::uint64_t
SloEngine::alertsRaised() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return alertsRaised_;
}

std::uint64_t
SloEngine::alertsActive() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t active = 0;
    for (const State &state : states_)
        active += state.alerting;
    return active;
}

} // namespace stitch::telem
