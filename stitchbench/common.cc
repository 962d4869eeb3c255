/**
 * @file
 * Clock, statistics, host calibration, tallies and the span store.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.hh"

namespace stitchbench
{

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least q of the sample
    // at or below it.
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
currentRssMb()
{
    long pages = 0, resident = 0;
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
calibrationMs()
{
    std::vector<double> times;
    volatile std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t t0 = nowNs();
        Rng rng(0x5eed + static_cast<std::uint64_t>(rep));
        std::uint64_t acc = 0;
        for (int i = 0; i < (1 << 22); ++i)
            acc += rng.next() >> 61;
        sink = sink + acc;
        times.push_back(msBetween(t0, nowNs()));
    }
    return quantile(times, 0.5);
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Tally::failed() const
{
    std::uint64_t n = 0;
    for (const auto &[kind, count] : failures)
        n += count;
    return n;
}

void
Tally::merge(const Tally &other)
{
    attempted += other.attempted;
    for (const auto &[kind, count] : other.failures)
        failures[kind] += count;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},   {"jobs_s", "jobs/s"}, {"p50_ms", "ms"},
        {"p95_ms", "ms"},   {"rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"fleet.router_wait_p99_ms", "ms"},
        {"fleet.router_self_p50_ms", "ms"},
        {"fleet.shard_busy_sum", "ratio"},
        {"fleet.shard_spread", "ratio"},
        {"fleet.reroutes", "count"},
        {"fleet.unavailable", "count"},
        {"svc.hit_handle_p50_ms", "ms"},
        {"svc.miss_handle_p50_ms", "ms"},
        {"svc.hit_rate", "ratio"},
        {"svc.remote_hits", "count"},
        {"svc.remote_misses", "count"},
        {"svc.remote_stores", "count"},
        {"svc.queue_p99_ms", "ms"},
        {"svc.probe_handle_p95_ms", "ms"},
        {"svc.wire_bytes_per_req", "bytes"},
        {"svc.jobs_retained", "count"},
        {"svc.report_ms", "ms"},
        {"compiler.compile_ms", "ms"},
        {"compiler.stitch_ms", "ms"},
        {"sim.simulate_p50_ms", "ms"},
        {"sim.simulate_p99_ms", "ms"},
        {"sim.host_ns_per_instr", "ns"},
        {"sim.instructions", "count"},
        {"sim.makespan_cycles", "cycles"},
        {"sim.cust", "count"},
        {"sim.fused_cust", "count"},
        {"sim.snoc_hops", "count"},
        {"sim.messages", "count"},
        {"gen.late_p99_ms", "ms"},
        {"gen.backlog_frac", "ratio"},
        {"trace_overhead_frac", "ratio"},
        {"trace.unaccounted_frac", "ratio"},
        {"harness.calib_ms", "ms"},
        {"fail.typed", "count"},
        {"fail.untyped", "count"},
        {"fail.transport", "count"},
        {"fail.wrong_output", "count"},
    };
    return defs;
}

void
Result::add(const std::string &name, double value,
            std::uint64_t samples)
{
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &def : *defs)
            if (name == def.name) {
                metrics.push_back({name, def.unit, value, samples});
                return;
            }
    throw std::logic_error("undeclared metric " + name);
}

void
Result::finishLayers()
{
    std::uint64_t typed = 0;
    for (const auto &[kind, count] : tally.failures)
        if (kind.rfind("typed:", 0) == 0)
            typed += count;
    const auto count = [&](const char *kind) {
        auto it = tally.failures.find(kind);
        return static_cast<double>(
            it == tally.failures.end() ? 0 : it->second);
    };
    add("fail.typed", static_cast<double>(typed), tally.attempted);
    add("fail.untyped", count("untyped"), tally.attempted);
    add("fail.transport", count("transport"), tally.attempted);
    add("fail.wrong_output", count("wrong_output"), tally.attempted);

    std::vector<Metric> ordered;
    for (const MetricDef &def : perLayerMetrics()) {
        Metric metric{def.name, def.unit, 0.0, 0};
        for (const Metric &m : metrics)
            if (m.name == def.name)
                metric = m;
        ordered.push_back(metric);
    }
    metrics = std::move(ordered);
}

std::uint64_t
SpanLog::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

std::vector<Span>
SpanLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    using stitch::obs::Json;
    Json events = Json::array();
    for (const Span &span : spans) {
        Json ev = Json::object();
        ev.set("name", span.name);
        ev.set("ph", "X");
        ev.set("ts", static_cast<double>(span.startNs) / 1e3);
        ev.set("dur", static_cast<double>(span.endNs - span.startNs) /
                          1e3);
        ev.set("pid", 1);
        ev.set("tid", span.lane);
        Json args = Json::object();
        args.set("id", span.id);
        args.set("parent", span.parent);
        args.set("req", span.req);
        if (!span.tag.empty())
            args.set("tag", span.tag);
        ev.set("args", args);
        events.push(ev);
    }
    Json doc = Json::object();
    doc.set("traceEvents", events);
    stitch::obs::writeJsonFile(path, doc);
}

void
linkParents(std::vector<Span> &spans)
{
    const auto rank = [](const std::string &name) {
        if (name.rfind("client.", 0) == 0)
            return 0;
        if (name == "fleet.router")
            return 1;
        if (name == "svc.shard.job")
            return 2;
        // The engine opens its job envelope after submit returns.
        if (name == "engine.job" || name == "engine.submit")
            return 3;
        return 4;
    };
    std::map<std::uint64_t, std::vector<Span *>> byReq;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        spans[i].id = i + 1;
        spans[i].parent = 0;
        if (spans[i].req != 0)
            byReq[spans[i].req].push_back(&spans[i]);
    }
    for (auto &[req, group] : byReq)
        for (Span *span : group) {
            const int own = rank(span->name);
            int best = -1;
            for (const Span *other : group) {
                const int r = rank(other->name);
                if (r < own && r > best) {
                    best = r;
                    span->parent = other->id;
                }
            }
        }
}

double
selfMs(const Span &outer, const std::vector<const Span *> &kids)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const Span *kid : kids) {
        const std::int64_t a = std::max(kid->startNs, outer.startNs);
        const std::int64_t b = std::min(kid->endNs, outer.endNs);
        if (b > a)
            cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = outer.startNs;
    for (const auto &[a, b] : cover) {
        const std::int64_t from = std::max(a, reach);
        if (b > from) {
            covered += b - from;
            reach = b;
        }
    }
    return msBetween(0, outer.endNs - outer.startNs - covered);
}

} // namespace stitchbench
