/**
 * @file
 * sweep_cold: an offline design-space sweep — the stitchq/DSE user.
 *
 * One pass submits every design point of the universe (192 distinct
 * stitch-job specs, order shuffled by the seed) to a fresh JobEngine
 * with one worker per core and drains it with run(). Compile, stitch
 * and simulate do nearly all the work; the wire, the fleet and the
 * result cache do none.
 *
 * Each pass runs in a new process (this executable re-spawned with
 * --pass), so it is exactly as cold as a new stitchq: its own
 * AppRunner kernel cache and an empty process-wide translation memo.
 * set-up is the time from spawn until that process has built its
 * engine and is ready to submit.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "svc/engine.hh"
#include "telem/span.hh"

extern char **environ;

using stitch::obs::Json;

namespace stitchbench
{

namespace
{

constexpr int kWorkers = 4;

/**
 * The pass's submission order: each app's first design point (its
 * baseline at the shortest window) leads, then the rest of the
 * universe shuffled by `seed`. The leading jobs are the ones that pay
 * for compiling their app's kernels, so fixing them keeps the slowest
 * jobs of a pass, and with them its tail, the same for every seed.
 */
std::vector<DesignPoint>
passOrder(std::uint64_t seed)
{
    std::vector<DesignPoint> lead, rest;
    for (const DesignPoint &point : designUniverse())
        (lead.empty() || lead.back().app != point.app ? lead : rest)
            .push_back(point);
    Rng rng(seed);
    for (std::size_t i = rest.size(); i > 1; --i)
        std::swap(rest[i - 1], rest[rng.below(i)]);
    lead.insert(lead.end(), rest.begin(), rest.end());
    return lead;
}

Json
numbers(const std::vector<double> &values)
{
    Json array = Json::array();
    for (double v : values)
        array.push(v);
    return array;
}

std::vector<double>
numbersFrom(const Json &array)
{
    std::vector<double> values;
    for (std::size_t i = 0; i < array.size(); ++i)
        values.push_back(array.at(i).asDouble());
    return values;
}

/**
 * Quantile `q` of per-job latencies, robust to a burst of host noise:
 * consecutive passes are grouped until a group holds ten samples
 * beyond the quantile, and the median over groups is returned.
 */
double
groupedQuantile(const std::vector<std::vector<double>> &passes, double q)
{
    const std::size_t minGroup =
        static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q)));
    std::size_t left = 0;
    for (const auto &pass : passes)
        left += pass.size();
    std::vector<double> perGroup, group;
    for (const auto &pass : passes) {
        group.insert(group.end(), pass.begin(), pass.end());
        left -= pass.size();
        if (group.size() >= minGroup && left >= minGroup) {
            perGroup.push_back(quantile(group, q));
            group.clear();
        }
    }
    if (!group.empty())
        perGroup.push_back(quantile(group, q));
    return quantile(perGroup, 0.5);
}

/** What the parent learns from one pass process. */
struct PassOutcome
{
    bool traced = false;
    double setupS = 0.0;
    Json doc; ///< the pass's result line
};

PassOutcome
spawnPass(const Options &options, int index, bool traced)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    const std::string seed = std::to_string(options.seed);
    const std::string pass = std::to_string(index);
    std::vector<std::string> args = {
        options.self, "--pass",  pass,           "--seed",
        seed,         "--trace", traced ? "1" : "0"};
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    PassOutcome outcome;
    outcome.traced = traced;
    pid_t pid = 0;
    const std::int64_t spawnNs = nowNs();
    const int rc = ::posix_spawn(&pid, options.self.c_str(), &actions,
                                 nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        throw std::runtime_error(std::string("spawn failed: ") +
                                 std::strerror(rc));
    }

    std::FILE *in = ::fdopen(fds[0], "r");
    char *line = nullptr;
    std::size_t cap = 0;
    bool ready = false;
    while (::getline(&line, &cap, in) > 0) {
        if (!ready && std::strcmp(line, "ready\n") == 0) {
            outcome.setupS = msBetween(spawnNs, nowNs()) / 1e3;
            ready = true;
        } else if (ready) {
            outcome.doc = Json::parse(line);
        }
    }
    std::free(line);
    std::fclose(in);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !outcome.doc.isObject())
        throw std::runtime_error("sweep pass " + pass + " failed");
    return outcome;
}

} // namespace

int
runSweepPass(const Options &options)
{
    stitch::svc::EngineOptions engineOptions;
    engineOptions.jobs = kWorkers;
    engineOptions.telemetry = options.trace;
    stitch::svc::JobEngine engine(engineOptions);
    // Engine spans are stamped in µs since the engine's sink epoch;
    // this maps them onto this process's clock.
    const std::int64_t sinkOffsetNs =
        nowNs() - static_cast<std::int64_t>(
                      engine.spanSink().nowUs() * 1000);
    std::printf("ready\n");
    std::fflush(stdout);

    const std::vector<DesignPoint> order = passOrder(options.seed);
    const std::int64_t t0 = nowNs();
    for (const DesignPoint &point : order)
        engine.submit(jobDoc(point, 0, 0, ""));
    const std::int64_t tSubmitted = nowNs();
    engine.run();
    const std::int64_t t1 = nowNs();

    using Status = stitch::svc::JobResult::Status;
    const Golden &golden = Golden::instance();
    Json failures = Json::object();
    std::map<std::string, std::uint64_t> failed;
    std::vector<double> latencies, queues;
    std::uint64_t ok = 0;
    std::map<std::string, std::uint64_t> totals;
    for (int id = 0; id < engine.jobCount(); ++id) {
        const auto &result = engine.result(id);
        const DesignPoint &point = order[static_cast<std::size_t>(id)];
        if (result.status != Status::Completed) {
            ++failed[result.errorKind.empty()
                         ? "untyped"
                         : "typed:" + result.errorKind];
            continue;
        }
        const std::string mismatch =
            golden.check(point, result.report, result.derived);
        if (!mismatch.empty()) {
            std::fprintf(stderr, "wrong output: %s\n",
                         mismatch.c_str());
            ++failed["wrong_output"];
            continue;
        }
        ++ok;
        latencies.push_back(result.latencyMs);
        queues.push_back(result.queueMs);
        const Json &t = result.report.get("totals");
        for (const char *key :
             {"instructions", "makespan_cycles", "custom_instructions",
              "fused_custom_instructions", "snoc_hops", "messages"})
            totals[key] += t.get(key).asUint();
    }
    for (const auto &[kind, count] : failed)
        failures.set(kind, count);

    Json doc = Json::object();
    doc.set("pass_ms", msBetween(t0, t1));
    doc.set("attempted", static_cast<std::uint64_t>(order.size()));
    doc.set("ok", ok);
    doc.set("failures", failures);
    doc.set("latencies_ms", numbers(latencies));
    doc.set("queue_ms", numbers(queues));
    for (const auto &[key, value] : totals)
        doc.set(key, value);
    doc.set("jobs_retained", engine.jobCount());
    doc.set("rss_mb", peakRssMb());

    if (options.trace) {
        // Per-pass stage sums, the simulate-span sample, and the
        // blocking-path check: the submit loop plus the stage spans
        // of the worker lane that finished last should cover the
        // pass wall time.
        double compileMs = 0, stitchMs = 0, reportMs = 0;
        std::vector<double> simulate;
        std::map<int, std::vector<Span>> lanes;
        Json spans = Json::array();
        for (const auto &s : engine.spanSink().snapshot()) {
            Span span;
            span.name = std::string("engine.") +
                        stitch::telem::stageName(s.stage);
            span.req = static_cast<std::uint64_t>(s.jobId);
            span.startNs = sinkOffsetNs +
                           static_cast<std::int64_t>(s.startUs) * 1000;
            span.endNs = sinkOffsetNs +
                         static_cast<std::int64_t>(s.endUs) * 1000;
            span.lane = s.worker;
            const double ms = span.ms();
            using stitch::telem::Stage;
            switch (s.stage) {
            case Stage::Compile: compileMs += ms; break;
            case Stage::Stitch: stitchMs += ms; break;
            case Stage::Report: reportMs += ms; break;
            case Stage::Simulate: simulate.push_back(ms); break;
            default: break;
            }
            if (s.worker >= 0 && s.stage != Stage::Job &&
                s.stage != Stage::Queue)
                lanes[s.worker].push_back(span);
            Json j = Json::array();
            j.push(span.name);
            j.push(span.req);
            j.push(span.lane);
            j.push(static_cast<std::uint64_t>(span.startNs));
            j.push(static_cast<std::uint64_t>(span.endNs));
            spans.push(j);
        }
        const std::vector<Span> *last = nullptr;
        std::int64_t lastEnd = 0;
        for (const auto &[worker, lane] : lanes)
            for (const Span &span : lane)
                if (span.endNs > lastEnd) {
                    lastEnd = span.endNs;
                    last = &lane;
                }
        Span pass;
        pass.startNs = t0;
        pass.endNs = t1;
        Span submit;
        submit.startNs = t0;
        submit.endNs = tSubmitted;
        std::vector<const Span *> covering = {&submit};
        if (last)
            for (const Span &span : *last)
                covering.push_back(&span);
        const double uncovered = selfMs(pass, covering);

        Json stages = Json::object();
        stages.set("compile_ms", compileMs);
        stages.set("stitch_ms", stitchMs);
        stages.set("report_ms", reportMs);
        stages.set("simulate_ms", numbers(simulate));
        stages.set("unaccounted_frac", uncovered / pass.ms());
        stages.set("spans", spans);
        doc.set("stages", stages);
    }
    std::printf("%s\n", doc.dump().c_str());
    std::fflush(stdout);
    return 0;
}

Result
runSweepCold(const Options &options)
{
    Result result;
    Golden::instance(); // fail here, not in every pass, if it is bad
    const double calib = calibrationMs();
    std::uint64_t digest = 0;
    for (const DesignPoint &point : passOrder(options.seed))
        digest = digestBytes(jobDoc(point, 0, 0, "").dump(),
                             digest ^ 0x9e3779b97f4a7c15ull);
    char line[160];
    std::snprintf(line, sizeof line,
                  "sweep_cold: %zu specs per pass, %d workers, "
                  "schedule digest %016llx, calibration %.2f ms",
                  designUniverse().size(), kWorkers,
                  static_cast<unsigned long long>(digest), calib);
    result.notes.push_back(line);

    // The traced run alternates untraced and traced passes so the
    // tracing cost is measured against the same host state.
    std::vector<PassOutcome> passes;
    const std::int64_t start = nowNs();
    for (int index = 0;
         index < 2 || msBetween(start, nowNs()) < options.seconds * 1e3;
         ++index)
        passes.push_back(
            spawnPass(options, index, options.trace && index % 2 == 1));

    std::vector<double> setup, rate, mips, plainMs, tracedMs, simulate,
        queues, compile, stitchSum, report, unaccounted;
    std::vector<std::vector<double>> latencies; // per untraced pass
    double rss = 0.0;
    std::map<std::string, std::uint64_t> counts; // of the last pass
    SpanLog log;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const PassOutcome &p = passes[i];
        const Json &doc = p.doc;
        result.tally.attempted += doc.get("attempted").asUint();
        for (const auto &[kind, n] : doc.get("failures").items())
            result.tally.failures[kind] += n.asUint();
        const double passMs = doc.get("pass_ms").asDouble();
        setup.push_back(p.setupS);
        rss = std::max(rss, doc.get("rss_mb").asDouble());
        for (const char *key :
             {"instructions", "makespan_cycles", "custom_instructions",
              "fused_custom_instructions", "snoc_hops", "messages",
              "jobs_retained"})
            counts[key] = doc.has(key) ? doc.get(key).asUint() : 0;
        if (!p.traced) {
            plainMs.push_back(passMs);
            rate.push_back(static_cast<double>(doc.get("ok").asUint()) /
                           (passMs / 1e3));
            mips.push_back(
                static_cast<double>(counts["instructions"]) / 1e6 /
                (passMs / 1e3));
            latencies.push_back(numbersFrom(doc.get("latencies_ms")));
            continue;
        }
        tracedMs.push_back(passMs);
        for (double v : numbersFrom(doc.get("queue_ms")))
            queues.push_back(v);
        const Json &stages = doc.get("stages");
        compile.push_back(stages.get("compile_ms").asDouble());
        stitchSum.push_back(stages.get("stitch_ms").asDouble());
        report.push_back(stages.get("report_ms").asDouble());
        unaccounted.push_back(stages.get("unaccounted_frac").asDouble());
        for (double v : numbersFrom(stages.get("simulate_ms")))
            simulate.push_back(v);
        const Json &spans = stages.get("spans");
        const std::int64_t base =
            static_cast<std::int64_t>(i) * 1'000'000'000'000ll;
        for (std::size_t s = 0; s < spans.size(); ++s) {
            const Json &j = spans.at(s);
            Span span;
            span.name = j.at(0).asString();
            span.req = (static_cast<std::uint64_t>(i) + 1) << 32 |
                       j.at(1).asUint();
            span.lane = static_cast<int>(i) * 100 +
                        static_cast<int>(j.at(2).asDouble());
            span.startNs =
                base + static_cast<std::int64_t>(j.at(3).asUint());
            span.endNs =
                base + static_cast<std::int64_t>(j.at(4).asUint());
            log.record(span);
        }
    }

    const auto n = [](const std::vector<double> &v) {
        return static_cast<std::uint64_t>(v.size());
    };
    if (!options.trace) {
        std::uint64_t jobs = 0;
        std::vector<double> p50;
        for (const auto &pass : latencies) {
            jobs += pass.size();
            p50.push_back(quantile(pass, 0.5));
        }
        result.add("setup_s", quantile(setup, 0.5), n(setup));
        result.add("jobs_s", quantile(rate, 0.5), n(rate));
        result.add("p50_ms", quantile(p50, 0.5), jobs);
        result.add("p95_ms", groupedQuantile(latencies, 0.95), jobs);
        result.add("rss_mb", rss, n(setup));
        std::snprintf(line, sizeof line, "p99_ms %.4f ms (n=%llu jobs)",
                      groupedQuantile(latencies, 0.99),
                      static_cast<unsigned long long>(jobs));
        result.notes.push_back(line);
        std::snprintf(line, sizeof line,
                      "sim_mips %.4f M instr/s (n=%zu passes, default "
                      "path)",
                      quantile(mips, 0.5), mips.size());
        result.notes.push_back(line);
        return result;
    }

    std::vector<Span> spans = log.snapshot();
    linkParents(spans);
    const std::string path = options.outDir + "/sweep_cold-seed" +
                             std::to_string(options.seed) +
                             ".trace.json";
    writeChromeTrace(path, spans);
    result.notes.push_back("spans written to " + path);

    double simulateMs = 0.0;
    for (double v : simulate)
        simulateMs += v;
    const double instrs = static_cast<double>(counts["instructions"]) *
                          static_cast<double>(tracedMs.size());
    result.add("svc.queue_p99_ms", quantile(queues, 0.99),
               n(queues));
    result.add("svc.jobs_retained", static_cast<double>(counts["jobs_retained"]), 1);
    result.add("svc.report_ms", quantile(report, 0.5), n(report));
    result.add("compiler.compile_ms", quantile(compile, 0.5),
               n(compile));
    result.add("compiler.stitch_ms", quantile(stitchSum, 0.5),
               n(stitchSum));
    result.add("sim.simulate_p50_ms", quantile(simulate, 0.5),
               n(simulate));
    result.add("sim.simulate_p99_ms", quantile(simulate, 0.99),
               n(simulate));
    result.add("sim.host_ns_per_instr", instrs > 0 ? simulateMs * 1e6 / instrs : 0.0,
               n(simulate));
    result.add("sim.instructions", static_cast<double>(counts["instructions"]), 1);
    result.add("sim.makespan_cycles", static_cast<double>(counts["makespan_cycles"]), 1);
    result.add("sim.cust", static_cast<double>(counts["custom_instructions"]), 1);
    result.add("sim.fused_cust", static_cast<double>(counts["fused_custom_instructions"]),
               1);
    result.add("sim.snoc_hops", static_cast<double>(counts["snoc_hops"]), 1);
    result.add("sim.messages", static_cast<double>(counts["messages"]), 1);
    result.add("trace_overhead_frac", quantile(tracedMs, 0.5) / quantile(plainMs, 0.5) - 1.0,
               n(tracedMs));
    result.add("trace.unaccounted_frac", quantile(unaccounted, 0.5), n(unaccounted));
    result.add("harness.calib_ms", calib, 5);
    result.finishLayers();
    return result;
}

} // namespace stitchbench
