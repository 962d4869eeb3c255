/**
 * @file
 * Service-tier chaos campaign: sweep deterministic ServiceFaultPlan
 * scenarios over self-contained JobEngines (and in-process wire
 * round-trips) and tabulate how the service degrades — the service
 * mirror of bench/fault_campaign.cc, one level up.
 *
 * Every scenario arms one (or a mix) of the injectable failure modes:
 * worker exceptions, worker stalls (with and without deadlines),
 * cache write failures and torn entries (with a recovery pass),
 * admission-control overload, and wire-level connection resets and
 * malformed frames against a live in-process svc::Server. The
 * campaign asserts the resilience contract (DESIGN.md §13): every
 * outcome is *typed* — completed, "injected", "deadline", shed,
 * rejected, or a typed wire error — and the process never dies.
 *
 * Determinism: each scenario runs its own single-worker engine, and
 * every injection is a pure function of (seed, mechanism, identity),
 * so a scenario's outcome counts depend only on its seed. Scenarios
 * are independent and the table is built in index order after the
 * sweep, so stdout and the --json metrics document are byte-identical
 * for any --jobs value; re-running with the same seeds reproduces the
 * table exactly.
 *
 * Usage: chaos_campaign [--jobs=N] [--json=FILE] [--flight-dir=DIR]
 *        [obs switches]
 * Exits non-zero if any scenario produced an *untyped* failure or a
 * scenario that must fully complete (healthy, retry-covered resets)
 * did not.
 *
 * --flight-dir arms every scenario engine's flight recorder: each
 * typed failure the campaign provokes leaves a
 * flight-<traceid>.jsonl black box in DIR (the artifact CI uploads
 * when a chaos job goes red). Recording never touches outcome
 * counts, so the table stays byte-identical with or without it.
 */

#include <cstdint>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "bench/bench_common.hh"
#include "svc/engine.hh"
#include "svc/server.hh"

using namespace stitch;
using namespace stitch::bench;

namespace
{

namespace fs = std::filesystem;

/** --flight-dir: when set, every scenario engine records and dumps
 *  per-job flight black boxes here. */
std::string &
flightDirFlag()
{
    static std::string dir;
    return dir;
}

/** One campaign scenario: a fault plan plus the engine/client knobs
 *  it exercises. */
struct Scenario
{
    std::string name;
    svc::ServiceFaultPlan plan;
    svc::RetryPolicy retry;          ///< engine or wire retry budget
    std::size_t maxQueueDepth = 0;   ///< admission bound (0 = off)
    std::uint64_t deadlineMs = 0;    ///< applied to every job
    int njobs = 6;                   ///< submissions (or wire requests)
    bool mixedPriorities = false;    ///< bands i%3 (admission tests)
    bool useDisk = false;            ///< scenario gets a scratch dir
    bool recoverPass = false;        ///< re-open the dir, count scan
    bool wire = false;               ///< drive an in-process Server
};

/** Typed outcome counts of one scenario — everything the table and
 *  the metrics document need, and nothing wall-clock-dependent, so
 *  the campaign output is byte-identical for any --jobs value. */
struct Outcome
{
    int jobs = 0;
    int completed = 0;
    int cached = 0;
    int injectedFail = 0; ///< errorKind "injected" (retry exhausted)
    int deadlineFail = 0; ///< errorKind "deadline"
    int shed = 0;
    int rejected = 0;     ///< OverloadedError at submit
    int otherFail = 0;    ///< anything untyped — must stay 0
    std::uint64_t retries = 0;
    std::uint64_t injectedThrows = 0;
    std::uint64_t injectedStalls = 0;
    std::uint64_t watchdogTrips = 0;
    std::uint64_t writeFailures = 0;
    std::uint64_t tornWrites = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t tmpSwept = 0;
    bool degraded = false;
    // Wire scenarios.
    int wireOk = 0;
    int wireTypedError = 0; ///< typed error response ("config", ...)
    int wireTransport = 0;  ///< transport failure after the budget
    int wireAttempts = 0;   ///< attempts summed over requests
};

/** A cheap, distinct job: baseline mode, tiny sample count varied by
 *  index so each submission has its own cache identity. */
svc::JobSpec
smallJob(int index, int priority, std::uint64_t deadlineMs)
{
    svc::JobSpec spec;
    spec.name = strformat("chaos-job-%02d", index);
    spec.app = "APP1-gesture";
    spec.mode = apps::AppMode::Baseline;
    spec.samplesShort = 1;
    spec.samplesLong = 2 + index % 4;
    spec.priority = priority;
    spec.deadlineMs = deadlineMs;
    return spec;
}

std::uint64_t
resilienceCounter(const obs::Json &report, const char *name)
{
    const obs::Json &res =
        report.get("counters").get("svc").get("resilience");
    return res.has(name) ? res.get(name).asUint() : 0;
}

void
foldCacheStats(Outcome &out, const svc::ResultCache::Stats &stats)
{
    out.writeFailures += stats.writeFailures;
    out.tornWrites += stats.tornWrites;
    out.quarantined += stats.quarantined;
    out.tmpSwept += stats.tmpSwept;
    out.degraded = out.degraded || stats.degraded;
}

/** Run one engine-path scenario to completion and tabulate. */
Outcome
runEngineScenario(const Scenario &sc, const std::string &scratchDir)
{
    Outcome out;
    svc::EngineOptions options;
    options.jobs = 1; // single worker: replays the seed exactly
    options.chaos = sc.plan;
    options.retry = sc.retry;
    options.maxQueueDepth = sc.maxQueueDepth;
    options.watchdogPollMs = 2;
    if (sc.useDisk)
        options.cacheDir = scratchDir;
    if (!flightDirFlag().empty()) {
        options.flightRecorder = true;
        options.flightDir = flightDirFlag();
    }
    svc::JobEngine engine(options);

    // In stall scenarios, arm the deadline only on jobs whose first
    // attempt the plan stalls (a pure function of the seed — job ids
    // are dense submit ordinals here). A stalled attempt always
    // overshoots the deadline and a deadline-free job can never trip
    // it, so the outcome counts stay wall-clock-independent even
    // when the sweep loads every core.
    const svc::ServiceFaultInjector probe(sc.plan);
    std::vector<int> ids;
    for (int i = 0; i < sc.njobs; ++i) {
        ++out.jobs;
        const int priority = sc.mixedPriorities ? i % 3 : 0;
        std::uint64_t deadlineMs = sc.deadlineMs;
        if (deadlineMs && sc.plan.workerStallProb > 0.0 &&
            probe.stallUs(i, 1) == 0)
            deadlineMs = 0;
        try {
            ids.push_back(engine.submit(
                smallJob(i, priority, deadlineMs)));
        } catch (const svc::OverloadedError &) {
            ++out.rejected;
        }
    }
    engine.run();

    for (int id : ids) {
        const svc::JobResult &r = engine.result(id);
        out.retries += static_cast<std::uint64_t>(r.attempts - 1);
        switch (r.status) {
        case svc::JobResult::Status::Completed:
            ++out.completed;
            if (r.cached)
                ++out.cached;
            break;
        case svc::JobResult::Status::Shed:
            ++out.shed;
            break;
        case svc::JobResult::Status::Failed:
            if (r.errorKind == "injected")
                ++out.injectedFail;
            else if (r.errorKind == "deadline")
                ++out.deadlineFail;
            else
                ++out.otherFail;
            break;
        default:
            ++out.otherFail;
            break;
        }
    }

    const obs::Json report = engine.serviceReportJson();
    out.injectedThrows = resilienceCounter(report, "injected_throws");
    out.injectedStalls = resilienceCounter(report, "injected_stalls");
    out.watchdogTrips = resilienceCounter(report, "watchdog_trips");
    foldCacheStats(out, engine.cache().stats());

    if (sc.recoverPass) {
        // Re-open the store the way a restarted stitchd would: the
        // constructor's recovery scan must sweep orphans and
        // quarantine every torn entry this scenario left behind.
        svc::ResultCache reopened(scratchDir);
        const svc::ResultCache::Stats scan = reopened.stats();
        out.quarantined += scan.quarantined;
        out.tmpSwept += scan.tmpSwept;
    }
    return out;
}

/** Run one wire-path scenario: an in-process Server on a free port,
 *  a serve thread, and a chaos-armed retrying client. */
Outcome
runWireScenario(const Scenario &sc)
{
    Outcome out;
    svc::EngineOptions options;
    options.jobs = 1;
    if (!flightDirFlag().empty()) {
        options.flightRecorder = true;
        options.flightDir = flightDirFlag();
    }
    svc::JobEngine engine(options);
    svc::Server server(engine);
    std::thread serveThread([&] { server.serve(); });

    svc::ServiceFaultInjector chaos(sc.plan);
    for (int i = 0; i < sc.njobs; ++i) {
        ++out.jobs;
        int attempts = 0;
        try {
            obs::Json response = svc::requestReportWithRetry(
                "127.0.0.1", server.port(),
                smallJob(i, 0, 0).toJson(), sc.retry,
                static_cast<std::uint64_t>(i), &chaos, &attempts);
            if (response.get("status").asString() == "ok") {
                ++out.wireOk;
                ++out.completed;
            } else {
                ++out.wireTypedError;
            }
        } catch (const fault::ConfigError &) {
            // Transport failure with the retry budget spent: typed
            // on this side too, never a crash.
            ++out.wireTransport;
        }
        out.wireAttempts += attempts;
    }

    server.stop();
    serveThread.join();
    return out;
}

std::vector<Scenario>
buildScenarios()
{
    std::vector<Scenario> all;
    auto add = [&](Scenario sc) { all.push_back(std::move(sc)); };

    svc::RetryPolicy fastRetry;
    fastRetry.maxAttempts = 4;
    fastRetry.baseDelayMs = 0.05;
    fastRetry.maxDelayMs = 0.5;

    // Healthy baseline: duplicates exercise the cache path, nothing
    // injected, everything must complete.
    {
        Scenario sc;
        sc.name = "healthy";
        sc.njobs = 8; // indices repeat mod 4 -> 4 cached
        add(sc);
    }

    // Worker exceptions, retried in place by the owning worker.
    for (int i = 0; i < 4; ++i) {
        Scenario sc;
        sc.name = strformat("worker throw p=%.2f retry=4 seed=%d",
                            0.25 * (i + 1), 101 + i);
        sc.plan = svc::ServiceFaultPlan::workerThrows(
            0.25 * (i + 1), static_cast<std::uint64_t>(101 + i));
        sc.retry = fastRetry;
        sc.retry.seed = static_cast<std::uint64_t>(101 + i);
        add(sc);
    }
    // ... without a retry budget: typed "injected" failures.
    for (int seed : {201, 202}) {
        Scenario sc;
        sc.name = strformat("worker throw p=0.60 no-retry seed=%d",
                            seed);
        sc.plan = svc::ServiceFaultPlan::workerThrows(
            0.6, static_cast<std::uint64_t>(seed));
        add(sc);
    }
    // ... and guaranteed exhaustion: every attempt of every job
    // throws, so every job burns the full budget and fails typed.
    {
        Scenario sc;
        sc.name = "worker throw p=1.00 retry=3 seed=210 (exhaust)";
        sc.plan = svc::ServiceFaultPlan::workerThrows(1.0, 210);
        sc.retry = fastRetry;
        sc.retry.maxAttempts = 3;
        sc.retry.seed = 210;
        add(sc);
    }

    // Stalled workers against the deadline watchdog. The deadline is
    // far above a real (few-ms) job and far below the injected stall,
    // so only stalled attempts trip it — outcomes stay a pure
    // function of the seed even when the sweep loads every core.
    for (int seed : {301, 302, 303}) {
        Scenario sc;
        sc.name = strformat("stall 300ms deadline 100ms seed=%d",
                            seed);
        sc.plan = svc::ServiceFaultPlan::workerStalls(
            1.0, 300, static_cast<std::uint64_t>(seed));
        sc.deadlineMs = 100;
        sc.njobs = 3;
        add(sc);
    }
    {
        Scenario sc;
        sc.name = "stall 3ms no deadline seed=304";
        sc.plan = svc::ServiceFaultPlan::workerStalls(1.0, 3, 304);
        sc.njobs = 4;
        add(sc);
    }
    {
        Scenario sc;
        sc.name = "stall p=0.50 300ms deadline 100ms seed=305";
        sc.plan = svc::ServiceFaultPlan::workerStalls(0.5, 300, 305);
        sc.deadlineMs = 100;
        add(sc);
    }
    {
        Scenario sc;
        // Generous enough that no real job can trip it even on a
        // loaded sanitizer build — this scenario pins "an armed
        // watchdog with slack is free", not a wall-clock race.
        sc.name = "generous deadline 60s (watchdog armed, idle)";
        sc.deadlineMs = 60000;
        add(sc);
    }

    // Cache write failures: consecutive losses must degrade to
    // memory-only mode without failing a single job.
    for (int seed : {401, 402}) {
        Scenario sc;
        sc.name = strformat("cache write fail p=1.00 seed=%d", seed);
        sc.plan = svc::ServiceFaultPlan::cacheWriteFailures(
            1.0, static_cast<std::uint64_t>(seed));
        sc.useDisk = true;
        sc.njobs = 5;
        add(sc);
    }
    {
        Scenario sc;
        sc.name = "cache write fail p=0.40 seed=403";
        sc.plan = svc::ServiceFaultPlan::cacheWriteFailures(0.4, 403);
        sc.useDisk = true;
        sc.njobs = 5;
        add(sc);
    }

    // Torn entries + the restarted-daemon recovery scan.
    for (int seed : {501, 502}) {
        Scenario sc;
        sc.name = strformat("torn cache p=1.00 + recover seed=%d",
                            seed);
        sc.plan = svc::ServiceFaultPlan::tornCacheEntries(
            1.0, static_cast<std::uint64_t>(seed));
        sc.useDisk = true;
        sc.recoverPass = true;
        sc.njobs = 4;
        add(sc);
    }
    {
        Scenario sc;
        sc.name = "torn cache p=0.50 + recover seed=503";
        sc.plan = svc::ServiceFaultPlan::tornCacheEntries(0.5, 503);
        sc.useDisk = true;
        sc.recoverPass = true;
        sc.njobs = 6;
        add(sc);
    }

    // Admission control: bounded queues under a 12-deep burst.
    for (std::size_t depth : {3u, 4u, 6u}) {
        Scenario sc;
        sc.name = strformat("admission depth=%zu mixed bands", depth);
        sc.maxQueueDepth = depth;
        sc.mixedPriorities = true;
        sc.njobs = 12;
        add(sc);
    }
    {
        Scenario sc;
        sc.name = "admission depth=2 uniform band (reject-only)";
        sc.maxQueueDepth = 2;
        sc.njobs = 8;
        add(sc);
    }

    // Mixed chaos: throws + stalls + cache losses at once.
    for (int seed : {601, 602}) {
        Scenario sc;
        sc.name = strformat("mixed chaos retry=4 seed=%d", seed);
        sc.plan.seed = static_cast<std::uint64_t>(seed);
        sc.plan.workerThrowProb = 0.3;
        sc.plan.workerStallProb = 0.3;
        sc.plan.stallMs = 2;
        sc.plan.cacheWriteFailProb = 0.3;
        sc.retry = fastRetry;
        sc.retry.seed = static_cast<std::uint64_t>(seed);
        sc.useDisk = true;
        add(sc);
    }

    // Wire chaos against a live in-process server.
    svc::RetryPolicy wireRetry = fastRetry;
    wireRetry.maxAttempts = 6;
    for (int seed : {701, 702}) {
        Scenario sc;
        sc.name = strformat("wire reset p=0.50 retry=6 seed=%d",
                            seed);
        sc.plan = svc::ServiceFaultPlan::connectionResets(
            0.5, static_cast<std::uint64_t>(seed));
        sc.retry = wireRetry;
        sc.retry.seed = static_cast<std::uint64_t>(seed);
        sc.wire = true;
        sc.njobs = 4;
        add(sc);
    }
    {
        Scenario sc;
        sc.name = "wire reset p=1.00 retry=3 seed=703 (exhaust)";
        sc.plan = svc::ServiceFaultPlan::connectionResets(1.0, 703);
        sc.retry = fastRetry;
        sc.retry.maxAttempts = 3;
        sc.retry.seed = 703;
        sc.wire = true;
        sc.njobs = 3;
        add(sc);
    }
    for (int seed : {801, 802}) {
        Scenario sc;
        sc.name = strformat("wire malformed p=0.50 seed=%d", seed);
        sc.plan = svc::ServiceFaultPlan::malformedFrames(
            0.5, static_cast<std::uint64_t>(seed));
        sc.wire = true;
        sc.njobs = 6;
        add(sc);
    }
    {
        Scenario sc;
        sc.name = "wire malformed p=1.00 seed=803";
        sc.plan = svc::ServiceFaultPlan::malformedFrames(1.0, 803);
        sc.wire = true;
        sc.njobs = 4;
        add(sc);
    }
    return all;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv, {"--flight-dir="});
    for (int i = 1; i < argc; ++i)
        if (cli::keyedValue(argv[i], "--flight-dir=",
                            &flightDirFlag()))
            fs::create_directories(flightDirFlag());

    const std::vector<Scenario> scenarios = buildScenarios();
    printHeader("Chaos campaign",
                strformat("%zu deterministic service-tier fault "
                          "scenarios, every outcome typed",
                          scenarios.size())
                    .c_str());

    // Per-process scratch root: scenarios get dirs by index, so the
    // campaign is re-runnable and parallel scenarios never collide.
    const fs::path scratchRoot =
        fs::temp_directory_path() /
        strformat("stitch_chaos_%d", static_cast<int>(::getpid()));
    fs::remove_all(scratchRoot);

    sim::SweepRunner runner(bench::jobsFlag());
    const std::vector<Outcome> outcomes = runner.map(
        static_cast<int>(scenarios.size()), [&](int i) {
            const Scenario &sc = scenarios[static_cast<size_t>(i)];
            if (sc.wire)
                return runWireScenario(sc);
            const fs::path dir =
                scratchRoot / strformat("s%02d", i);
            if (sc.useDisk)
                fs::create_directories(dir);
            return runEngineScenario(sc, dir.string());
        });
    fs::remove_all(scratchRoot);

    TextTable table({"scenario", "jobs", "ok", "fail", "kinds",
                     "shed", "rej", "retries", "notes"});
    Outcome total;
    int untyped = 0, mustCompleteMisses = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &sc = scenarios[i];
        const Outcome &out = outcomes[i];

        std::string kinds;
        auto kind = [&](const char *name, int count) {
            if (count)
                kinds += strformat("%s%s:%d", kinds.empty() ? "" : " ",
                                   name, count);
        };
        kind("injected", out.injectedFail);
        kind("deadline", out.deadlineFail);
        kind("wire-error", out.wireTypedError);
        kind("transport", out.wireTransport);
        kind("UNTYPED", out.otherFail);

        std::string notes;
        auto note = [&](std::string text) {
            notes += (notes.empty() ? "" : ", ") + std::move(text);
        };
        if (out.cached)
            note(strformat("cached:%d", out.cached));
        if (out.degraded)
            note("degraded");
        if (out.writeFailures)
            note(strformat("wfail:%llu",
                           static_cast<unsigned long long>(
                               out.writeFailures)));
        if (out.quarantined)
            note(strformat("quarantined:%llu",
                           static_cast<unsigned long long>(
                               out.quarantined)));
        if (out.watchdogTrips)
            note(strformat("watchdog:%llu",
                           static_cast<unsigned long long>(
                               out.watchdogTrips)));
        if (out.wireAttempts)
            note(strformat("attempts:%d", out.wireAttempts));

        const int failed = out.injectedFail + out.deadlineFail +
                           out.wireTypedError + out.wireTransport +
                           out.otherFail;
        table.addRow({sc.name, std::to_string(out.jobs),
                      std::to_string(out.completed),
                      std::to_string(failed), kinds,
                      std::to_string(out.shed),
                      std::to_string(out.rejected),
                      std::to_string(static_cast<int>(out.retries)),
                      notes});

        untyped += out.otherFail;
        // Scenarios whose retry budget covers the fault must end
        // fully green: the healthy baseline and the p=0.5 resets
        // with six attempts.
        const bool mustComplete =
            sc.name == "healthy" ||
            sc.name.rfind("wire reset p=0.50", 0) == 0;
        if (mustComplete && out.completed != out.jobs)
            ++mustCompleteMisses;

        total.jobs += out.jobs;
        total.completed += out.completed;
        total.cached += out.cached;
        total.injectedFail += out.injectedFail;
        total.deadlineFail += out.deadlineFail;
        total.shed += out.shed;
        total.rejected += out.rejected;
        total.otherFail += out.otherFail;
        total.retries += out.retries;
        total.injectedThrows += out.injectedThrows;
        total.injectedStalls += out.injectedStalls;
        total.watchdogTrips += out.watchdogTrips;
        total.writeFailures += out.writeFailures;
        total.tornWrites += out.tornWrites;
        total.quarantined += out.quarantined;
        total.tmpSwept += out.tmpSwept;
        total.degraded = total.degraded || out.degraded;
        total.wireOk += out.wireOk;
        total.wireTypedError += out.wireTypedError;
        total.wireTransport += out.wireTransport;
        total.wireAttempts += out.wireAttempts;
    }
    table.print();

    const int typedFailures = total.injectedFail + total.deadlineFail +
                              total.wireTypedError +
                              total.wireTransport;
    std::printf(
        "\n%zu scenarios, %d jobs: %d completed, %d typed failures, "
        "%d shed, %d rejected, %d untyped, 0 process-fatal\n",
        scenarios.size(), total.jobs, total.completed, typedFailures,
        total.shed, total.rejected, untyped);

    recordMetric("scenarios", static_cast<int>(scenarios.size()));
    recordMetric("jobs_total", total.jobs);
    recordMetric("completed_total", total.completed);
    recordMetric("typed_failures_total", typedFailures);
    recordMetric("untyped_failures", untyped);
    recordMetric("process_fatal", 0);
    recordMetric("shed_total", total.shed);
    recordMetric("rejected_total", total.rejected);
    recordMetric("retries_total", static_cast<int>(total.retries));
    recordMetric("deadline_failures",
                 static_cast<int>(total.deadlineFail));
    recordMetric("injected_failures",
                 static_cast<int>(total.injectedFail));
    recordMetric("cache_write_failures",
                 static_cast<int>(total.writeFailures));
    recordMetric("cache_torn_writes",
                 static_cast<int>(total.tornWrites));
    recordMetric("cache_quarantined",
                 static_cast<int>(total.quarantined));
    recordMetric("wire_ok", total.wireOk);
    recordMetric("wire_typed_errors", total.wireTypedError);
    recordMetric("wire_transport_failures", total.wireTransport);
    recordMetric("wire_attempts", total.wireAttempts);

    if (untyped || mustCompleteMisses) {
        std::fprintf(stderr,
                     "chaos_campaign: %d untyped failures, %d "
                     "must-complete scenarios incomplete\n",
                     untyped, mustCompleteMisses);
        return 1;
    }
    return 0;
}
