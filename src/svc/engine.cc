#include "svc/engine.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "obs/buildinfo.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "svc/artifacts.hh"
#include "telem/exposition.hh"

namespace stitch::svc
{

const char *
jobStatusName(JobResult::Status status)
{
    switch (status) {
    case JobResult::Status::Pending: return "pending";
    case JobResult::Status::Running: return "running";
    case JobResult::Status::Completed: return "completed";
    case JobResult::Status::Failed: return "failed";
    case JobResult::Status::Cancelled: return "cancelled";
    case JobResult::Status::Shed: return "shed";
    }
    return "?";
}

JobEngine::JobEngine(const EngineOptions &options)
    : options_(options), injector_(options.chaos),
      cache_(options.cacheDir)
{
    options_.retry.validate();
    if (injector_.active())
        cache_.setFaultInjector(&injector_);
    // Trace ids must be unique within the engine (splitmix64 over the
    // job index guarantees that) and unlikely to collide across
    // engines; fold the wall clock in for the latter.
    traceSeed_ = telem::traceIdFor(
        static_cast<std::uint64_t>(
            std::chrono::system_clock::now()
                .time_since_epoch()
                .count()),
        reinterpret_cast<std::uintptr_t>(this));

    if (!options_.remoteCache.peers.empty())
        remote_ = std::make_unique<RemoteCacheClient>(
            options_.remoteCache);

    // The continuous-telemetry organs. All off by default so batch
    // behaviour (and its report bytes) are untouched; stitchd arms
    // them all.
    if (!options_.slo.empty())
        slo_ = std::make_unique<telem::SloEngine>(options_.slo);
    if (options_.flightRecorder || !options_.flightDir.empty()) {
        telem::FlightOptions flightOptions;
        flightOptions.dumpDir = options_.flightDir;
        flight_ =
            std::make_unique<telem::FlightRecorder>(flightOptions);
        // Every span the sink closes lands in the trace's black box.
        spanSink_.setObserver(
            [this](const telem::Span &span) { flight_->span(span); });
    }
    if (options_.metricsIntervalMs > 0) {
        collector_ = std::make_unique<telem::Collector>(
            [this] { return metricsSnapshot(); },
            options_.metricsIntervalMs, /*capacity=*/120,
            [this](const telem::Window &window) {
                if (slo_)
                    slo_->observe(window);
            });
        collector_->start();
    }
}

JobEngine::~JobEngine()
{
    // The collector samples *this; it must be parked before any
    // member tears down.
    if (collector_)
        collector_->stop();
    // run() joins the watchdog on every exit path; this is only the
    // backstop against a future path that forgets.
    if (watchdog_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            wdStop_ = true;
        }
        wdCv_.notify_all();
        watchdog_.join();
    }
}

telem::TraceContext
JobEngine::contextFor(const Job &job, int worker) const
{
    telem::TraceContext ctx;
    ctx.traceId = job.result.traceId;
    ctx.jobId = job.id;
    ctx.worker = worker;
    ctx.sink = options_.telemetry
                   ? const_cast<telem::SpanSink *>(&spanSink_)
                   : nullptr;
    return ctx;
}

int
JobEngine::submit(const JobSpec &spec)
{
    const std::uint64_t t0 = spanSink_.nowUs();
    spec.validate();
    std::string canonical = spec.canonicalJson().dump();
    const std::string key = cacheKeyFor(canonical);

    std::lock_guard<std::mutex> lock(mutex_);

    if (options_.maxQueueDepth > 0 &&
        static_cast<std::size_t>(pendingJobs_) >=
            options_.maxQueueDepth) {
        // Admission control. Shedding policy: the *lowest* pending
        // band pays first, and only for a strictly higher-priority
        // newcomer — an equal-or-lower one is rejected outright.
        // Either way the outcome is typed, never a silent drop.
        const int lowestBand = std::prev(pendingPerBand_.end())->first;
        if (spec.priority <= lowestBand) {
            ++counts_.rejected;
            throw OverloadedError(detail::formatMessage(
                "queue full (", pendingJobs_, "/",
                options_.maxQueueDepth,
                " pending) and priority ", spec.priority,
                " does not outrank band ", lowestBand));
        }
        // Shed the oldest pending job of the lowest band (dense ids
        // are submit-ordered, so the first match is the oldest).
        for (auto &victimPtr : jobs_) {
            Job &victim = *victimPtr;
            if (victim.result.status != JobResult::Status::Pending ||
                victim.spec.priority != lowestBand)
                continue;
            victim.result.status = JobResult::Status::Shed;
            victim.result.errorKind = "overloaded";
            victim.result.error = detail::formatMessage(
                "shed under overload by higher-priority job (band ",
                lowestBand, " -> ", spec.priority, ")");
            --pendingJobs_;
            if (auto it = pendingPerBand_.find(lowestBand);
                it != pendingPerBand_.end() && --it->second <= 0)
                pendingPerBand_.erase(it);
            ++counts_.shed;
            if (flight_) {
                flight_->event(victim.result.traceId,
                               spanSink_.nowUs(), "shed",
                               victim.result.error);
                const obs::Json build = obs::buildInfoJson();
                flight_->dump(victim.result.traceId, "overloaded",
                              victim.result.error, &build);
            }
            break;
        }
    }

    const int id = static_cast<int>(jobs_.size());
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = spec;
    job->result.key = key;
    job->canonical = std::move(canonical);
    job->result.traceId =
        telem::traceIdFor(traceSeed_,
                          static_cast<std::uint64_t>(id));
    job->submitUs = spanSink_.nowUs();
    if (options_.telemetry)
        spanSink_.record({job->result.traceId, id,
                          telem::Stage::Submit, t0, job->submitUs,
                          /*worker=*/-1});
    if (flight_) {
        flight_->attach(job->result.traceId, id);
        flight_->event(job->result.traceId, job->submitUs,
                       "submitted",
                       detail::formatMessage("priority ",
                                             spec.priority));
    }
    jobs_.push_back(std::move(job));
    queue_.push({spec.priority, -id});
    ++pendingPerBand_[spec.priority];
    ++pendingJobs_;
    ++counts_.submitted;
    counts_.peakDepth = std::max<std::uint64_t>(
        counts_.peakDepth, static_cast<std::uint64_t>(pendingJobs_));
    return id;
}

int
JobEngine::submit(const obs::Json &doc)
{
    return submit(JobSpec::fromJson(doc));
}

bool
JobEngine::cancel(int id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < 0 || id >= static_cast<int>(jobs_.size()))
        return false;
    Job &job = *jobs_[static_cast<std::size_t>(id)];
    if (job.result.status != JobResult::Status::Pending)
        return false;
    job.result.status = JobResult::Status::Cancelled;
    --pendingJobs_;
    if (auto it = pendingPerBand_.find(job.spec.priority);
        it != pendingPerBand_.end() && --it->second <= 0)
        pendingPerBand_.erase(it);
    ++counts_.cancelled;
    return true;
}

void
JobEngine::recordLatency(Job &job, std::uint64_t finishUs)
{
    JobResult &result = job.result;
    result.latencyMs =
        static_cast<double>(finishUs - job.claimUs) / 1000.0;
    result.queueMs =
        static_cast<double>(job.claimUs - job.submitUs) / 1000.0;
    result.e2eMs =
        static_cast<double>(finishUs - job.submitUs) / 1000.0;

    using telem::Stage;
    stageHist_[static_cast<int>(Stage::Queue)].record(job.claimUs -
                                                      job.submitUs);
    stageHist_[static_cast<int>(Stage::Job)].record(finishUs -
                                                    job.submitUs);
    if (cache_.enabled())
        stageHist_[static_cast<int>(Stage::CacheProbe)].record(
            job.probeUs);
    if (job.reportUs > 0)
        stageHist_[static_cast<int>(Stage::Report)].record(
            job.reportUs);
}

void
JobEngine::finishCompleted(Job &job, const CacheEntry &entry,
                           bool cached)
{
    job.result.report = entry.report;
    job.result.derived = entry.derived;
    job.result.cached = cached;
    job.result.status = JobResult::Status::Completed;
    --runningJobs_;
    ++counts_.completed;
    ++(cached ? counts_.cacheHits : counts_.simulated);
    recordLatency(job, spanSink_.nowUs());
    // A healthy landing: the black box has nothing left to tell.
    if (flight_)
        flight_->forget(job.result.traceId);
}

void
JobEngine::finishFailed(Job &job, const std::string &kind,
                        const std::string &message)
{
    job.result.error = message;
    job.result.errorKind = kind;
    job.result.status = JobResult::Status::Failed;
    --runningJobs_;
    ++counts_.failed;
    const std::uint64_t finishUs = spanSink_.nowUs();
    recordLatency(job, finishUs);

    ErrorRecord record;
    record.jobId = job.id;
    record.traceId = job.result.traceId;
    record.kind = kind;
    record.error = message;
    record.atMs = static_cast<double>(finishUs) / 1000.0;
    errorRing_.push_back(std::move(record));
    while (errorRing_.size() > errorRingEntries)
        errorRing_.pop_front();

    // Every typed failure leaves a flight record behind.
    if (flight_) {
        flight_->event(job.result.traceId, finishUs, "failed",
                       detail::formatMessage(kind, ": ", message));
        const obs::Json build = obs::buildInfoJson();
        flight_->dump(job.result.traceId, kind, message, &build);
    }
}

/**
 * The worker attempt loop: chaos injection, the simulation itself,
 * the typed exception-to-kind mapping, and deterministic jittered
 * retry of chaos-transient failures. Runs without mutex_ held.
 */
void
JobEngine::runSimulation(Job &job, const telem::TraceContext &ctx,
                         CacheEntry &entry, bool &failed,
                         std::string &kind, std::string &error)
{
    for (int attempt = 1;; ++attempt) {
        failed = false;
        kind.clear();
        error.clear();
        try {
            if (injector_.active()) {
                // Stall first (a wedged worker), then maybe throw (a
                // crashed one). The stall polls the abort flag so a
                // deadline can cut it short — that is precisely how
                // the watchdog scenario terminates.
                std::uint64_t stall =
                    injector_.stallUs(job.id, attempt);
                if (stall > 0) {
                    {
                        std::lock_guard<std::mutex> lock(mutex_);
                        ++counts_.injectedStalls;
                    }
                    if (flight_)
                        flight_->event(
                            job.result.traceId, spanSink_.nowUs(),
                            "injected_stall",
                            detail::formatMessage(stall, " us"));
                    const std::uint64_t until =
                        spanSink_.nowUs() + stall;
                    while (spanSink_.nowUs() < until) {
                        if (job.abortRequested.load(
                                std::memory_order_relaxed))
                            throw fault::DeadlineExceededError(
                                detail::formatMessage(
                                    "stalled worker aborted by the "
                                    "deadline watchdog (attempt ",
                                    attempt, ")"));
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                }
                if (injector_.throwOnAttempt(job.id, attempt)) {
                    {
                        std::lock_guard<std::mutex> lock(mutex_);
                        ++counts_.injectedThrows;
                    }
                    if (flight_)
                        flight_->event(
                            job.result.traceId, spanSink_.nowUs(),
                            "injected_throw",
                            detail::formatMessage("attempt ",
                                                  attempt));
                    throw InjectedFaultError(detail::formatMessage(
                        "injected worker fault (job ", job.id,
                        ", attempt ", attempt, ")"));
                }
            }

            const apps::AppSpec &app = job.spec.resolveApp();
            apps::RunConfig runConfig = job.spec.runConfig();
            runConfig.trace = ctx;
            runConfig.abortFlag = &job.abortRequested;
            apps::AppRunResult res =
                runner_.run(app, job.spec.mode, runConfig);
            const std::uint64_t reportStart = spanSink_.nowUs();
            {
                telem::ScopedSpan span(ctx, telem::Stage::Report);
                ReportOptions reportOptions;
                reportOptions.profile = job.spec.artifacts.profile;
                reportOptions.energy = job.spec.artifacts.energy;
                entry.report = appReportJson(res, reportOptions);
                entry.derived = derivedJson(res);
                if (cache_.memEnabled() || cache_.diskEnabled())
                    cache_.store(job.spec, entry);
            }
            job.reportUs = spanSink_.nowUs() - reportStart;
        } catch (const InjectedFaultError &e) {
            // The only *retryable* kind: transient by construction.
            if (attempt < options_.retry.maxAttempts) {
                const std::uint64_t delay =
                    options_.retry.delayUsAfter(
                        static_cast<std::uint64_t>(job.id), attempt);
                const std::uint64_t t0 = spanSink_.nowUs();
                std::this_thread::sleep_for(
                    std::chrono::microseconds(delay));
                ctx.record(telem::Stage::Backoff, t0,
                           spanSink_.nowUs());
                if (flight_)
                    flight_->event(
                        job.result.traceId, spanSink_.nowUs(),
                        "retry",
                        detail::formatMessage("attempt ", attempt,
                                              " backed off ", delay,
                                              " us"));
                std::lock_guard<std::mutex> lock(mutex_);
                ++counts_.retries;
                stageHist_[static_cast<int>(telem::Stage::Backoff)]
                    .record(delay);
                continue;
            }
            failed = true;
            kind = "injected";
            error = e.what();
            std::lock_guard<std::mutex> lock(mutex_);
            if (options_.retry.enabled())
                ++counts_.retryExhausted;
        } catch (const fault::DeadlineExceededError &e) {
            failed = true;
            kind = "deadline";
            error = e.what();
            std::lock_guard<std::mutex> lock(mutex_);
            ++counts_.deadlineExceeded;
        } catch (const fault::ConfigError &e) {
            failed = true;
            kind = "config";
            error = e.what();
        } catch (const fault::BinaryMismatchError &e) {
            failed = true;
            kind = "mismatch";
            error = e.what();
        } catch (const fault::SimError &e) {
            failed = true;
            kind = "sim";
            error = e.what();
        } catch (const std::exception &e) {
            failed = true;
            kind = "internal";
            error = e.what();
        }
        job.result.attempts = attempt;
        return;
    }
}

bool
JobEngine::claimAndRunOne(int worker)
{
    Job *claimed = nullptr;
    telem::TraceContext ctx;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::uint64_t claimStart = spanSink_.nowUs();
        while (!queue_.empty()) {
            const int id = -queue_.top().second;
            queue_.pop();
            Job &job = *jobs_[static_cast<std::size_t>(id)];
            if (job.result.status == JobResult::Status::Cancelled ||
                job.result.status == JobResult::Status::Shed)
                continue; // cancelled/shed while queued; stale entry
            claimed = &job;
            break;
        }
        if (!claimed)
            return false;

        Job &job = *claimed;
        job.result.status = JobResult::Status::Running;
        job.claimUs = spanSink_.nowUs();
        if (job.spec.deadlineMs > 0)
            job.deadlineAtUs =
                job.claimUs + job.spec.deadlineMs * 1000;
        ++runningJobs_;
        --pendingJobs_;
        if (auto it = pendingPerBand_.find(job.spec.priority);
            it != pendingPerBand_.end() && --it->second <= 0)
            pendingPerBand_.erase(it);

        ctx = contextFor(job, worker);
        // The queue span closes the moment a worker picks the job up.
        ctx.record(telem::Stage::Queue, job.submitUs, job.claimUs);
        if (flight_)
            flight_->event(job.result.traceId, job.claimUs,
                           "claimed",
                           detail::formatMessage("worker ", worker));

        if (cache_.memEnabled() || cache_.diskEnabled()) {
            // Resolve against the cache inside the claim critical
            // section: attribution (hit vs simulate) becomes a pure
            // function of submit order, independent of worker count.
            const std::uint64_t probeStart = spanSink_.nowUs();
            auto hit = cache_.memLookup(job.canonical, ctx);
            job.probeUs = spanSink_.nowUs() - probeStart;
            if (hit) {
                finishCompleted(job, *hit, /*cached=*/true);
                ctx.record(telem::Stage::Claim, claimStart,
                           spanSink_.nowUs());
                ctx.record(telem::Stage::Job, job.submitUs,
                           spanSink_.nowUs());
                return true;
            }
            if (flight_)
                flight_->event(job.result.traceId,
                               spanSink_.nowUs(), "cache_miss");
            if (auto it = inflight_.find(job.canonical);
                it != inflight_.end()) {
                job.flight = it->second; // coalesce: wait below
                if (flight_)
                    flight_->event(job.result.traceId,
                                   spanSink_.nowUs(), "coalesced",
                                   "waiting on in-flight twin");
            } else {
                job.flight = std::make_shared<Flight>();
                job.flightOwner = true;
                inflight_[job.canonical] = job.flight;
            }
        }
        ctx.record(telem::Stage::Claim, claimStart,
                   spanSink_.nowUs());
    }

    Job &job = *claimed;

    if (job.flight && !job.flightOwner) {
        // An identical spec is simulating right now; adopt its
        // outcome instead of simulating twice.
        std::unique_lock<std::mutex> flightLock(job.flight->mutex);
        job.flight->cv.wait(flightLock,
                            [&] { return job.flight->done; });
        const bool failed = job.flight->failed;
        const std::string error = job.flight->error;
        const std::string kind = job.flight->errorKind;
        const CacheEntry entry = job.flight->entry;
        flightLock.unlock();

        std::lock_guard<std::mutex> lock(mutex_);
        if (failed)
            finishFailed(job, kind, error);
        else
            finishCompleted(job, entry, /*cached=*/true);
        ctx.record(telem::Stage::Job, job.submitUs,
                   spanSink_.nowUs());
        return true;
    }

    // This worker owns the simulation (or caching is fully disabled).
    CacheEntry entry;
    bool failed = false;
    bool fromDisk = false;
    bool fromRemote = false;
    std::string error, kind;
    if (job.flightOwner) {
        const std::uint64_t probeStart = spanSink_.nowUs();
        auto hit = cache_.diskLookup(job.spec, ctx);
        job.probeUs += spanSink_.nowUs() - probeStart;
        if (hit) {
            entry = *hit;
            fromDisk = true;
        }
        if (!fromDisk && remote_) {
            // Read-through to the shared cache tier: a peer shard
            // that already simulated this spec saves us the run.
            // Probed outside mutex_ — this is network I/O.
            const std::uint64_t remoteStart = spanSink_.nowUs();
            auto remoteHit =
                remote_->lookup(job.spec, job.result.key);
            job.probeUs += spanSink_.nowUs() - remoteStart;
            if (remoteHit) {
                entry = *remoteHit;
                fromRemote = true;
                // Promote into the local layers so the next
                // duplicate is a mem hit at claim time.
                if (cache_.enabled())
                    cache_.store(job.spec, entry);
                if (flight_)
                    flight_->event(job.result.traceId,
                                   spanSink_.nowUs(),
                                   "remote_cache_hit");
            }
        }
    }
    const bool fromCache = fromDisk || fromRemote;
    if (!fromCache)
        runSimulation(job, ctx, entry, failed, kind, error);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (failed)
            finishFailed(job, kind, error);
        else
            finishCompleted(job, entry, /*cached=*/fromCache);
    }
    if (!failed && !fromCache && remote_)
        // Write-behind: replicate the fresh simulation to the peers
        // (async by default; never blocks or fails the job).
        remote_->storeBehind(job.spec, job.result.key, entry);
    ctx.record(telem::Stage::Job, job.submitUs, spanSink_.nowUs());

    if (job.flightOwner) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inflight_.erase(job.canonical);
        }
        std::lock_guard<std::mutex> flightLock(job.flight->mutex);
        job.flight->failed = failed;
        job.flight->error = error;
        job.flight->errorKind = kind;
        job.flight->entry = entry;
        job.flight->done = true;
        job.flight->cv.notify_all();
    }
    return true;
}

/**
 * Deadline watchdog: wakes every watchdogPollMs, trips the abort
 * flag of any running job past its deadline. Detection is *stuck
 * worker* shaped — a worker that stops making progress (a stalled
 * simulation, an injected stall) is asked to unwind cooperatively;
 * the thread itself is never killed, so no lock or cache entry can
 * be orphaned mid-update.
 */
void
JobEngine::watchdogLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wdStop_) {
        const std::uint64_t now = spanSink_.nowUs();
        for (auto &jobPtr : jobs_) {
            Job &job = *jobPtr;
            if (job.result.status != JobResult::Status::Running ||
                job.deadlineAtUs == 0 || now < job.deadlineAtUs)
                continue;
            if (!job.abortRequested.exchange(
                    true, std::memory_order_relaxed)) {
                ++counts_.watchdogTrips;
                if (flight_)
                    flight_->event(
                        job.result.traceId, now, "watchdog_trip",
                        "deadline passed; abort requested");
            }
        }
        wdCv_.wait_for(
            lock,
            std::chrono::milliseconds(options_.watchdogPollMs));
    }
}

void
JobEngine::run()
{
    // Arm the watchdog only when this drain can need it: a pending
    // job with a deadline (an armed chaos stall without a deadline
    // just runs long — nothing to abort).
    bool needWatchdog = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        wdStop_ = false;
        for (const auto &jobPtr : jobs_)
            if (jobPtr->result.status ==
                    JobResult::Status::Pending &&
                jobPtr->spec.deadlineMs > 0)
                needWatchdog = true;
    }
    if (needWatchdog)
        watchdog_ = std::thread([this] { watchdogLoop(); });

    struct WatchdogJoin
    {
        JobEngine *engine;
        ~WatchdogJoin()
        {
            if (!engine->watchdog_.joinable())
                return;
            {
                std::lock_guard<std::mutex> lock(engine->mutex_);
                engine->wdStop_ = true;
            }
            engine->wdCv_.notify_all();
            engine->watchdog_.join();
        }
    } joiner{this};

    int workers = options_.jobs;
    if (workers < 1)
        workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers < 1)
        workers = 1;
    if (workers > 1 &&
        (obs::Tracer::enabled() || obs::Sampler::enabled())) {
        // Same rule as sim::SweepRunner: the trace and profile sinks
        // are process-wide single streams.
        warn("job engine forced to --jobs=1: tracing/profiling write "
             "to process-wide sinks");
        workers = 1;
    }

    std::size_t pending = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = static_cast<std::size_t>(pendingJobs_);
    }
    workers = std::min<int>(workers, static_cast<int>(pending));

    if (workers <= 1) {
        while (claimAndRunOne(/*worker=*/0)) {}
        return;
    }

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back([this, w] {
            while (claimAndRunOne(w)) {}
        });
    for (auto &t : pool)
        t.join();
}

int
JobEngine::jobCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(jobs_.size());
}

const JobSpec &
JobEngine::spec(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.at(static_cast<std::size_t>(id))->spec;
}

const JobResult &
JobEngine::result(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.at(static_cast<std::size_t>(id))->result;
}

telem::TraceContext
JobEngine::traceContext(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    telem::TraceContext ctx;
    if (id < 0 || id >= static_cast<int>(jobs_.size()))
        return ctx;
    ctx.traceId =
        jobs_[static_cast<std::size_t>(id)]->result.traceId;
    ctx.jobId = id;
    ctx.sink = options_.telemetry
                   ? const_cast<telem::SpanSink *>(&spanSink_)
                   : nullptr;
    return ctx;
}

std::vector<JobEngine::Metric>
JobEngine::metricsLocked() const
{
    std::vector<Metric> metrics;
    auto group = [&metrics](std::string prefix) {
        return [&metrics, prefix = std::move(prefix)](
                   const std::string &name, std::uint64_t value,
                   StatKind kind = StatKind::Counter) {
            metrics.push_back({prefix + name, value, kind});
        };
    };
    auto jobs = group("jobs.");
    jobs("submitted", counts_.submitted);
    jobs("completed", counts_.completed);
    jobs("failed", counts_.failed);
    jobs("cancelled", counts_.cancelled);
    jobs("shed", counts_.shed);
    jobs("cache_hits", counts_.cacheHits);
    jobs("simulated", counts_.simulated);
    cache_.stats().forEachField(group("cache."));
    runner_.runMemoStats().forEachField(group("run_memo."));
    auto resilience = group("resilience.");
    resilience("rejected", counts_.rejected);
    resilience("shed", counts_.shed);
    resilience("retries", counts_.retries);
    resilience("retry_exhausted", counts_.retryExhausted);
    resilience("injected_throws", counts_.injectedThrows);
    resilience("injected_stalls", counts_.injectedStalls);
    resilience("watchdog_trips", counts_.watchdogTrips);
    resilience("deadline_exceeded", counts_.deadlineExceeded);
    if (slo_) {
        auto slo = group("slo.");
        slo("violations", slo_->violations());
        slo("alerts", slo_->alertsRaised());
        slo("alerts_active", slo_->alertsActive(), StatKind::Gauge);
    }
    if (flight_)
        group("flight.")("dumps", flight_->dumps());
    if (remote_)
        remote_->stats().forEachField(group("remote_cache."));
    auto queue = group("queue.");
    queue("depth", static_cast<std::uint64_t>(pendingJobs_),
          StatKind::Gauge);
    queue("peak_depth", counts_.peakDepth, StatKind::Gauge);
    group("")("in_flight", static_cast<std::uint64_t>(runningJobs_),
              StatKind::Gauge);
    return metrics;
}

obs::Json
JobEngine::metricTree(const std::vector<Metric> &metrics,
                      const std::string &prefix, bool flagsAsBool,
                      obs::Json node)
{
    for (const Metric &m : metrics) {
        if (m.path.compare(0, prefix.size(), prefix) != 0)
            continue;
        const std::string rest = m.path.substr(prefix.size());
        const std::size_t dot = rest.find('.');
        if (dot == std::string::npos) {
            if (flagsAsBool && m.kind == StatKind::Flag)
                node.set(rest, m.value != 0);
            else
                node.set(rest, m.value);
        } else if (const std::string sub = rest.substr(0, dot);
                   !node.has(sub)) {
            node.set(sub, metricTree(metrics, prefix + sub + ".",
                                     flagsAsBool));
        }
    }
    return node;
}

obs::Json
JobEngine::latencyJson() const
{
    using telem::Stage;
    obs::Json doc = obs::Json::object();
    auto add = [&](Stage stage, const telem::Histogram &hist,
                   const char *label = nullptr) {
        if (hist.count() == 0 && stage != Stage::Queue &&
            stage != Stage::Job)
            return; // quiet stages only pad the document
        doc.set(label ? label : telem::stageName(stage),
                hist.toJson());
    };
    // compile/stitch/simulate happen inside AppRunner and respond in
    // the server: they reach the engine only as spans, which the
    // sink folds into its stage histograms as they close.
    auto engine = [&](Stage stage) {
        add(stage, stageHist_[static_cast<int>(stage)]);
    };
    auto spans = [&](Stage stage) {
        add(stage, spanSink_.stageHistogram(stage));
    };
    engine(Stage::Queue);
    engine(Stage::CacheProbe);
    spans(Stage::Compile);
    spans(Stage::Stitch);
    spans(Stage::Simulate);
    engine(Stage::Report);
    spans(Stage::Respond);
    engine(Stage::Backoff);
    add(Stage::Job, stageHist_[static_cast<int>(Stage::Job)], "e2e");
    return doc;
}

telem::MetricSample
JobEngine::metricsSnapshot() const
{
    telem::MetricSample sample;
    sample.atUs = spanSink_.nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Metric &m : metricsLocked()) {
        std::string name = m.path;
        std::replace(name.begin(), name.end(), '.', '_');
        if (m.kind == StatKind::Counter)
            sample.counters.emplace_back(std::move(name), m.value);
        else
            sample.gauges.emplace_back(std::move(name),
                                       static_cast<double>(m.value));
    }

    using telem::Stage;
    // Engine-recorded stages only: compile/stitch/simulate stay
    // report material, so a snapshot reads no sink state.
    for (Stage stage : {Stage::Queue, Stage::CacheProbe, Stage::Report,
                        Stage::Backoff})
        sample.histograms.emplace_back(
            telem::stageName(stage),
            stageHist_[static_cast<int>(stage)]);
    sample.histograms.emplace_back(
        "e2e", stageHist_[static_cast<int>(Stage::Job)]);
    return sample;
}

std::string
JobEngine::expositionText(double uptimeS,
                          std::uint64_t served) const
{
    telem::ExpositionExtras extras;
    extras.uptimeS = uptimeS;
    extras.served = served;
    const obs::Json build = obs::buildInfoJson();
    extras.buildInfo = &build;
    obs::Json sloStatus;
    if (slo_) {
        sloStatus = slo_->statusJson();
        extras.sloStatus = &sloStatus;
    }
    return telem::prometheusText(metricsSnapshot(), extras);
}

void
JobEngine::recordProtocolFailure(const std::string &message)
{
    if (!flight_)
        return;
    std::uint64_t traceId = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // High bit keeps the synthetic index clear of job ids.
        traceId = telem::traceIdFor(
            traceSeed_,
            (1ull << 63) | protocolFailures_++);
    }
    flight_->attach(traceId, /*jobId=*/-1);
    flight_->event(traceId, spanSink_.nowUs(), "protocol_error",
                   message);
    const obs::Json build = obs::buildInfoJson();
    flight_->dump(traceId, "protocol", message, &build);
}

void
JobEngine::flushRemoteCache()
{
    if (remote_)
        remote_->flush();
}

void
JobEngine::setOrganSections(obs::Json &doc) const
{
    if (slo_) {
        obs::Json slo = obs::Json::object();
        slo.set("objectives", slo_->statusJson());
        slo.set("violations", slo_->violations());
        slo.set("alerts_raised", slo_->alertsRaised());
        slo.set("alerts_active", slo_->alertsActive());
        doc.set("slo", std::move(slo));
    }
    if (collector_)
        doc.set("series", collector_->series().toJson());
    if (flight_)
        doc.set("flight", flight_->statsJson());
}

obs::Json
JobEngine::serviceReportJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    obs::Json doc = obs::Json::object();
    doc.set("schema", serviceReportSchema);
    doc.set("version", serviceReportVersion);
    doc.set("jobs", static_cast<std::uint64_t>(jobs_.size()));
    doc.set("telemetry", options_.telemetry);
    obs::Json counters = obs::Json::object();
    counters.set("svc", metricTree(metricsLocked(), "",
                                   /*flagsAsBool=*/false));
    doc.set("counters", std::move(counters));
    doc.set("latency", latencyJson());
    if (options_.telemetry)
        doc.set("spans", spanSink_.rollupJson());
    // v3: provenance on every service report; the continuous-
    // telemetry sections only when their organ is armed.
    doc.set("build", obs::buildInfoJson());
    setOrganSections(doc);
    return doc;
}

obs::Json
JobEngine::livenessJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    obs::Json doc = obs::Json::object();
    doc.set("queue_depth", static_cast<std::uint64_t>(pendingJobs_));
    doc.set("in_flight", static_cast<std::uint64_t>(runningJobs_));
    return doc;
}

obs::Json
JobEngine::introspectionJson() const
{
    const double hitRate = cache_.stats().hitRate();
    obs::Json doc = livenessJson();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<Metric> metrics = metricsLocked();
    obs::Json bands = obs::Json::object();
    for (const auto &[priority, count] : pendingPerBand_)
        bands.set(std::to_string(priority), count);
    doc.set("per_band_backlog", std::move(bands));
    doc.set("jobs", metricTree(metrics, "jobs.", true));

    obs::Json admission = obs::Json::object();
    admission.set("max_queue_depth",
                  static_cast<std::uint64_t>(options_.maxQueueDepth));
    doc.set("resilience", metricTree(metrics, "resilience.", true,
                                     std::move(admission)));

    obs::Json cache = metricTree(metrics, "cache.", true);
    cache.set("hit_rate", hitRate);
    doc.set("cache", std::move(cache));

    if (remote_) {
        obs::Json peers = obs::Json::object();
        peers.set("peers", static_cast<std::uint64_t>(
                               remote_->peers().size()));
        doc.set("remote_cache", metricTree(metrics, "remote_cache.",
                                           true, std::move(peers)));
    }

    doc.set("latency", latencyJson());
    setOrganSections(doc);

    obs::Json errors = obs::Json::array();
    for (const ErrorRecord &record : errorRing_) {
        obs::Json entry = obs::Json::object();
        entry.set("job", record.jobId);
        entry.set("trace_id", telem::traceIdHex(record.traceId));
        entry.set("kind", record.kind);
        entry.set("error", record.error);
        entry.set("at_ms", record.atMs);
        errors.push(std::move(entry));
    }
    doc.set("errors", std::move(errors));
    return doc;
}

} // namespace stitch::svc
