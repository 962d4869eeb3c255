/**
 * @file
 * Service-layer tests: the stitch-job schema (strict parsing,
 * canonical form, cache key), the content-addressed ResultCache
 * (LRU, disk persistence, stamp and spec-echo invalidation), the
 * JobEngine (priority order, dedup, typed failures, cancellation,
 * worker-count invariance, admission control, the run memo's
 * per-machine dedup and its metrics) and the stitchd wire
 * protocol (in-process localhost round-trip plus adversarial
 * framing: oversize prefixes, mid-frame disconnects, garbage bytes,
 * stalled clients — every violation must answer typed, never crash
 * or wedge the daemon). Crash-safety of the disk cache (atomic
 * writes, recovery scan, memory-only degradation) lives here too;
 * the chaos-injection machinery itself is tested in test_chaos.cc.
 */

#include <arpa/inet.h>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <set>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "svc/cache.hh"
#include "svc/engine.hh"
#include "svc/job.hh"
#include "svc/server.hh"

namespace stitch::svc
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "stitch_svc_" + name;
    fs::remove_all(dir);
    return dir;
}

obs::Json
minimalJob(const std::string &app = "APP1-gesture")
{
    obs::Json doc = obs::Json::object();
    doc.set("schema", jobSchema);
    doc.set("version", jobSchemaVersion);
    doc.set("app", app);
    return doc;
}

/** A cheap spec (smallest legal sample window) for engine tests. */
JobSpec
cheapSpec(apps::AppMode mode = apps::AppMode::Baseline)
{
    JobSpec spec;
    spec.app = "APP1-gesture";
    spec.mode = mode;
    spec.samplesShort = 1;
    spec.samplesLong = 2;
    return spec;
}

// ---------------------------------------------------------------- //
// stitch-job schema

TEST(JobSchema, MinimalDocMaterializesDefaults)
{
    JobSpec spec = JobSpec::fromJson(minimalJob());
    EXPECT_EQ(spec.app, "APP1-gesture");
    EXPECT_EQ(spec.mode, apps::AppMode::Stitch);
    EXPECT_EQ(spec.policy, compiler::StitchPolicy::Auto);
    EXPECT_EQ(spec.scheduler, sim::SchedulerKind::Compiled);
    EXPECT_EQ(spec.samplesShort, 4);
    EXPECT_EQ(spec.samplesLong, 12);
    EXPECT_EQ(spec.maxInstructions, 0u);
    EXPECT_FALSE(spec.healthFromFaults);
    EXPECT_FALSE(spec.artifacts.profile);
}

TEST(JobSchema, RoundTripsThroughToJson)
{
    obs::Json doc = minimalJob("APP3");
    doc.set("name", "label");
    doc.set("priority", 3);
    doc.set("mode", "stitch_no_fusion");
    doc.set("samples_short", 2);
    doc.set("samples_long", 5);
    obs::Json faults = obs::Json::object();
    faults.set("patch_dead", obs::Json::array());
    faults.set("msg_drop_prob", 0.25);
    doc.set("faults", faults);

    JobSpec spec = JobSpec::fromJson(doc);
    EXPECT_EQ(spec.app, "APP3-svm-enc"); // prefix resolved
    JobSpec again = JobSpec::fromJson(spec.toJson());
    EXPECT_EQ(again.name, "label");
    EXPECT_EQ(again.priority, 3);
    EXPECT_EQ(spec.canonicalJson().dump(),
              again.canonicalJson().dump());
    EXPECT_EQ(spec.cacheKey(), again.cacheKey());
}

TEST(JobSchema, StrictParsingRejectsBadDocuments)
{
    // Unknown key (the typo guard).
    obs::Json doc = minimalJob();
    doc.set("schedular", "slice");
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);

    // Wrong schema stamp / version.
    doc = minimalJob();
    doc.set("schema", "stitch-jobs");
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);
    doc = minimalJob();
    doc.set("version", 99);
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);

    // Missing / unknown / ambiguous app.
    doc = minimalJob();
    EXPECT_THROW(JobSpec::fromJson(obs::Json::object()),
                 fault::ConfigError);
    EXPECT_THROW(JobSpec::fromJson(minimalJob("nope")),
                 fault::ConfigError);
    EXPECT_THROW(JobSpec::fromJson(minimalJob("APP")),
                 fault::ConfigError); // matches all four

    // Wrong field types and bad values.
    doc = minimalJob();
    doc.set("mode", 3);
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);
    doc = minimalJob();
    doc.set("mode", "turbo");
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);
    doc = minimalJob();
    doc.set("priority", -1.0); // negative numbers parse as Double
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);
    doc = minimalJob();
    doc.set("samples_short", 5);
    doc.set("samples_long", 5); // need short < long
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);
}

TEST(JobSchema, FaultPlanValidationIsEager)
{
    obs::Json doc = minimalJob();
    obs::Json faults = obs::Json::object();
    obs::Json dead = obs::Json::array();
    dead.push(static_cast<std::uint64_t>(numTiles)); // off-mesh tile
    faults.set("patch_dead", dead);
    doc.set("faults", faults);
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);

    doc = minimalJob();
    faults = obs::Json::object();
    obs::Json links = obs::Json::array();
    links.push("t0-t99");
    faults.set("links_down", links);
    doc.set("faults", faults);
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);

    doc = minimalJob();
    faults = obs::Json::object();
    faults.set("msg_drop_prob", 1.5); // not a probability
    doc.set("faults", faults);
    EXPECT_THROW(JobSpec::fromJson(doc), fault::ConfigError);
}

TEST(JobSchema, CacheKeyIgnoresPresentationFields)
{
    JobSpec a = cheapSpec();
    JobSpec b = a;
    b.name = "a different label";
    b.priority = 42;
    EXPECT_EQ(a.canonicalJson().dump(), b.canonicalJson().dump());
    EXPECT_EQ(a.cacheKey(), b.cacheKey());

    // Every simulation-relevant field must move the key.
    JobSpec c = a;
    c.policy = compiler::StitchPolicy::Greedy;
    EXPECT_NE(a.cacheKey(), c.cacheKey());
    JobSpec d = a;
    d.faults = fault::FaultPlan::patchFailure(3);
    EXPECT_NE(a.cacheKey(), d.cacheKey());
    JobSpec e = a;
    e.maxInstructions = 1000;
    EXPECT_NE(a.cacheKey(), e.cacheKey());
}

TEST(JobSchema, SchedulerRoundTripsButStaysOutOfCacheIdentity)
{
    obs::Json doc = minimalJob();
    doc.set("scheduler", "step");
    JobSpec spec = JobSpec::fromJson(doc);
    EXPECT_EQ(spec.scheduler, sim::SchedulerKind::Step);
    EXPECT_EQ(JobSpec::fromJson(spec.toJson()).scheduler,
              sim::SchedulerKind::Step);
    EXPECT_FALSE(spec.canonicalJson().has("scheduler"));

    // Every scheduler yields byte-identical reports, so which one
    // runs a job cannot change its cache identity.
    JobSpec bare = JobSpec::fromJson(minimalJob());
    EXPECT_EQ(bare.canonicalJson().dump(),
              spec.canonicalJson().dump());
    EXPECT_EQ(bare.cacheKey(), spec.cacheKey());
}

TEST(JobSchema, DeadlineRoundTripsButStaysOutOfCacheIdentity)
{
    obs::Json doc = minimalJob();
    doc.set("deadline_ms", 250);
    JobSpec spec = JobSpec::fromJson(doc);
    EXPECT_EQ(spec.deadlineMs, 250u);
    JobSpec again = JobSpec::fromJson(spec.toJson());
    EXPECT_EQ(again.deadlineMs, 250u);

    // A service property like priority: two jobs differing only in
    // deadline describe the same simulation and share a cache entry.
    JobSpec bare = JobSpec::fromJson(minimalJob());
    EXPECT_EQ(bare.canonicalJson().dump(),
              spec.canonicalJson().dump());
    EXPECT_EQ(bare.cacheKey(), spec.cacheKey());

    // ... and stays distinct from the max_instructions work budget,
    // which IS simulation-relevant.
    JobSpec budget = bare;
    budget.maxInstructions = 777;
    EXPECT_NE(bare.cacheKey(), budget.cacheKey());
}

TEST(JobSchema, HashBytesAvalanches)
{
    EXPECT_EQ(hashBytes("stitch"), hashBytes("stitch"));
    EXPECT_NE(hashBytes("stitch"), hashBytes("stitcH"));
    EXPECT_NE(hashBytes(""), hashBytes(std::string(1, '\0')));
}

// ---------------------------------------------------------------- //
// ResultCache

CacheEntry
dummyEntry(const std::string &tag)
{
    CacheEntry entry;
    entry.report = obs::Json::object();
    entry.report.set("tag", tag);
    entry.derived = obs::Json::object();
    entry.derived.set("tag", tag);
    return entry;
}

TEST(ResultCache, MemoryLayerRoundTripsAndTracksLru)
{
    ResultCache cache("", /*memEntries=*/1);
    JobSpec a = cheapSpec();
    JobSpec b = cheapSpec(apps::AppMode::Stitch);

    EXPECT_FALSE(cache.lookup(a).has_value());
    cache.store(a, dummyEntry("a"));
    auto hit = cache.lookup(a);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->report.get("tag").asString(), "a");

    // Capacity one: storing b evicts a.
    cache.store(b, dummyEntry("b"));
    EXPECT_FALSE(cache.lookup(a).has_value());
    EXPECT_TRUE(cache.lookup(b).has_value());

    auto stats = cache.stats();
    EXPECT_EQ(stats.memHits, 2u);
    EXPECT_EQ(stats.stores, 2u);
}

TEST(ResultCache, MemoryLayerIsKeyedByTheCanonicalForm)
{
    ResultCache cache; // memory only
    JobSpec spec = cheapSpec();
    cache.store(spec, dummyEntry("stored"));

    // A field outside the identity still hits...
    JobSpec urgent = spec;
    urgent.priority = 7;
    auto hit = cache.lookup(urgent);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->report.get("tag").asString(), "stored");

    // ...one inside it misses.
    JobSpec longer = spec;
    longer.samplesLong = 3;
    EXPECT_FALSE(cache.lookup(longer).has_value());

    // The index is the canonical form itself, not its 64-bit hash.
    EXPECT_TRUE(cache.memLookup(spec.canonicalJson().dump()));
    EXPECT_FALSE(cache.memLookup(spec.cacheKey()));
}

TEST(ResultCache, DiskLayerPersistsAcrossInstances)
{
    const std::string dir = scratchDir("disk");
    JobSpec spec = cheapSpec();
    {
        ResultCache cache(dir);
        cache.store(spec, dummyEntry("persisted"));
    }
    ResultCache fresh(dir);
    auto hit = fresh.lookup(spec);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->report.get("tag").asString(), "persisted");
    EXPECT_EQ(fresh.stats().diskHits, 1u);
    // The disk hit was promoted into memory.
    EXPECT_TRUE(fresh.lookup(spec).has_value());
    EXPECT_EQ(fresh.stats().memHits, 1u);
}

TEST(ResultCache, StaleStampInvalidatesEntry)
{
    const std::string dir = scratchDir("stamp");
    JobSpec spec = cheapSpec();
    ResultCache cache(dir);
    cache.store(spec, dummyEntry("stale"));

    // Doctor the stored stamp: a version bump must retire the entry.
    const std::string path = dir + "/" + spec.cacheKey() + ".json";
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::string stamp = cacheStamp();
    auto at = text.find(stamp);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, stamp.size(), "job0-report0-engine0");
    std::ofstream(path) << text;

    ResultCache fresh(dir);
    EXPECT_FALSE(fresh.lookup(spec).has_value());
    EXPECT_EQ(fresh.stats().invalidated, 1u);
    EXPECT_EQ(fresh.stats().diskHits, 0u);
}

TEST(ResultCache, SpecEchoMismatchDegradesToMiss)
{
    const std::string dir = scratchDir("echo");
    JobSpec a = cheapSpec();
    JobSpec b = cheapSpec(apps::AppMode::Stitch);
    ResultCache cache(dir);
    cache.store(a, dummyEntry("a"));

    // Simulate a hash collision: b's key file holds a's entry.
    fs::copy_file(dir + "/" + a.cacheKey() + ".json",
                  dir + "/" + b.cacheKey() + ".json");
    ResultCache fresh(dir);
    EXPECT_FALSE(fresh.lookup(b).has_value());
    EXPECT_EQ(fresh.stats().invalidated, 1u);
    // The honest entry still hits.
    EXPECT_TRUE(fresh.lookup(a).has_value());
}

TEST(ResultCache, CorruptFileIsAMissNotAnError)
{
    const std::string dir = scratchDir("corrupt");
    JobSpec spec = cheapSpec();
    ResultCache cache(dir);
    cache.store(spec, dummyEntry("x"));
    std::ofstream(dir + "/" + spec.cacheKey() + ".json")
        << "{ not json";
    // The startup recovery scan quarantines the unparseable entry,
    // so the lookup is a plain miss — not an error, not a late
    // invalidation.
    ResultCache fresh(dir);
    EXPECT_EQ(fresh.stats().quarantined, 1u);
    EXPECT_FALSE(fresh.lookup(spec).has_value());
    EXPECT_EQ(fresh.stats().invalidated, 0u);
}

// ---------------------------------------------------------------- //
// ResultCache crash safety (atomic writes, recovery, degradation)

TEST(ResultCache, StoresAreAtomicAndLeaveNoTempFiles)
{
    const std::string dir = scratchDir("atomic");
    ResultCache cache(dir);
    cache.store(cheapSpec(), dummyEntry("a"));
    cache.store(cheapSpec(apps::AppMode::Stitch), dummyEntry("b"));

    int entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        EXPECT_EQ(e.path().extension(), ".json") << e.path();
        ++entries;
    }
    EXPECT_EQ(entries, 2);
}

TEST(ResultCache, RecoveryScanSweepsOrphansAndQuarantinesTornEntries)
{
    const std::string dir = scratchDir("recover");
    JobSpec good = cheapSpec();
    {
        ResultCache cache(dir);
        cache.store(good, dummyEntry("good"));
    }
    // A crashed writer's leftovers: an orphaned temp file and an
    // entry truncated mid-write at its *final* path.
    std::ofstream(dir + "/deadbeef.0.tmp") << "{ \"partial\": ";
    std::ofstream(dir + "/0123456789abcdef.json")
        << "{ \"schema\": \"stitch-cache-en";

    ResultCache fresh(dir);
    const auto stats = fresh.stats();
    EXPECT_EQ(stats.tmpSwept, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_FALSE(fs::exists(dir + "/deadbeef.0.tmp"));
    EXPECT_FALSE(fs::exists(dir + "/0123456789abcdef.json"));
    EXPECT_TRUE(
        fs::exists(dir + "/0123456789abcdef.json.quarantine"));
    // The healthy entry survived the scan and still serves.
    EXPECT_TRUE(fresh.lookup(good).has_value());
}

TEST(ResultCache, WriteFailuresDegradeToMemoryOnlyMode)
{
    const std::string dir = scratchDir("degrade");
    JobSpec early = cheapSpec();
    {
        ResultCache seeded(dir);
        seeded.store(early, dummyEntry("early"));
    }

    const ServiceFaultPlan plan =
        ServiceFaultPlan::cacheWriteFailures(1.0, 42);
    const ServiceFaultInjector injector(plan);
    ResultCache cache(dir);
    cache.setFaultInjector(&injector);

    JobSpec specs[3] = {cheapSpec(apps::AppMode::Stitch),
                        cheapSpec(apps::AppMode::Locus), cheapSpec()};
    specs[2].samplesLong = 3;
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(cache.memoryOnly());
        cache.store(specs[i], dummyEntry("x"));
    }
    // writeFailureLimit consecutive losses trip memory-only mode;
    // nothing threw, nothing was written to disk.
    EXPECT_TRUE(cache.memoryOnly());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.writeFailures, ResultCache::writeFailureLimit);
    EXPECT_TRUE(stats.degraded);
    for (const auto &spec : specs)
        EXPECT_FALSE(
            fs::exists(dir + "/" + spec.cacheKey() + ".json"));

    // Degraded means disk *writes* stop; the memory layer still
    // round-trips and entries already on disk still read.
    EXPECT_TRUE(cache.lookup(specs[0]).has_value());
    EXPECT_TRUE(cache.lookup(early).has_value());
}

TEST(ResultCache, TornWriteInjectionLeavesQuarantinableEntry)
{
    const std::string dir = scratchDir("torn");
    const ServiceFaultPlan plan =
        ServiceFaultPlan::tornCacheEntries(1.0, 7);
    const ServiceFaultInjector injector(plan);
    JobSpec spec = cheapSpec();
    {
        ResultCache cache(dir);
        cache.setFaultInjector(&injector);
        cache.store(spec, dummyEntry("torn"));
        EXPECT_EQ(cache.stats().tornWrites, 1u);
    }
    // The torn file sits at the final path — exactly what a crash
    // between write and rename leaves. A restart must quarantine it.
    ASSERT_TRUE(fs::exists(dir + "/" + spec.cacheKey() + ".json"));
    ResultCache fresh(dir);
    EXPECT_EQ(fresh.stats().quarantined, 1u);
    EXPECT_FALSE(fresh.lookup(spec).has_value());
}

// ---------------------------------------------------------------- //
// JobEngine

TEST(JobEngine, PriorityOrdersClaimsAndDuplicatesCoalesce)
{
    // One worker, two submissions of the same spec at different
    // priorities: the high-priority job must be claimed first (and
    // simulate); the earlier, low-priority one then hits the cache.
    JobEngine engine;
    const int low = engine.submit(cheapSpec());
    JobSpec urgent = cheapSpec();
    urgent.priority = 10;
    const int high = engine.submit(urgent);
    engine.run();

    EXPECT_EQ(engine.result(high).status,
              JobResult::Status::Completed);
    EXPECT_FALSE(engine.result(high).cached);
    EXPECT_EQ(engine.result(low).status,
              JobResult::Status::Completed);
    EXPECT_TRUE(engine.result(low).cached);
    EXPECT_EQ(engine.result(low).report.dump(),
              engine.result(high).report.dump());
}

TEST(JobEngine, JobsDifferingOnlyInSchedulerShareOneSimulation)
{
    // The same APP1 job under step, slice and the default scheduler:
    // the first claim simulates, the other two are cache hits, and
    // all three reports are byte-identical.
    JobEngine engine;
    std::vector<int> ids;
    for (const char *scheduler : {"step", "slice", ""}) {
        obs::Json doc = minimalJob();
        doc.set("mode", "baseline");
        doc.set("samples_short", 1);
        doc.set("samples_long", 2);
        if (*scheduler)
            doc.set("scheduler", scheduler);
        ids.push_back(engine.submit(JobSpec::fromJson(doc)));
    }
    engine.run();

    for (int id : ids)
        ASSERT_EQ(engine.result(id).status,
                  JobResult::Status::Completed);
    EXPECT_FALSE(engine.result(ids[0]).cached);
    EXPECT_TRUE(engine.result(ids[1]).cached);
    EXPECT_TRUE(engine.result(ids[2]).cached);
    for (int id : ids)
        EXPECT_EQ(engine.result(id).report.dump(),
                  engine.result(ids[0]).report.dump());

    obs::Json report = engine.serviceReportJson();
    const obs::Json &jobs =
        report.get("counters").get("svc").get("jobs");
    EXPECT_EQ(jobs.get("simulated").asUint(), 1u);
    EXPECT_EQ(jobs.get("cache_hits").asUint(), 2u);
}

/** Counter `name` of a metrics snapshot (0 when absent). */
std::uint64_t
snapshotCounter(const telem::MetricSample &sample, const std::string &name)
{
    for (const auto &[key, value] : sample.counters)
        if (key == name)
            return value;
    return 0;
}

/** What distinguishes one prepared machine, independent of
 *  MachineDesc::key: the accelerator fabric and the stitch plan. */
std::string
planIdentity(const apps::PreparedRun &prep, apps::AppMode mode)
{
    if (!prep.hasPlan)
        return apps::appModeName(mode);
    std::string id = "stitch";
    for (const auto &p : prep.plan.placements)
        id += detail::formatMessage(
            "|", p.tile, ":", p.accel ? p.accel->name() : "sw", ">",
            p.remoteTile);
    for (const auto &path : prep.plan.snoc.paths()) {
        id += "|path";
        for (TileId t : path.tiles)
            id += detail::formatMessage(",", t);
    }
    return id;
}

TEST(JobEngine, WindowSweepSimulatesEachDistinctMachineOnce)
{
    // Overlapping windows (one window's long run is another's short
    // run) and policies that stitch the same plan: the memo must end
    // up with exactly one entry per distinct (plan, samples) pair.
    const std::pair<int, int> windows[] = {{1, 2}, {1, 3}, {2, 3}};
    const std::pair<apps::AppMode, compiler::StitchPolicy> configs[] = {
        {apps::AppMode::Baseline, compiler::StitchPolicy::Auto},
        {apps::AppMode::Locus, compiler::StitchPolicy::Auto},
        {apps::AppMode::StitchNoFusion, compiler::StitchPolicy::Auto},
        {apps::AppMode::StitchNoFusion, compiler::StitchPolicy::Greedy},
        {apps::AppMode::StitchNoFusion,
         compiler::StitchPolicy::SinglesOnly},
        {apps::AppMode::Stitch, compiler::StitchPolicy::Auto},
        {apps::AppMode::Stitch, compiler::StitchPolicy::Greedy},
        {apps::AppMode::Stitch, compiler::StitchPolicy::SinglesOnly},
    };

    EngineOptions options;
    options.jobs = 1;
    JobEngine engine(options);
    apps::AppRunner planner;
    std::set<std::pair<std::string, int>> distinct;
    int jobs = 0;
    for (const auto &[mode, policy] : configs) {
        JobSpec spec = cheapSpec(mode);
        spec.policy = policy;
        const apps::RunConfig config = spec.runConfig();
        const std::string plan =
            planIdentity(planner.prepare(spec.resolveApp(), mode, config),
                         mode);
        for (const auto &[ss, sl] : windows) {
            spec.samplesShort = ss;
            spec.samplesLong = sl;
            engine.submit(spec);
            ++jobs;
            distinct.insert({plan, ss});
            distinct.insert({plan, sl});
        }
    }
    // A budgeted job simulates around the memo and says why.
    JobSpec budgeted = cheapSpec();
    budgeted.maxInstructions = 500;
    engine.submit(budgeted);
    engine.run();

    const telem::MetricSample sample = engine.metricsSnapshot();
    double entries = -1;
    for (const auto &[name, value] : sample.gauges)
        if (name == "run_memo_entries")
            entries = value;
    EXPECT_EQ(entries, static_cast<double>(distinct.size()));
    EXPECT_LT(distinct.size(), static_cast<std::size_t>(2 * jobs));
    EXPECT_EQ(snapshotCounter(sample, "run_memo_misses"), distinct.size());
    EXPECT_EQ(snapshotCounter(sample, "run_memo_hits") +
                  snapshotCounter(sample, "run_memo_misses"),
              static_cast<std::uint64_t>(2 * jobs));
    EXPECT_EQ(snapshotCounter(sample, "run_memo_evictions"), 0u);
    EXPECT_EQ(snapshotCounter(sample, "run_memo_bypassed_budget"), 2u);

    // The same numbers reach the service report and the scrape.
    const obs::Json memo = engine.serviceReportJson()
                               .get("counters")
                               .get("svc")
                               .get("run_memo");
    EXPECT_EQ(memo.get("entries").asUint(), distinct.size());
    EXPECT_EQ(memo.get("hits").asUint(),
              snapshotCounter(sample, "run_memo_hits"));
    EXPECT_EQ(memo.get("bypassed").get("budget").asUint(), 2u);
    const std::string scrape = engine.expositionText();
    EXPECT_NE(scrape.find(detail::formatMessage(
                  "stitch_run_memo_misses_total ", distinct.size(), "\n")),
              std::string::npos);
    EXPECT_NE(scrape.find("stitch_run_memo_entries "), std::string::npos);
    EXPECT_NE(scrape.find("stitch_run_memo_bypassed_budget_total 2\n"),
              std::string::npos);
}

TEST(JobEngine, TypedFailureDoesNotSinkTheBatch)
{
    // The naive half of a dead-link fault scenario: the healthy plan
    // routes over the dead link, so the run is rejected with a
    // ConfigError *inside the worker* — after submit-time validation
    // passed. The batch must finish; the failure must be typed.
    JobEngine engine;
    JobSpec good = cheapSpec();
    JobSpec naive;
    naive.app = "APP3-svm-enc";
    naive.mode = apps::AppMode::Stitch;
    naive.samplesShort = 1;
    naive.samplesLong = 2;
    for (const auto &link : fault::allSnocLinks())
        if (link.name() == "t9-t10")
            naive.faults = fault::FaultPlan::linkFailure(link);
    naive.healthFromFaults = false; // keep the healthy plan
    const int ok = engine.submit(good);
    const int bad = engine.submit(naive);
    engine.run();

    EXPECT_EQ(engine.result(ok).status, JobResult::Status::Completed);
    ASSERT_EQ(engine.result(bad).status, JobResult::Status::Failed);
    EXPECT_EQ(engine.result(bad).errorKind, "config");
    EXPECT_FALSE(engine.result(bad).error.empty());

    // Eager validation: an invalid spec never reaches the queue.
    JobSpec invalid = cheapSpec();
    invalid.app = "no-such-app";
    EXPECT_THROW(engine.submit(invalid), fault::ConfigError);
}

TEST(JobEngine, CancelMidQueueSkipsTheJob)
{
    JobEngine engine;
    const int first = engine.submit(cheapSpec());
    JobSpec other = cheapSpec(apps::AppMode::Locus);
    const int middle = engine.submit(other);
    const int last = engine.submit(cheapSpec()); // dup of first
    EXPECT_TRUE(engine.cancel(middle));
    EXPECT_FALSE(engine.cancel(middle)); // already cancelled
    engine.run();

    EXPECT_EQ(engine.result(first).status,
              JobResult::Status::Completed);
    EXPECT_EQ(engine.result(middle).status,
              JobResult::Status::Cancelled);
    EXPECT_EQ(engine.result(last).status,
              JobResult::Status::Completed);
    EXPECT_FALSE(engine.cancel(first)); // finished jobs stay put

    obs::Json report = engine.serviceReportJson();
    const obs::Json &jobs =
        report.get("counters").get("svc").get("jobs");
    EXPECT_EQ(jobs.get("cancelled").asUint(), 1u);
    EXPECT_EQ(jobs.get("completed").asUint(), 2u);
    EXPECT_EQ(jobs.get("simulated").asUint(), 1u);
    EXPECT_EQ(jobs.get("cache_hits").asUint(), 1u);
}

TEST(JobEngine, ResultsDoNotDependOnWorkerCount)
{
    auto runBatch = [](int workers) {
        EngineOptions options;
        options.jobs = workers;
        JobEngine engine(options);
        std::vector<int> ids;
        ids.push_back(engine.submit(cheapSpec()));
        ids.push_back(
            engine.submit(cheapSpec(apps::AppMode::Stitch)));
        ids.push_back(engine.submit(cheapSpec())); // duplicate
        JobSpec app2 = cheapSpec();
        app2.app = "APP2-cnn";
        ids.push_back(engine.submit(app2));
        engine.run();
        std::vector<std::pair<std::string, bool>> out;
        for (int id : ids) {
            const JobResult &r = engine.result(id);
            out.emplace_back(r.report.dump() + r.derived.dump(),
                             r.cached);
        }
        return out;
    };
    auto serial = runBatch(1);
    auto threaded = runBatch(4);
    EXPECT_EQ(serial, threaded);
}

TEST(JobEngine, InstructionBudgetMapsToInstructionLimit)
{
    JobEngine engine;
    JobSpec spec = cheapSpec();
    spec.maxInstructions = 500; // far too few to finish a sample
    const int id = engine.submit(spec);
    engine.run();
    const JobResult &result = engine.result(id);
    ASSERT_EQ(result.status, JobResult::Status::Completed);
    EXPECT_EQ(result.derived.get("termination").asString(),
              "instruction-limit");
}

TEST(JobEngine, WarmDiskCacheSimulatesNothing)
{
    const std::string dir = scratchDir("engine_disk");
    EngineOptions options;
    options.cacheDir = dir;
    auto counters = [](JobEngine &engine) {
        obs::Json report = engine.serviceReportJson();
        const obs::Json &jobs =
            report.get("counters").get("svc").get("jobs");
        return std::make_pair(jobs.get("simulated").asUint(),
                              jobs.get("cache_hits").asUint());
    };
    std::string coldReport;
    {
        JobEngine engine(options);
        const int id = engine.submit(cheapSpec());
        engine.run();
        coldReport = engine.result(id).report.dump();
        EXPECT_EQ(counters(engine),
                  std::make_pair(std::uint64_t{1}, std::uint64_t{0}));
    }
    {
        JobEngine engine(options); // fresh process, warm disk
        const int id = engine.submit(cheapSpec());
        engine.run();
        EXPECT_TRUE(engine.result(id).cached);
        EXPECT_EQ(engine.result(id).report.dump(), coldReport);
        EXPECT_EQ(counters(engine),
                  std::make_pair(std::uint64_t{0}, std::uint64_t{1}));
    }
}

// ---------------------------------------------------------------- //
// Admission control

TEST(JobEngine, FullQueueRejectsEqualPriorityWithTypedError)
{
    EngineOptions options;
    options.maxQueueDepth = 2;
    JobEngine engine(options);
    engine.submit(cheapSpec());
    engine.submit(cheapSpec(apps::AppMode::Stitch));
    // Same band as the lowest pending job: no one to shed, typed
    // rejection — never a silent drop.
    EXPECT_THROW(engine.submit(cheapSpec(apps::AppMode::Locus)),
                 OverloadedError);

    engine.run();
    obs::Json report = engine.serviceReportJson();
    const obs::Json &res =
        report.get("counters").get("svc").get("resilience");
    EXPECT_EQ(res.get("rejected").asUint(), 1u);
    EXPECT_EQ(res.get("shed").asUint(), 0u);
}

TEST(JobEngine, HigherPriorityShedsOldestLowestBandJob)
{
    EngineOptions options;
    options.maxQueueDepth = 2;
    JobEngine engine(options);
    const int victim = engine.submit(cheapSpec());
    const int survivor =
        engine.submit(cheapSpec(apps::AppMode::Stitch));
    JobSpec urgent = cheapSpec(apps::AppMode::Locus);
    urgent.priority = 5;
    const int vip = engine.submit(urgent); // sheds `victim`

    const JobResult &shed = engine.result(victim);
    EXPECT_EQ(shed.status, JobResult::Status::Shed);
    EXPECT_EQ(shed.errorKind, "overloaded");
    EXPECT_FALSE(shed.error.empty());

    engine.run();
    EXPECT_EQ(engine.result(survivor).status,
              JobResult::Status::Completed);
    EXPECT_EQ(engine.result(vip).status,
              JobResult::Status::Completed);
    // Shed stays shed — a later run() must not resurrect it.
    EXPECT_EQ(engine.result(victim).status,
              JobResult::Status::Shed);

    obs::Json report = engine.serviceReportJson();
    const obs::Json &res =
        report.get("counters").get("svc").get("resilience");
    EXPECT_EQ(res.get("shed").asUint(), 1u);
    const obs::Json &jobs =
        report.get("counters").get("svc").get("jobs");
    EXPECT_EQ(jobs.get("shed").asUint(), 1u);
}

TEST(JobEngine, UnboundedQueueNeverRejects)
{
    JobEngine engine; // maxQueueDepth = 0: the seed behaviour
    for (int i = 0; i < 16; ++i) {
        JobSpec spec = cheapSpec();
        spec.samplesLong = 2 + i % 3;
        EXPECT_NO_THROW(engine.submit(spec));
    }
    engine.run();
}

// ---------------------------------------------------------------- //
// stitchd wire protocol

TEST(Server, LocalhostRoundTrip)
{
    EngineOptions options;
    JobEngine engine(options);
    Server server(engine, /*port=*/0);
    ASSERT_GT(server.port(), 0);
    std::thread loop([&] { server.serve(/*maxRequests=*/3); });

    obs::Json job = minimalJob();
    job.set("mode", "baseline");
    job.set("samples_short", 1);
    job.set("samples_long", 2);

    obs::Json first = requestReport("127.0.0.1", server.port(), job);
    EXPECT_EQ(first.get("status").asString(), "ok");
    EXPECT_FALSE(first.get("cached").asBool());
    EXPECT_EQ(first.get("report").get("schema").asString(),
              "stitch-run-report");

    // The same job again: served from the engine's cache, same bytes.
    obs::Json second = requestReport("127.0.0.1", server.port(), job);
    EXPECT_TRUE(second.get("cached").asBool());
    EXPECT_EQ(first.get("report").dump(),
              second.get("report").dump());

    // A malformed job document answers with a typed error, and the
    // daemon keeps serving.
    obs::Json bad = minimalJob("no-such-app");
    obs::Json error = requestReport("127.0.0.1", server.port(), bad);
    EXPECT_EQ(error.get("status").asString(), "error");
    EXPECT_EQ(error.get("error_kind").asString(), "config");

    loop.join();
}

// ---------------------------------------------------------------- //
// stitchd frame hardening (adversarial clients)

/** Raw TCP client for speaking *broken* protocol at the server. */
int
rawConnect(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
rawWrite(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Read one length-prefixed response frame and parse it. */
obs::Json
rawReadResponse(int fd)
{
    auto readFully = [&](void *data, std::size_t len) {
        char *p = static_cast<char *>(data);
        while (len > 0) {
            ssize_t n = ::read(fd, p, len);
            if (n <= 0)
                return false;
            p += n;
            len -= static_cast<std::size_t>(n);
        }
        return true;
    };
    std::uint32_t len = 0;
    if (!readFully(&len, sizeof len))
        return obs::Json();
    len = ntohl(len);
    std::string payload(len, '\0');
    if (len > 0 && !readFully(payload.data(), len))
        return obs::Json();
    return obs::Json::parse(payload);
}

/** Run `client` against a fresh single-request server and return the
 *  typed response it provoked. */
obs::Json
provokeResponse(ServerOptions options,
                const std::function<void(int fd)> &client)
{
    EngineOptions engineOptions;
    JobEngine engine(engineOptions);
    Server server(engine, /*port=*/0, options);
    std::thread loop([&] { server.serve(/*maxRequests=*/1); });
    int fd = rawConnect(server.port());
    EXPECT_GE(fd, 0);
    client(fd);
    obs::Json response = rawReadResponse(fd);
    ::close(fd);
    loop.join();
    return response;
}

TEST(ServerHardening, OversizeLengthPrefixAnswersProtocolError)
{
    ServerOptions options;
    options.maxFrameBytes = 1024;
    obs::Json response = provokeResponse(options, [](int fd) {
        std::uint32_t evil = htonl(1u << 30); // promises a gigabyte
        rawWrite(fd, &evil, sizeof evil);
    });
    ASSERT_TRUE(response.isObject());
    EXPECT_EQ(response.get("status").asString(), "error");
    EXPECT_EQ(response.get("error_kind").asString(), "protocol");
    EXPECT_NE(response.get("error").asString().find("1024"),
              std::string::npos);
}

TEST(ServerHardening, MidFrameDisconnectAnswersProtocolError)
{
    // Promise 100 bytes, deliver 10, half-close. SHUT_WR lets this
    // side still read the server's verdict.
    obs::Json response = provokeResponse({}, [](int fd) {
        std::uint32_t len = htonl(100);
        rawWrite(fd, &len, sizeof len);
        rawWrite(fd, "0123456789", 10);
        ::shutdown(fd, SHUT_WR);
    });
    ASSERT_TRUE(response.isObject());
    EXPECT_EQ(response.get("status").asString(), "error");
    EXPECT_EQ(response.get("error_kind").asString(), "protocol");
}

TEST(ServerHardening, TruncatedPrefixAnswersProtocolError)
{
    obs::Json response = provokeResponse({}, [](int fd) {
        rawWrite(fd, "\x00\x00", 2); // half a length prefix
        ::shutdown(fd, SHUT_WR);
    });
    ASSERT_TRUE(response.isObject());
    EXPECT_EQ(response.get("status").asString(), "error");
    EXPECT_EQ(response.get("error_kind").asString(), "protocol");
}

TEST(ServerHardening, GarbageBytesInValidFrameAnswerConfigError)
{
    obs::Json response = provokeResponse({}, [](int fd) {
        const std::string garbage = "\x7f\x01\x02 not json at all";
        std::uint32_t len =
            htonl(static_cast<std::uint32_t>(garbage.size()));
        rawWrite(fd, &len, sizeof len);
        rawWrite(fd, garbage.data(), garbage.size());
    });
    ASSERT_TRUE(response.isObject());
    EXPECT_EQ(response.get("status").asString(), "error");
    EXPECT_EQ(response.get("error_kind").asString(), "config");
}

TEST(ServerHardening, StalledClientTimesOutWithProtocolError)
{
    ServerOptions options;
    options.readTimeoutMs = 50;
    obs::Json response = provokeResponse(options, [](int) {
        // Connect and say nothing: the serve loop must unwedge
        // itself after readTimeoutMs and answer typed.
    });
    ASSERT_TRUE(response.isObject());
    EXPECT_EQ(response.get("status").asString(), "error");
    EXPECT_EQ(response.get("error_kind").asString(), "protocol");
    EXPECT_NE(response.get("error").asString().find("timed out"),
              std::string::npos);
}

TEST(ServerHardening, ServerKeepsServingAfterAdversarialConnection)
{
    EngineOptions engineOptions;
    JobEngine engine(engineOptions);
    Server server(engine, /*port=*/0);
    std::thread loop([&] { server.serve(/*maxRequests=*/2); });

    // Round 1: abusive client (mid-frame hangup, full close).
    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    std::uint32_t len = htonl(64);
    rawWrite(fd, &len, sizeof len);
    rawWrite(fd, "abc", 3);
    ::close(fd);

    // Round 2: a well-behaved job sails through.
    obs::Json job = minimalJob();
    job.set("mode", "baseline");
    job.set("samples_short", 1);
    job.set("samples_long", 2);
    obs::Json ok = requestReport("127.0.0.1", server.port(), job);
    EXPECT_EQ(ok.get("status").asString(), "ok");
    loop.join();
}

// ---------------------------------------------------------------- //
// artifact writers (obs::openArtifactFile hardening)

TEST(ArtifactWriter, CreatesMissingParentDirectories)
{
    const std::string dir = scratchDir("artifacts");
    const std::string path = dir + "/nested/deeper/report.json";
    obs::Json doc = obs::Json::object();
    doc.set("ok", true);
    obs::writeJsonFile(path, doc);
    ASSERT_TRUE(fs::exists(path));
    EXPECT_TRUE(obs::Json::parse([&] {
                    std::ifstream in(path);
                    return std::string(
                        (std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
                }()).get("ok").asBool());
}

TEST(ArtifactWriter, UnwritablePathThrowsTypedError)
{
    // A path that routes *through a regular file* cannot be created.
    const std::string dir = scratchDir("unwritable");
    fs::create_directories(dir);
    std::ofstream(dir + "/file") << "x";
    obs::Json doc = obs::Json::object();
    EXPECT_THROW(
        obs::writeJsonFile(dir + "/file/sub/report.json", doc),
        fault::ConfigError);
}

} // namespace
} // namespace stitch::svc
