/** @file Application-graph and end-to-end runner tests (Fig. 9 /
 *  Fig. 12 shapes), and the runner's run memo. */

#include <thread>

#include <gtest/gtest.h>

#include "apps/app_runner.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "svc/artifacts.hh"

namespace stitch::apps
{
namespace
{

TEST(AppSpecs, AllHaveSixteenStagesAndValidEdges)
{
    for (const auto &app : allApps()) {
        EXPECT_EQ(app.stageKernels.size(), 16u) << app.name;
        for (const auto &edge : app.edges) {
            EXPECT_GE(edge.from, 0);
            EXPECT_LT(edge.from, 16);
            EXPECT_GE(edge.to, 0);
            EXPECT_LT(edge.to, 16);
            EXPECT_NE(edge.from, edge.to);
        }
        // At most one edge per ordered pair (tags are fixed at 0).
        std::set<std::pair<int, int>> seen;
        for (const auto &edge : app.edges)
            EXPECT_TRUE(seen.insert({edge.from, edge.to}).second)
                << app.name;
        // Channel fan-in/out must fit the comm tables (4 each)...
        for (int k = 0; k < 16; ++k) {
            EXPECT_LE(app.inDegree(k), 8) << app.name;
            EXPECT_LE(app.outDegree(k), 8) << app.name;
        }
    }
}

TEST(AppSpecs, GraphsAreAcyclic)
{
    for (const auto &app : allApps()) {
        // Kahn's algorithm.
        std::vector<int> indeg(16, 0);
        for (const auto &e : app.edges)
            ++indeg[static_cast<std::size_t>(e.to)];
        std::vector<int> ready;
        for (int k = 0; k < 16; ++k)
            if (indeg[static_cast<std::size_t>(k)] == 0)
                ready.push_back(k);
        int removed = 0;
        while (!ready.empty()) {
            int v = ready.back();
            ready.pop_back();
            ++removed;
            for (const auto &e : app.edges)
                if (e.from == v &&
                    --indeg[static_cast<std::size_t>(e.to)] == 0)
                    ready.push_back(e.to);
        }
        EXPECT_EQ(removed, 16) << app.name << " has a cycle";
    }
}

TEST(AppSpecs, KernelNamesExistInCatalog)
{
    for (const auto &app : allApps())
        for (const auto &name : app.stageKernels)
            EXPECT_NO_THROW(kernels::kernelByName(name)) << name;
}

TEST(AppModeNames, Stable)
{
    EXPECT_STREQ(appModeName(AppMode::Baseline), "baseline");
    EXPECT_STREQ(appModeName(AppMode::Stitch), "Stitch");
}

/** End-to-end: every app improves under every accelerated mode and
 *  the paper's ordering holds. Compilation results are cached inside
 *  the runner, so one fixture serves all apps. */
class AppEndToEnd : public ::testing::TestWithParam<int>
{
  protected:
    static AppRunner &
    runner()
    {
        static AppRunner instance(2, 6);
        return instance;
    }
};

TEST_P(AppEndToEnd, ModeOrderingMatchesThePaper)
{
    auto app = allApps()[static_cast<std::size_t>(GetParam())];
    auto base = runner().run(app, AppMode::Baseline);
    auto locus = runner().run(app, AppMode::Locus);
    auto noFusion = runner().run(app, AppMode::StitchNoFusion);
    auto full = runner().run(app, AppMode::Stitch);

    double b = base.perSampleCycles();
    EXPECT_GT(b, 0.0);
    // Everyone beats the baseline.
    EXPECT_LT(locus.perSampleCycles(), b);
    EXPECT_LT(noFusion.perSampleCycles(), b);
    EXPECT_LT(full.perSampleCycles(), b);
    // Fusion never hurts relative to no-fusion.
    EXPECT_LE(full.perSampleCycles(),
              noFusion.perSampleCycles() * 1.01);
    // Stitch at least matches LOCUS (paper Fig. 12).
    EXPECT_LE(full.perSampleCycles(),
              locus.perSampleCycles() * 1.02);

    // The Stitch plan is well-formed.
    ASSERT_TRUE(full.hasPlan);
    std::string why;
    EXPECT_TRUE(full.plan.snoc.validate(&why)) << why;

    // Messages flow in every mode.
    EXPECT_GT(full.stats.messages, 0u);
    EXPECT_EQ(full.stats.messages, base.stats.messages);
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppEndToEnd,
                         ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int> &i) {
                             return allApps()[static_cast<std::size_t>(
                                                  i.param)]
                                 .name.substr(0, 4);
                         });

TEST(AppEndToEndExtra, App2GainsMost)
{
    AppRunner runner(2, 6);
    double best = 0;
    std::string which;
    for (const auto &app : allApps()) {
        auto base = runner.run(app, AppMode::Baseline);
        auto full = runner.run(app, AppMode::Stitch);
        double boost =
            base.perSampleCycles() / full.perSampleCycles();
        if (boost > best) {
            best = boost;
            which = app.name;
        }
    }
    // Paper Section VI-C: APP2 (and APP4) gain the most; APP2's
    // imbalance makes it the winner in our reproduction.
    EXPECT_EQ(which, "APP2-cnn");
    EXPECT_GT(best, 2.0);
}

// ---------------------------------------------------------------- //
// The run memo (DESIGN.md §10.1)

constexpr AppMode allModes[] = {AppMode::Baseline, AppMode::Locus,
                                AppMode::StitchNoFusion,
                                AppMode::Stitch};

std::string
fullReport(const AppRunResult &res)
{
    return svc::appReportJson(res).dump();
}

TEST(RunMemo, HitReportsAreByteIdenticalToFreshRuns)
{
    AppRunner memoized(2, 4);
    for (const auto &app : allApps()) {
        for (AppMode mode : allModes) {
            const std::string first = fullReport(memoized.run(app, mode));
            const RunMemoStats before = memoized.runMemoStats();
            const std::string again = fullReport(memoized.run(app, mode));
            const RunMemoStats after = memoized.runMemoStats();
            EXPECT_EQ(after.hits, before.hits + 2)
                << app.name << " " << appModeName(mode);
            EXPECT_EQ(after.misses, before.misses);

            // A fresh runner has nothing memoised: it simulates.
            AppRunner fresh(2, 4);
            const std::string simulated = fullReport(fresh.run(app, mode));
            EXPECT_EQ(fresh.runMemoStats().hits, 0u);
            EXPECT_EQ(again, simulated)
                << app.name << " " << appModeName(mode);
            EXPECT_EQ(first, simulated)
                << app.name << " " << appModeName(mode);
        }
    }
}

TEST(RunMemo, EveryBypassReasonSimulatesAndLeavesHitsUnchanged)
{
    AppRunner runner(1, 2);
    const AppSpec app = app3SvmEncrypt();
    const AppRunResult reference = runner.run(app, AppMode::Baseline);
    ASSERT_EQ(runner.runMemoStats().misses, 2u);

    auto expectBypass = [&](MemoBypass reason, const RunConfig &config) {
        const RunMemoStats before = runner.runMemoStats();
        const AppRunResult res = runner.run(app, AppMode::Baseline, config);
        const RunMemoStats after = runner.runMemoStats();
        const auto r = static_cast<std::size_t>(reason);
        EXPECT_EQ(after.hits, before.hits) << memoBypassName(reason);
        EXPECT_EQ(after.misses, before.misses) << memoBypassName(reason);
        EXPECT_EQ(after.entries, before.entries) << memoBypassName(reason);
        EXPECT_EQ(after.bypassed[r], before.bypassed[r] + 2)
            << memoBypassName(reason);
        return res;
    };

    RunConfig step = runner.config();
    step.scheduler = sim::SchedulerKind::Step;
    EXPECT_EQ(fullReport(expectBypass(MemoBypass::Step, step)),
              fullReport(reference));

    RunConfig slice = runner.config();
    slice.scheduler = sim::SchedulerKind::Slice;
    EXPECT_EQ(fullReport(expectBypass(MemoBypass::Slice, slice)),
              fullReport(reference));

    RunConfig budget = runner.config();
    budget.maxInstructions = 500;
    EXPECT_EQ(expectBypass(MemoBypass::Budget, budget).stats.termination,
              fault::Termination::InstructionLimit);

    RunConfig faults = runner.config();
    faults.faults = fault::FaultPlan::messageDelay(0.5, 3, 7);
    expectBypass(MemoBypass::Fault, faults);

    RunConfig unhealthy = runner.config();
    unhealthy.health =
        fault::ArchHealth::fromPlan(fault::FaultPlan::patchFailure(3));
    expectBypass(MemoBypass::Unhealthy, unhealthy);

    RunConfig dump = runner.config();
    dump.dumpTraces = true;
    EXPECT_FALSE(expectBypass(MemoBypass::DumpTraces, dump)
                     .traceDump.empty());

    obs::Tracer::instance().start(::testing::TempDir() +
                                  "stitch_run_memo_trace.json");
    expectBypass(MemoBypass::Tracer, runner.config());
    obs::Tracer::instance().stop();

    obs::Sampler::instance().start(1000);
    expectBypass(MemoBypass::Sampler, runner.config());
    obs::Sampler::instance().stop();

    // With every observer gone the default path hits again.
    const RunMemoStats before = runner.runMemoStats();
    EXPECT_EQ(fullReport(runner.run(app, AppMode::Baseline)),
              fullReport(reference));
    EXPECT_EQ(runner.runMemoStats().hits, before.hits + 2);
}

TEST(RunMemo, DeadlineAbortedRunIsNotStoredAndHitsHonourTheFlag)
{
    AppRunner runner(1, 2);
    const AppSpec app = app3SvmEncrypt();
    const std::atomic<bool> tripped{true};
    RunConfig aborted = runner.config();
    aborted.abortFlag = &tripped;

    EXPECT_THROW(runner.run(app, AppMode::Baseline, aborted),
                 fault::DeadlineExceededError);
    EXPECT_EQ(runner.runMemoStats().entries, 0u);
    EXPECT_EQ(runner.runMemoStats().misses, 1u);

    // Stored now; a hit must still refuse a tripped flag.
    runner.run(app, AppMode::Baseline);
    ASSERT_EQ(runner.runMemoStats().entries, 2u);
    EXPECT_THROW(runner.run(app, AppMode::Baseline, aborted),
                 fault::DeadlineExceededError);
    EXPECT_EQ(runner.runMemoStats().hits, 1u);
}

TEST(RunMemo, ConcurrentRunsShareOneMemo)
{
    // Workers race on the same machines: concurrent duplicate misses
    // simulate twice but store once, and every report matches a
    // serial run.
    const AppSpec app = app3SvmEncrypt();
    AppRunner serial(1, 3);
    std::vector<std::string> want;
    for (AppMode mode : allModes)
        want.push_back(fullReport(serial.run(app, mode)));

    AppRunner shared(1, 3);
    std::vector<std::string> got(4 * std::size(allModes));
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w)
        workers.emplace_back([&, w] {
            for (std::size_t m = 0; m < std::size(allModes); ++m)
                got[static_cast<std::size_t>(w) * std::size(allModes) +
                    m] = fullReport(shared.run(app, allModes[m]));
        });
    for (auto &worker : workers)
        worker.join();
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i % std::size(allModes)]) << i;
    const RunMemoStats stats = shared.runMemoStats();
    EXPECT_EQ(stats.entries, serial.runMemoStats().entries);
    EXPECT_EQ(stats.hits + stats.misses, 2 * got.size());
}

TEST(RunMemo, FillingPastTheCapEvictsLeastRecentlyUsed)
{
    // An empty machine simulates in no time, and every sample count
    // is a distinct key.
    AppRunner runner;
    const MachineDesc empty;
    const RunConfig config = runner.config();
    const int cap = static_cast<int>(AppRunner::runMemoCapacity);
    for (int n = 1; n <= cap; ++n)
        runner.simulate(empty, n, config);
    EXPECT_EQ(runner.runMemoStats().entries, AppRunner::runMemoCapacity);
    EXPECT_EQ(runner.runMemoStats().evictions, 0u);

    runner.simulate(empty, 1, config); // refresh the oldest entry
    for (int n = cap + 1; n <= cap + 3; ++n)
        runner.simulate(empty, n, config);
    RunMemoStats stats = runner.runMemoStats();
    EXPECT_EQ(stats.entries, AppRunner::runMemoCapacity);
    EXPECT_EQ(stats.evictions, 3u);
    EXPECT_EQ(stats.hits, 1u);

    // 1 survived (recently used); 2..4 were evicted.
    runner.simulate(empty, 1, config);
    EXPECT_EQ(runner.runMemoStats().hits, 2u);
    runner.simulate(empty, 2, config);
    EXPECT_EQ(runner.runMemoStats().hits, 2u);
    EXPECT_EQ(runner.runMemoStats().entries, AppRunner::runMemoCapacity);
}

} // namespace
} // namespace stitch::apps
