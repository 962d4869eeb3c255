/** @file Scheduler differential tests: the compiled scheduler must be
 *  observably identical to the single-step oracle (reports, stats,
 *  terminations), the run queue must reproduce the linear scan's
 *  pick order, and sweep results must not depend on the worker
 *  count. */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app_runner.hh"
#include "isa/assembler.hh"
#include "sim/report.hh"
#include "sim/sched.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace stitch::sim
{
namespace
{

using namespace isa::reg;
using isa::Assembler;

compiler::RewrittenProgram
wrap(isa::Program prog)
{
    compiler::RewrittenProgram binary;
    binary.program = std::move(prog);
    return binary;
}

/** The v3 run-report document an app run would write to disk. */
std::string
reportOf(const apps::AppRunResult &res)
{
    obs::Json doc = runReport(res.stats);
    if (res.hasPlan)
        doc.set("stitch_plan", stitchPlanJson(res.plan));
    if (!res.statsDump.isNull())
        doc.set("stats", res.statsDump);
    return doc.dump(2);
}

/** Shared runner: kernel compilations are cached across tests. */
apps::AppRunner &
sharedRunner()
{
    static apps::AppRunner runner(2, 4);
    return runner;
}

/** allApps() returns by value; keep one copy alive for the tests. */
const std::vector<apps::AppSpec> &
testApps()
{
    static const auto apps_ = apps::allApps();
    return apps_;
}

apps::AppRunResult
runWith(const apps::AppSpec &app, apps::AppMode mode,
        SchedulerKind kind, const fault::FaultPlan &faults = {})
{
    apps::RunConfig cfg;
    cfg.scheduler = kind;
    cfg.faults = faults;
    return sharedRunner().run(app, mode, cfg);
}

TEST(SchedulerKind, NamesRoundTrip)
{
    EXPECT_STREQ(schedulerKindName(SchedulerKind::Step), "step");
    EXPECT_STREQ(schedulerKindName(SchedulerKind::Compiled),
                 "compiled");
    EXPECT_EQ(schedulerKindFromName("step"), SchedulerKind::Step);
    EXPECT_EQ(schedulerKindFromName("compiled"),
              SchedulerKind::Compiled);
    EXPECT_THROW(schedulerKindFromName("speculative"),
                 fault::ConfigError);
    // Exact slices are the compiled scheduler's internal fallback,
    // not a scheduler: "slice" is rejected, naming the two that are.
    try {
        schedulerKindFromName("slice");
        FAIL() << "\"slice\" is still accepted";
    } catch (const fault::ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find("step|compiled"),
                  std::string::npos)
            << err.what();
    }
}

TEST(RunQueue, PopsByTimeThenTileLikeTheLinearScan)
{
    RunQueue q;
    q.push(5, 30);
    q.push(2, 10);
    q.push(9, 10); // same time as tile 2: lower id wins
    q.push(1, 40);
    ASSERT_EQ(q.size(), 4);
    EXPECT_EQ(q.top(), 2);
    q.pop();
    EXPECT_EQ(q.top(), 9);
    q.pop();
    EXPECT_EQ(q.top(), 5);
    q.pop();
    EXPECT_EQ(q.top(), 1);
    q.pop();
    EXPECT_TRUE(q.empty());
}

TEST(RunQueue, UpdateTopReordersLikePopPush)
{
    RunQueue q;
    q.push(0, 100);
    q.push(1, 105);
    q.push(2, 110);
    EXPECT_EQ(q.top(), 0);
    EXPECT_EQ(q.second().tile, 1);
    q.updateTop(107); // tile 0 advanced past tile 1
    EXPECT_EQ(q.top(), 1);
    q.updateTop(107); // equal times: lower id runs first
    EXPECT_EQ(q.top(), 0);
    q.pop();
    EXPECT_EQ(q.top(), 1);
    EXPECT_TRUE(q.contains(2));
    EXPECT_FALSE(q.contains(7));
}

TEST(RunQueue, RandomizedOpsMatchALinearScanModel)
{
    // The step oracle's pick rule, kept as a model: the runnable tile
    // with the smallest local time, ties to the smallest id — what a
    // linear scan with a strict `<` finds. Seeded sequences of push,
    // pop, updateTop and second() over all 16 tiles, with times drawn
    // from a narrow range so ties are common, must agree with it on
    // every top and second entry.
    struct Model
    {
        std::array<bool, numTiles> queued{};
        std::array<Cycles, numTiles> time{};

        /** Smallest (time, id) key, skipping tile `except`. */
        TileId
        scan(TileId except = -1) const
        {
            TileId pick = -1;
            for (TileId t = 0; t < numTiles; ++t) {
                auto i = static_cast<std::size_t>(t);
                if (!queued[i] || t == except)
                    continue;
                if (pick < 0 ||
                    time[i] < time[static_cast<std::size_t>(pick)])
                    pick = t;
            }
            return pick;
        }
    };

    for (std::uint32_t seed = 1; seed <= 64; ++seed) {
        std::mt19937 rng(seed);
        auto draw = [&](std::uint32_t n) {
            return static_cast<std::uint32_t>(rng() % n);
        };
        RunQueue q;
        Model m;
        Cycles clock = 0;
        for (int op = 0; op < 2000; ++op) {
            const std::uint32_t kind = draw(4);
            if (kind == 0 && q.size() < numTiles) {
                // push a tile that is not queued, near the running
                // clock: a woken receiver re-enters at the time it
                // blocked, which may lie behind the current top
                TileId t;
                do {
                    t = static_cast<TileId>(draw(numTiles));
                } while (m.queued[static_cast<std::size_t>(t)]);
                const Cycles at =
                    clock - std::min<Cycles>(clock, 2) + draw(4);
                q.push(t, at);
                m.queued[static_cast<std::size_t>(t)] = true;
                m.time[static_cast<std::size_t>(t)] = at;
            } else if (kind == 1 && !q.empty()) {
                m.queued[static_cast<std::size_t>(q.top())] = false;
                q.pop();
            } else if (!q.empty()) {
                // the dispatched core's clock advances by 0-3 cycles
                const TileId t = q.top();
                clock = q.topTime() + draw(4);
                q.updateTop(clock);
                m.time[static_cast<std::size_t>(t)] = clock;
            }

            ASSERT_EQ(q.empty(), m.scan() < 0) << "seed " << seed;
            if (q.empty())
                continue;
            const TileId top = m.scan();
            ASSERT_EQ(q.top(), top) << "seed " << seed << " op " << op;
            ASSERT_EQ(q.topTime(), m.time[static_cast<std::size_t>(top)])
                << "seed " << seed << " op " << op;
            for (TileId t = 0; t < numTiles; ++t)
                ASSERT_EQ(q.contains(t),
                          m.queued[static_cast<std::size_t>(t)]);
            if (q.size() > 1) {
                const TileId second = m.scan(top);
                const RunQueue::Entry next = q.second();
                ASSERT_EQ(next.tile, second)
                    << "seed " << seed << " op " << op;
                ASSERT_EQ(next.time,
                          m.time[static_cast<std::size_t>(second)]);
            }
        }
    }
}

TEST(SchedulerParity, ReportsAreByteIdenticalOnAllApps)
{
    const auto modes = {apps::AppMode::Baseline, apps::AppMode::Locus,
                        apps::AppMode::StitchNoFusion,
                        apps::AppMode::Stitch};
    for (const auto &app : testApps()) {
        for (auto mode : modes) {
            auto step = runWith(app, mode, SchedulerKind::Step);
            auto other = runWith(app, mode, SchedulerKind::Compiled);
            EXPECT_EQ(reportOf(step), reportOf(other))
                << app.name << " / " << apps::appModeName(mode);
            EXPECT_EQ(step.stats.makespan, other.stats.makespan);
            EXPECT_EQ(step.stats.instructions, other.stats.instructions);
            EXPECT_EQ(step.stats.messages, other.stats.messages);
        }
    }
}

TEST(SchedulerParity, SeededSoftFaultInjectionIsIdentical)
{
    // An active injector consumes one pseudo-random draw per
    // delivery/CUST in global event order, so the seeded streams —
    // and every downstream number — must line up exactly.
    const auto &app = testApps().front();
    for (const auto &plan :
         {fault::FaultPlan::bitFlips(0.01, 7),
          fault::FaultPlan::messageDelay(0.05, 32, 7)}) {
        auto step =
            runWith(app, apps::AppMode::Stitch, SchedulerKind::Step,
                    plan);
        auto other = runWith(app, apps::AppMode::Stitch,
                             SchedulerKind::Compiled, plan);
        EXPECT_EQ(reportOf(step), reportOf(other));
        EXPECT_EQ(step.stats.custBitFlips, other.stats.custBitFlips);
        EXPECT_EQ(step.stats.messagesDelayed,
                  other.stats.messagesDelayed);
    }
}

TEST(SchedulerParity, DroppedMessageDeadlockDiagnosticsMatch)
{
    const auto &app = testApps().front();
    auto plan = fault::FaultPlan::messageDrop(0.5, 11);
    auto step = runWith(app, apps::AppMode::Stitch,
                        SchedulerKind::Step, plan);
    auto other = runWith(app, apps::AppMode::Stitch,
                         SchedulerKind::Compiled, plan);
    EXPECT_EQ(reportOf(step), reportOf(other));
    EXPECT_EQ(step.stats.termination, other.stats.termination);
    ASSERT_EQ(step.stats.blockedTiles.size(),
              other.stats.blockedTiles.size());
    for (std::size_t i = 0; i < step.stats.blockedTiles.size(); ++i)
        EXPECT_EQ(step.stats.blockedTiles[i].tile,
                  other.stats.blockedTiles[i].tile);
}

TEST(SchedulerParity, DeadlockOnBareSystemMatches)
{
    std::vector<std::string> reports;
    for (auto kind : {SchedulerKind::Step, SchedulerKind::Compiled}) {
        SystemParams params;
        params.accel = AccelMode::None;
        params.scheduler = kind;
        System system(params);
        Assembler a("d0");
        a.li(t1, 1);
        a.recv(t2, t1, 0);
        a.halt();
        Assembler b("d1");
        b.li(t1, 0);
        b.recv(t2, t1, 0);
        b.halt();
        system.loadProgram(0, wrap(a.finish()));
        system.loadProgram(1, wrap(b.finish()));
        auto stats = system.run();
        EXPECT_EQ(stats.termination, fault::Termination::Deadlock);
        reports.push_back(runReport(stats).dump(2));
    }
    EXPECT_EQ(reports[0], reports[1]);
}

TEST(SchedulerParity, InstructionLimitCutsAtTheSameInstruction)
{
    // A finite budget makes the compiled scheduler fall back to exact
    // slices, so even the budget's mid-run cutoff point must agree
    // with the single-step oracle.
    std::vector<RunStats> runs;
    for (auto kind : {SchedulerKind::Step, SchedulerKind::Compiled}) {
        SystemParams params;
        params.accel = AccelMode::None;
        params.scheduler = kind;
        System system(params);
        for (TileId t = 0; t < 4; ++t) {
            Assembler a("loop");
            auto loop = a.newLabel();
            a.bind(loop);
            a.addi(t0, t0, 1);
            a.jmp(loop);
            a.halt();
            system.loadProgram(t, wrap(a.finish()));
        }
        runs.push_back(system.run(/*maxInstructions=*/1000));
    }
    for (const auto &run : runs) {
        EXPECT_EQ(run.termination,
                  fault::Termination::InstructionLimit);
        EXPECT_EQ(run.instructions, 1000u);
        for (TileId t = 0; t < 4; ++t)
            EXPECT_EQ(run.perTile[t].instructions,
                      runs[0].perTile[t].instructions)
                << "tile " << t;
    }
}

TEST(SchedulerParity, DeadPatchFaultTerminationMatches)
{
    // Healthy plan on faulty hardware: the first CUST landing on the
    // dead patch raises Termination::Fault mid-run. Partial stats are
    // order-sensitive, so the compiled scheduler must detect the
    // active injector and fall back to exact slices.
    const auto &apps_ = testApps();
    const auto &app = apps_[apps_.size() > 2 ? 2 : 0];
    auto plan = fault::FaultPlan::patchFailure(0);
    auto step = runWith(app, apps::AppMode::Stitch,
                        SchedulerKind::Step, plan);
    EXPECT_EQ(step.stats.termination, fault::Termination::Fault);
    auto other = runWith(app, apps::AppMode::Stitch,
                         SchedulerKind::Compiled, plan);
    EXPECT_EQ(reportOf(step), reportOf(other));
    EXPECT_EQ(step.stats.faultMessage, other.stats.faultMessage);
}

TEST(SweepRunner, ResultsDoNotDependOnWorkerCount)
{
    auto sweepReports = [](int jobs) {
        SweepRunner sweep(jobs);
        return sweep.map(8, [&](int i) {
            const auto &apps_ = testApps();
            const auto &app = apps_[static_cast<std::size_t>(i) %
                                    apps_.size()];
            auto mode = i % 2 == 0 ? apps::AppMode::Baseline
                                   : apps::AppMode::Stitch;
            return reportOf(sharedRunner().run(app, mode));
        });
    };
    auto serial = sweepReports(1);
    auto threaded = sweepReports(8);
    EXPECT_EQ(serial, threaded);
}

TEST(SweepRunner, LowestIndexExceptionWins)
{
    SweepRunner sweep(4);
    try {
        sweep.map(16, [](int i) {
            if (i == 11)
                throw std::runtime_error("late failure");
            if (i == 3)
                throw std::runtime_error("early failure");
            return i;
        });
        FAIL() << "map() swallowed the worker exceptions";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "early failure");
    }
}

TEST(SweepRunner, EveryTaskThrowingStillRethrowsIndexZero)
{
    // The degenerate concurrent case: all 32 tasks throw at once
    // under 8 workers. The contract is unchanged — the lowest index
    // wins, regardless of which worker failed first in wall time.
    SweepRunner sweep(8);
    try {
        sweep.map(32, [](int i) -> int {
            throw std::runtime_error("task " + std::to_string(i));
        });
        FAIL() << "map() swallowed the worker exceptions";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 0");
    }
}

TEST(SweepRunner, ZeroAndNegativeJobsClampToSerial)
{
    EXPECT_EQ(SweepRunner(0).jobs(), 1);
    EXPECT_EQ(SweepRunner(-3).jobs(), 1);
    auto out = SweepRunner(0).map(3, [](int i) { return i * i; });
    EXPECT_EQ(out, (std::vector<int>{0, 1, 4}));
}

} // namespace
} // namespace stitch::sim
