/** @file Compiled-backend (translation cache) tests: the trace IR,
 *  its validator and dumper, the inline-cached memory routing, the
 *  superinstruction fuser, and the byte-exactness of the compiled
 *  dispatch loop against the interpreter oracle — including typed
 *  execution faults and deopt back to the exact regimes. */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/app_runner.hh"
#include "cpu/core.hh"
#include "fault/fault.hh"
#include "isa/assembler.hh"
#include "jit/dump.hh"
#include "jit/translate.hh"
#include "jit/validate.hh"
#include "mem/addrmap.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/report.hh"
#include "sim/system.hh"

namespace stitch
{
namespace
{

using namespace isa::reg;
using isa::Assembler;

constexpr std::int32_t spmAddr =
    static_cast<std::int32_t>(mem::spmBase);
constexpr std::int32_t xbarAddr =
    static_cast<std::int32_t>(mem::xbarConfigAddr);

compiler::RewrittenProgram
wrap(isa::Program prog)
{
    compiler::RewrittenProgram binary;
    binary.program = std::move(prog);
    return binary;
}

/** Word-address → instruction-index map, as the core builds it. */
std::vector<std::int32_t>
wordToIndex(const isa::Program &prog)
{
    std::vector<std::int32_t> map(prog.wordCount(), -1);
    for (std::size_t i = 0; i < prog.code().size(); ++i)
        map[prog.wordAddrOf(i)] = static_cast<std::int32_t>(i);
    return map;
}

/**
 * Run the same program through the step interpreter and the compiled
 * dispatch loop on two independent cores and require every observable —
 * final cycle count, retired instructions, and the whole register
 * file — to agree exactly (the oracle contract of DESIGN.md §15).
 */
struct OraclePair
{
    mem::TileMemory interpMem;
    mem::TileMemory compiledMem;
    cpu::Core interp{0, interpMem, nullptr, nullptr};
    cpu::Core compiled{0, compiledMem, nullptr, nullptr};

    void
    runBoth(const std::function<void(Assembler &)> &build)
    {
        Assembler a("jit_interp");
        build(a);
        interp.loadProgram(a.finish());
        interp.runToHalt();

        Assembler b("jit_compiled");
        build(b);
        compiled.loadProgram(b.finish());
        compiled.runToHaltCompiled();

        EXPECT_EQ(interp.time(), compiled.time());
        EXPECT_EQ(interp.instructionsRetired(),
                  compiled.instructionsRetired());
        for (RegId r = 0; r < numRegs; ++r)
            EXPECT_EQ(interp.reg(r), compiled.reg(r))
                << "register " << r;
    }
};

TEST(JitTranslate, ReloadDropsTheTranslationCache)
{
    mem::TileMemory memory;
    cpu::Core core(0, memory, nullptr, nullptr);
    auto build = [] {
        Assembler a("reload");
        auto loop = a.newLabel();
        a.li(t0, 6);
        a.bind(loop);
        a.addi(t0, t0, -1);
        a.bne(t0, zero, loop);
        a.halt();
        return a.finish();
    };
    core.loadProgram(build());
    core.runToHaltCompiled();
    EXPECT_GT(core.traceCount(), 0u);
    EXPECT_GT(core.jitStats().tracesTranslated, 0u);
    EXPECT_GT(core.jitStats().dispatches, 0u);

    // The cache indexes into the old code image; a reload must drop
    // every trace and restart the stats from zero.
    core.loadProgram(build());
    EXPECT_EQ(core.traceCount(), 0u);
    EXPECT_EQ(core.jitStats().tracesTranslated, 0u);
    EXPECT_EQ(core.jitStats().dispatches, 0u);
    core.runToHaltCompiled();
    EXPECT_GT(core.traceCount(), 0u);
}

TEST(JitExecute, AluLoopMatchesInterpreterExactly)
{
    OraclePair pair;
    pair.runBoth([](Assembler &a) {
        auto loop = a.newLabel();
        a.li(t0, 20);
        a.li(t1, 0);
        a.li(t2, 3);
        a.bind(loop);
        a.add(t1, t1, t0);
        a.mul(t3, t1, t2);
        a.srai(t4, t3, 2);
        a.addi(t0, t0, -1);
        a.bne(t0, zero, loop);
        a.halt();
    });
    EXPECT_GT(pair.compiled.jitStats().dispatches, 1u);
}

TEST(JitExecute, SpmAndDramTrafficMatchesInterpreterExactly)
{
    OraclePair pair;
    pair.runBoth([](Assembler &a) {
        auto loop = a.newLabel();
        a.li(t0, 0x2000); // cached DRAM
        a.li(t1, spmAddr);
        a.li(t2, 8);
        a.bind(loop);
        a.lw(t3, t0, 0);
        a.addi(t3, t3, 7);
        a.sw(t3, t0, 0); // load–op–store over DRAM
        a.sw(t3, t1, 0);
        a.lb(t4, t1, 0); // byte traffic over the scratchpad
        a.sb(t4, t0, 64);
        a.addi(t0, t0, 4);
        a.addi(t2, t2, -1);
        a.bne(t2, zero, loop);
        a.halt();
    });
    EXPECT_GT(pair.compiled.jitStats().superinstructions, 0u);
}

TEST(JitExecute, GuardMissRepredictsWithoutCounterDrift)
{
    // One static load site whose base alternates between the
    // scratchpad and cached DRAM every iteration: the inline cache
    // mispredicts on each execution after the first, repredicts, and
    // must still produce interpreter-exact cycle accounting.
    OraclePair pair;
    pair.runBoth([](Assembler &a) {
        auto loop = a.newLabel();
        a.li(t0, spmAddr);
        a.li(t1, 0x1000);
        a.add(t2, t0, t1); // t2 - base swaps the classes
        a.mov(t4, t0);
        a.li(t5, 8);
        a.bind(loop);
        a.lw(t3, t4, 0);
        a.sub(t4, t2, t4);
        a.addi(t5, t5, -1);
        a.bne(t5, zero, loop);
        a.halt();
    });
    EXPECT_GT(pair.compiled.jitStats().guardMisses, 0u);
}

TEST(JitExecute, XbarConfigStoreRoutesLikeTheInterpreter)
{
    OraclePair pair;
    pair.runBoth([](Assembler &a) {
        a.li(t0, xbarAddr);
        a.li(t1, 0x5a5a);
        a.sw(t1, t0, 0); // no stall, no data-memory traffic
        a.li(t2, 0x2000);
        a.sw(t1, t2, 0); // same site class on a later program point
        a.halt();
    });
    EXPECT_EQ(pair.interp.xbarConfigReg(), 0x5a5au);
    EXPECT_EQ(pair.compiled.xbarConfigReg(), 0x5a5au);
    EXPECT_NE(pair.compiled.dumpJitTraces().find("class=xbar"),
              std::string::npos);
}

TEST(JitExecute, BranchOutOfRangeIsATypedExecutionFault)
{
    auto build = [] {
        Assembler a("wild");
        a.li(t0, 4000);
        a.jalr(ra, t0, 0);
        a.halt();
        return a.finish();
    };
    std::string interpWhat, compiledWhat;
    {
        mem::TileMemory memory;
        cpu::Core core(0, memory, nullptr, nullptr);
        core.loadProgram(build());
        try {
            core.runToHalt();
            FAIL() << "interpreter accepted a wild branch";
        } catch (const fault::ExecutionFaultError &e) {
            interpWhat = e.what();
        }
    }
    {
        mem::TileMemory memory;
        cpu::Core core(0, memory, nullptr, nullptr);
        core.loadProgram(build());
        try {
            core.runToHaltCompiled();
            FAIL() << "compiled backend accepted a wild branch";
        } catch (const fault::ExecutionFaultError &e) {
            compiledWhat = e.what();
        }
    }
    EXPECT_FALSE(interpWhat.empty());
    EXPECT_EQ(interpWhat, compiledWhat);
}

TEST(JitValidate, TranslatorOutputPassesAndCorruptionIsCaught)
{
    Assembler a("val");
    auto loop = a.newLabel();
    a.li(t0, 4);
    a.bind(loop);
    a.lw(t1, t0, 0);
    a.addi(t1, t1, 1);
    a.sw(t1, t0, 0);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, loop);
    a.halt();
    auto prog = a.finish();
    auto w2i = wordToIndex(prog);

    jit::TranslateParams params;
    auto tr = jit::translate(prog, w2i, 0, params);
    std::string why;
    EXPECT_TRUE(
        jit::validateTrace(tr, prog, params.icacheBlockBytes, &why))
        << why;

    // Each corruption must be rejected with a reason, never printed
    // as truth (luajit-remake's validator-before-dump discipline).
    auto corrupt = tr;
    corrupt.uops.front().rd = numRegs;
    EXPECT_FALSE(jit::validateTrace(corrupt, prog,
                                    params.icacheBlockBytes, &why));
    EXPECT_FALSE(why.empty());

    corrupt = tr;
    corrupt.exitWord += 1;
    EXPECT_FALSE(jit::validateTrace(corrupt, prog,
                                    params.icacheBlockBytes, &why));

    corrupt = tr;
    corrupt.uops.front().fetchRepeats += 1;
    EXPECT_FALSE(jit::validateTrace(corrupt, prog,
                                    params.icacheBlockBytes, &why));
}

TEST(JitValidate, FusionIsExactAndOptional)
{
    Assembler a("fuse");
    auto loop = a.newLabel();
    a.li(t0, 0x400);
    a.li(t1, 4);
    a.bind(loop);
    a.lw(t2, t0, 0);
    a.addi(t2, t2, 5);
    a.sw(t2, t0, 0);
    a.addi(t1, t1, -1);
    a.bne(t1, zero, loop);
    a.halt();
    auto prog = a.finish();
    auto w2i = wordToIndex(prog);
    Addr entry = prog.wordAddrOf(2); // the loop head

    jit::TranslateParams fused;
    auto tr = jit::translate(prog, w2i, entry, fused);
    std::string why;
    ASSERT_TRUE(
        jit::validateTrace(tr, prog, fused.icacheBlockBytes, &why))
        << why;
    bool sawLoadAluStore = false;
    for (const auto &u : tr.uops)
        sawLoadAluStore |= u.kind == jit::UopKind::LoadAluStore;
    EXPECT_TRUE(sawLoadAluStore);

    jit::TranslateParams plain = fused;
    plain.fuse = false;
    auto flat = jit::translate(prog, w2i, entry, plain);
    ASSERT_TRUE(
        jit::validateTrace(flat, prog, plain.icacheBlockBytes, &why))
        << why;
    EXPECT_EQ(flat.instrCount, tr.instrCount);
    EXPECT_GT(flat.uops.size(), tr.uops.size());
    for (const auto &u : flat.uops)
        EXPECT_FALSE(jit::uopIsFused(u.kind));
}

TEST(JitDump, RendersTracesAndFlagsInvalidOnes)
{
    Assembler a("dump");
    a.li(t0, 9);
    a.lw(t1, t0, 0);
    a.halt();
    auto prog = a.finish();
    auto w2i = wordToIndex(prog);
    jit::TranslateParams params;
    auto tr = jit::translate(prog, w2i, 0, params);

    std::string text =
        jit::dumpTrace(tr, prog, params.icacheBlockBytes);
    EXPECT_NE(text.find("trace @w0"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);
    EXPECT_EQ(text.find("INVALID"), std::string::npos);

    tr.uops.front().rd = numRegs;
    text = jit::dumpTrace(tr, prog, params.icacheBlockBytes);
    EXPECT_NE(text.find("INVALID TRACE"), std::string::npos);
}

TEST(JitSystem, SendRecvRunsOnTheOracleWithIdenticalReports)
{
    auto runOnce = [](sim::SchedulerKind kind) {
        sim::SystemParams params;
        params.accel = sim::AccelMode::None;
        params.scheduler = kind;
        sim::System system(params);
        Assembler a("ping");
        auto loop = a.newLabel();
        a.li(t0, 1);  // peer tile
        a.li(t1, 16); // rounds
        a.li(t2, 7);
        a.bind(loop);
        a.send(t2, t0, 0);
        a.recv(t2, t0, 1);
        a.addi(t1, t1, -1);
        a.bne(t1, zero, loop);
        a.halt();
        Assembler b("pong");
        auto bloop = b.newLabel();
        b.li(t0, 0);
        b.li(t1, 16);
        b.bind(bloop);
        b.recv(t2, t0, 0);
        b.addi(t2, t2, 1);
        b.send(t2, t0, 1);
        b.addi(t1, t1, -1);
        b.bne(t1, zero, bloop);
        b.halt();
        system.loadProgram(0, wrap(a.finish()));
        system.loadProgram(1, wrap(b.finish()));
        auto stats = system.run();
        return std::make_pair(sim::runReport(stats).dump(2),
                              system.dumpTraces());
    };
    auto step = runOnce(sim::SchedulerKind::Step);
    auto compiled = runOnce(sim::SchedulerKind::Compiled);
    EXPECT_EQ(step.first, compiled.first);
    // The comm ops themselves single-step on the oracle, but the
    // loop bodies around them really did run from the cache.
    EXPECT_TRUE(step.second.empty());
    EXPECT_FALSE(compiled.second.empty());
}

TEST(JitSystem, ActiveInjectorDeoptsToTheExactRegime)
{
    auto runOnce = [](const fault::FaultPlan &plan) {
        sim::SystemParams params;
        params.accel = sim::AccelMode::None;
        params.scheduler = sim::SchedulerKind::Compiled;
        params.faults = plan;
        sim::System system(params);
        Assembler a("busy");
        auto loop = a.newLabel();
        a.li(t0, 32);
        a.bind(loop);
        a.addi(t0, t0, -1);
        a.bne(t0, zero, loop);
        a.halt();
        system.loadProgram(0, wrap(a.finish()));
        system.run();
        return system.dumpTraces();
    };
    // Healthy: the compiled regime engages and leaves traces behind.
    EXPECT_FALSE(runOnce(fault::FaultPlan{}).empty());
    // An active injector consumes pseudo-random draws in global event
    // order, so the run must fall back wholesale: no traces at all.
    EXPECT_TRUE(runOnce(fault::FaultPlan::bitFlips(0.01, 7)).empty());
}

TEST(JitSystem, FiniteBudgetDeoptsAndCutsAtTheSameInstruction)
{
    auto runOnce = [](sim::SchedulerKind kind) {
        sim::SystemParams params;
        params.accel = sim::AccelMode::None;
        params.scheduler = kind;
        sim::System system(params);
        for (TileId t = 0; t < 2; ++t) {
            Assembler a("spin");
            auto loop = a.newLabel();
            a.bind(loop);
            a.addi(t0, t0, 1);
            a.jmp(loop);
            a.halt();
            system.loadProgram(t, wrap(a.finish()));
        }
        auto stats = system.run(/*maxInstructions=*/777);
        return std::make_pair(sim::runReport(stats).dump(2),
                              system.dumpTraces());
    };
    auto step = runOnce(sim::SchedulerKind::Step);
    auto compiled = runOnce(sim::SchedulerKind::Compiled);
    EXPECT_EQ(step.first, compiled.first);
    EXPECT_TRUE(compiled.second.empty()); // budget forces deopt
}

/**
 * Parity tests cannot see a silent fallback to the interpreter (the
 * outputs are byte-identical), so count translations instead: a
 * default-constructed SystemParams must dispatch compiled, and every
 * deopt condition must leave the translation cache empty.
 */
TEST(JitSystem, DefaultParamsDispatchCompiledUnlessObserved)
{
    auto traces = [](sim::SystemParams params,
                     std::uint64_t budget =
                         sim::System::runawayInstructionBudget) {
        sim::System system(params);
        Assembler a("busy");
        auto loop = a.newLabel();
        a.li(t0, 32);
        a.bind(loop);
        a.addi(t0, t0, -1);
        a.bne(t0, zero, loop);
        a.halt();
        system.loadProgram(0, wrap(a.finish()));
        auto stats = system.run(budget);
        EXPECT_EQ(stats.termination, fault::Termination::Completed);
        return system.coreAt(0).traceCount();
    };

    EXPECT_GT(traces(sim::SystemParams{}), 0u);

    const std::string path = testing::TempDir() + "jit_deopt_trace.json";
    obs::Tracer::instance().start(path);
    EXPECT_EQ(traces(sim::SystemParams{}), 0u);
    obs::Tracer::instance().stop();
    std::remove(path.c_str());

    obs::Sampler::instance().start(1000);
    EXPECT_EQ(traces(sim::SystemParams{}), 0u);
    obs::Sampler::instance().stop();

    sim::SystemParams faulty;
    faulty.faults = fault::FaultPlan::bitFlips(0.01, 7);
    EXPECT_EQ(traces(faulty), 0u);

    EXPECT_EQ(traces(sim::SystemParams{}, /*budget=*/1'000'000), 0u);
}

TEST(JitSystem, DefaultAppRunDispatchesCompiled)
{
    apps::AppRunner runner(1, 2);
    apps::RunConfig config;
    config.dumpTraces = true;
    auto res = runner.run(apps::app1Gesture(), apps::AppMode::Stitch,
                          config);
    EXPECT_EQ(res.stats.termination, fault::Termination::Completed);
    EXPECT_NE(res.traceDump.find("trace @w"), std::string::npos);
}

TEST(JitSystem, CrashTerminationIsIdenticalAcrossSchedulers)
{
    std::vector<std::pair<fault::Termination, std::string>> outcomes;
    for (auto kind :
         {sim::SchedulerKind::Step, sim::SchedulerKind::Compiled}) {
        sim::SystemParams params;
        params.accel = sim::AccelMode::None;
        params.scheduler = kind;
        sim::System system(params);
        Assembler a("crash");
        a.li(t0, 4000);
        a.jalr(ra, t0, 0);
        a.halt();
        system.loadProgram(0, wrap(a.finish()));
        auto stats = system.run();
        outcomes.emplace_back(stats.termination, stats.faultMessage);
    }
    for (const auto &[termination, message] : outcomes) {
        EXPECT_EQ(termination, fault::Termination::Fault);
        EXPECT_EQ(message, outcomes.front().second);
        EXPECT_NE(message.find("tile 0 crashed"), std::string::npos);
    }
}

} // namespace
} // namespace stitch
