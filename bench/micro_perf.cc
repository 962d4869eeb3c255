/**
 * @file
 * A3: google-benchmark microbenchmarks of the simulator and compiler
 * infrastructure itself (host-side throughput, not simulated
 * cycles) — useful for keeping the tool chain fast enough to sweep.
 */

#include <benchmark/benchmark.h>

#include "bench/bench_common.hh"
#include "compiler/profiler.hh"
#include "core/patch.hh"
#include "core/snoc.hh"
#include "cpu/core.hh"
#include "mem/addrmap.hh"

namespace
{

using namespace stitch;

/** Simulated instructions per second of the core interpreter. */
void
BM_CoreInterpreter(benchmark::State &state)
{
    auto input = kernels::kernelByName("fir").build({});
    mem::TileMemory memory;
    cpu::Core core(0, memory, nullptr, nullptr);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        core.loadProgram(input.program);
        core.runToHalt();
        instructions += core.instructionsRetired();
    }
    state.counters["sim_instr/s"] = benchmark::Counter(
        static_cast<double>(instructions),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreInterpreter);

/**
 * Single-core dispatch throughput of the step interpreter, in the
 * same "mips" units as the system-level benches so the two core
 * dispatch regimes compare directly.
 */
void
BM_CoreDispatch(benchmark::State &state)
{
    auto input = kernels::kernelByName("fir").build({});
    mem::TileMemory memory;
    cpu::Core core(0, memory, nullptr, nullptr);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        core.loadProgram(input.program);
        core.runToHalt();
        instructions += core.instructionsRetired();
    }
    state.counters["mips"] = benchmark::Counter(
        static_cast<double>(instructions) * 1e-6,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreDispatch);

/**
 * The same kernel through the translation-cached compiled backend.
 * Each iteration reloads the program — which drops the translation
 * cache — so this number includes translating every block from
 * scratch, the cost a real run pays once per program load.
 */
void
BM_CoreDispatchCompiled(benchmark::State &state)
{
    auto input = kernels::kernelByName("fir").build({});
    mem::TileMemory memory;
    cpu::Core core(0, memory, nullptr, nullptr);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        core.loadProgram(input.program);
        core.runToHaltCompiled();
        instructions += core.instructionsRetired();
    }
    state.counters["mips_compiled"] = benchmark::Counter(
        static_cast<double>(instructions) * 1e-6,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreDispatchCompiled);

/** Full compile-and-measure of one kernel across all 13 targets. */
void
BM_CompileKernel(benchmark::State &state)
{
    auto input = kernels::kernelByName("update").build({});
    for (auto _ : state) {
        auto compiled = compiler::compileKernel("update", input);
        benchmark::DoNotOptimize(compiled.variants.size());
    }
}
BENCHMARK(BM_CompileKernel)->Unit(benchmark::kMillisecond);

/** Profiling pass alone. */
void
BM_ProfileKernel(benchmark::State &state)
{
    auto input = kernels::kernelByName("fft").build({});
    for (auto _ : state) {
        auto prof = compiler::profileProgram(input.program);
        benchmark::DoNotOptimize(prof.totalCycles);
    }
}
BENCHMARK(BM_ProfileKernel)->Unit(benchmark::kMicrosecond);

/** One fused patch evaluation (the per-CUST simulator cost). */
void
BM_FusedPatchExecute(benchmark::State &state)
{
    core::FusedConfig cfg;
    cfg.localKind = core::PatchKind::ATMA;
    cfg.local.a1op = core::AluOp::Pass;
    cfg.local.u1Lhs = core::U1Lhs::In1;
    cfg.local.u1Rhs = core::U1Rhs::In2;
    cfg.local.aop2 = core::AluOp::Add;
    cfg.local.outCfg = core::OutCfg::S2;
    cfg.usesRemote = true;
    cfg.remoteKind = core::PatchKind::ATAS;
    cfg.remote.a1op = core::AluOp::Pass;
    cfg.remote.outCfg = core::OutCfg::S1;
    core::NullSpmPort null1;

    class Dummy : public core::SpmPort
    {
      public:
        Word load(Addr) override { return 7; }
        void store(Addr, Word) override {}
    } spm;

    std::array<Word, 4> in = {1, 2, 3, 4};
    for (auto _ : state) {
        auto res = core::executeCustom(cfg, in, spm, &null1);
        benchmark::DoNotOptimize(res.rd0);
        in[1] += res.rd0;
    }
}
BENCHMARK(BM_FusedPatchExecute);

/** Compiler-time sNoC routing (Algorithm 1's FindPath). */
void
BM_SnocFusionRouting(benchmark::State &state)
{
    auto arch = stitch::core::StitchArch::standard();
    for (auto _ : state) {
        core::SnocConfig snoc;
        int routed = 0;
        for (TileId t = 0; t < numTiles; t += 2)
            routed += snoc.addFusion(t, arch.kindOf(t), t + 1,
                                     arch.kindOf(t + 1))
                          .has_value();
        benchmark::DoNotOptimize(routed);
    }
}
BENCHMARK(BM_SnocFusionRouting)->Unit(benchmark::kMicrosecond);

/**
 * Sixteen-tile application simulation (APP3, baseline mode): the
 * machine is prepared once outside the timed loop, and each iteration
 * runs the simulate step for the short and the long run — never the
 * run memo, which would turn every iteration after the first into a
 * lookup. Counts the long runs' instructions, as AppRunner::run's
 * throughput measurement would.
 */
void
simulateApp3(benchmark::State &state, sim::SchedulerKind scheduler,
             const char *counter)
{
    apps::AppRunner runner(2, 4);
    runner.setScheduler(scheduler);
    const apps::RunConfig config = runner.config();
    const apps::PreparedRun prep = runner.prepare(
        apps::app3SvmEncrypt(), apps::AppMode::Baseline, config);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        auto shortRun = apps::simulateMachine(prep.machine, 2, config);
        auto longRun = apps::simulateMachine(prep.machine, 4, config);
        instructions += longRun.instructions;
        benchmark::DoNotOptimize(shortRun.makespan);
        benchmark::DoNotOptimize(longRun.makespan);
    }
    state.counters[counter] = benchmark::Counter(
        static_cast<double>(instructions) * 1e-6,
        benchmark::Counter::kIsRate);
}

/**
 * The slice interpreter, pinned regardless of --scheduler so the
 * bench trajectory's "mips" (millions of simulated instructions per
 * host second) stays the interpreter half of the mips/mips_compiled
 * pair.
 */
void
BM_SystemSimulation(benchmark::State &state)
{
    simulateApp3(state, sim::SchedulerKind::Slice, "mips");
}
BENCHMARK(BM_SystemSimulation)->Unit(benchmark::kMillisecond);

/**
 * The same simulation under the compiled scheduler, the default path.
 * Its "mips_compiled" counter is the headline simulator-throughput
 * number: the trajectory tracks it next to BM_SystemSimulation/mips,
 * and the two runs are byte-identical by the parity tests.
 */
void
BM_SystemSimulationCompiled(benchmark::State &state)
{
    simulateApp3(state, sim::SchedulerKind::Compiled, "mips_compiled");
}
BENCHMARK(BM_SystemSimulationCompiled)->Unit(benchmark::kMillisecond);

/**
 * Capture every run's headline numbers into the shared stitch-bench
 * metrics map, so `micro_perf --json=PATH` emits the same schema as
 * the table/figure harnesses and the trajectory aggregator treats
 * host-side throughput like any other tracked metric. Counters reach
 * the reporter already rate-adjusted.
 */
class MetricCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            std::string name = run.benchmark_name();
            bench::recordMetric(name + "/real_time_ns",
                                run.GetAdjustedRealTime());
            for (const auto &[counter, value] : run.counters)
                bench::recordMetric(name + "/" + counter,
                                    value.value);
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::benchName() = "micro_perf";
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i)
        if (i == 0 || !bench::parseJsonFlag(argv[i]))
            args.push_back(argv[i]);
    int filtered = static_cast<int>(args.size());
    benchmark::Initialize(&filtered, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered, args.data()))
        return 1;
    MetricCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    bench::writeBenchJson();
    return 0;
}
