/**
 * @file
 * End-to-end application execution: compile every stage kernel for
 * every target, stitch (for the Stitch modes), place, wire the
 * message channels, and simulate the 16-tile system.
 *
 * The runner caches compiled kernels by (name, shape) — APP1's six
 * FFT stages compile once — because compile-and-measure across 13
 * targets is the expensive step. It also memoises default-path
 * simulations by exact machine identity (DESIGN.md §10.1): a sweep
 * over sample windows and stitch policies re-runs the same machine
 * many times, and each distinct one is simulated once.
 */

#ifndef STITCH_APPS_APP_RUNNER_HH
#define STITCH_APPS_APP_RUNNER_HH

#include <array>
#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "apps/apps.hh"
#include "compiler/stitcher.hh"
#include "kernels/catalog.hh"
#include "obs/json.hh"
#include "sim/system.hh"
#include "telem/span.hh"

namespace stitch::apps
{

/** The four architecture configurations of Figure 12. */
enum class AppMode
{
    Baseline,       ///< 16-core message passing, no accelerators
    Locus,          ///< identical per-core SFU (LOCUS [51])
    StitchNoFusion, ///< patches, each kernel limited to its own tile
    Stitch,         ///< patches + fusion over the sNoC
};

const char *appModeName(AppMode mode);

/** Result of one application run. */
struct AppRunResult
{
    AppMode mode = AppMode::Baseline;
    sim::RunStats stats; ///< from the longer of the two runs
    int samples = 0;     ///< sample-count difference of the two runs
    double marginalCycles = 0.0;

    /**
     * Steady-state cycles per pipeline sample: the marginal cost of
     * the extra samples between a short and a long run, which cancels
     * the pipeline fill/drain and cold-cache transients exactly.
     */
    double perSampleCycles() const { return marginalCycles; }

    bool hasPlan = false;
    compiler::StitchPlan plan; ///< valid for the Stitch modes

    /** Samples the long (measured) run processed; lets profilers turn
     *  stage cycles into items/cycle without re-deriving run config. */
    int samplesLong = 0;

    /**
     * Stage name ("kernel#k") -> tile of the measured run, in stage
     * order and for every mode (the plan only covers Stitch modes).
     * This is all src/prof/ needs to attribute tiles to kernels, so
     * apps stays free of a prof dependency.
     */
    std::vector<std::pair<std::string, TileId>> stageBindings;

    /**
     * The long run's stats-registry tree (zero counters omitted),
     * captured before the System is torn down so harnesses can embed
     * it in reports (sim/report.hh).
     */
    obs::Json statsDump;

    /**
     * The long run's translated-trace dump (System::dumpTraces),
     * captured iff RunConfig::dumpTraces is set. Empty unless the run
     * dispatched compiled (the default scheduler, when nothing forces
     * a deopt; smoke_app --dump-traces).
     */
    std::string traceDump;
};

/**
 * Everything that varies between runs of the same runner: the
 * ablation knobs (arch, policy), the fault scenario (health, faults)
 * and the simulator scheduler. Sweep workers build one per task and
 * pass it to the three-argument run() so concurrent scenarios never
 * race on runner state.
 */
struct RunConfig
{
    core::StitchArch arch = core::StitchArch::standard();
    compiler::StitchPolicy policy = compiler::StitchPolicy::Auto;
    fault::ArchHealth health = fault::ArchHealth::healthy();
    fault::FaultPlan faults;
    sim::SchedulerKind scheduler = sim::SchedulerKind::Compiled;

    /**
     * Capture the long run's translation-cache dump into
     * AppRunResult::traceDump (diagnostics; off the measurement path).
     */
    bool dumpTraces = false;

    /**
     * Per-run instruction budget; 0 keeps the runaway backstop. The
     * service layer maps a job "timeout" onto this: a run that
     * exhausts the budget ends with Termination::InstructionLimit in
     * its report instead of hanging a worker forever.
     */
    std::uint64_t maxInstructions = 0;

    /**
     * Steady-state measurement points; 0 keeps the runner's
     * constructor values. Job specs carry them so one shared engine
     * runner can serve jobs with different measurement windows.
     */
    int samplesShort = 0;
    int samplesLong = 0;

    /**
     * Request-scoped telemetry context (svc::JobEngine sets it when
     * telemetry is on). The runner records compile/stitch/simulate
     * spans through it — at *stage* granularity, never inside the
     * simulator hot loop. The default disabled context costs one
     * branch per stage; not part of the cache identity.
     */
    telem::TraceContext trace;

    /**
     * Cooperative deadline token (svc::JobEngine's watchdog sets it
     * when the job's wall-clock deadline expires). Forwarded to
     * SystemParams::abortFlag; a tripped flag surfaces as
     * fault::DeadlineExceededError. Not part of the cache identity.
     */
    const std::atomic<bool> *abortFlag = nullptr;
};

/**
 * One fully described machine: everything that configures a
 * sim::System for an application run except the sample count and the
 * run-only knobs of RunConfig. AppRunner::prepare() builds it
 * (compile, stitch, place, wire); simulateMachine() configures a
 * System from these fields and nothing else, and key() serializes the
 * same fields — so the run memo's identity cannot leave out an input
 * that shapes the machine.
 */
struct MachineDesc
{
    sim::AccelMode accel = sim::AccelMode::Stitch;
    core::StitchArch arch = core::StitchArch::standard();
    std::optional<core::SnocConfig> snoc; ///< preset (Stitch modes)

    /** One stage's binary on its tile, in stage order. */
    struct TileLoad
    {
        TileId tile = 0;
        /** Owned by the runner's kernel cache (lives as long as it). */
        const compiler::RewrittenProgram *binary = nullptr;
        /** Kernel-cache key + "@" + variant target, or "@sw". */
        std::string identity;
    };
    std::vector<TileLoad> loads;

    /** Fused patch pairs (local tile, remote tile). */
    std::vector<std::pair<TileId, TileId>> fusion;

    /** Message-channel wiring: comm-table words poked before a run. */
    struct Poke
    {
        TileId tile = 0;
        Addr addr = 0;
        Word value = 0;
    };
    std::vector<Poke> wiring;

    /** Exact identity of a run of this machine over `nSamples`. */
    std::string key(int nSamples) const;
};

/** The prepare step's output: the machine plus the placement facts a
 *  run result reports about it. */
struct PreparedRun
{
    MachineDesc machine;
    bool hasPlan = false;
    compiler::StitchPlan plan; ///< valid for the Stitch modes
    std::vector<std::pair<std::string, TileId>> stageBindings;
};

/**
 * The simulate step: configure a System from `machine` alone, poke
 * `nSamples` into every loaded tile and run it under `config`'s
 * scheduler, faults, budget and abort flag. Always simulates — this is
 * what micro_perf times. `statsOut` receives the stats-registry tree
 * (zero counters omitted); `traceDump`, when `config.dumpTraces` is
 * set, the translation-cache dump.
 */
sim::RunStats simulateMachine(const MachineDesc &machine, int nSamples,
                              const RunConfig &config,
                              obs::Json *statsOut = nullptr,
                              std::string *traceDump = nullptr);

/** Why a simulation bypassed the run memo (see AppRunner::simulate). */
enum class MemoBypass
{
    Step,       ///< the step oracle was asked for explicitly
    Slice,      ///< the slice interpreter was asked for explicitly
    Budget,     ///< a finite instruction budget
    Fault,      ///< an armed fault plan
    Unhealthy,  ///< stitched around an unhealthy arch
    Tracer,     ///< obs::Tracer is recording
    Sampler,    ///< obs::Sampler is recording
    DumpTraces, ///< RunConfig::dumpTraces
};

inline constexpr int numMemoBypasses = 8;

/** Metric-friendly reason name ("step", "dump_traces", ...). */
const char *memoBypassName(MemoBypass reason);

/** Run-memo activity since the runner was built. */
struct RunMemoStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    ///< eligible runs that simulated
    std::uint64_t evictions = 0; ///< LRU capacity evictions
    std::size_t entries = 0;
    std::array<std::uint64_t, numMemoBypasses> bypassed{};
};

/** Compiles, stitches, places, and simulates applications. */
class AppRunner
{
  public:
    /** Steady state is measured between runs of `samplesShort` and
     *  `samplesLong` pipeline samples. */
    explicit AppRunner(int samplesShort = 4, int samplesLong = 12);

    /** Run `app` under `mode` with the setter-configured state. */
    AppRunResult run(const AppSpec &app, AppMode mode);

    /**
     * Run `app` under `mode` with an explicit per-call configuration:
     * prepare(), then simulate() the short and the long run.
     * Thread-safe: concurrent calls on one runner share the compiled
     * kernel cache and the run memo (each internally locked) and
     * touch no other state.
     */
    AppRunResult run(const AppSpec &app, AppMode mode,
                     const RunConfig &config);

    /** The prepare step of run(): compile, stitch, place, wire. */
    PreparedRun prepare(const AppSpec &app, AppMode mode,
                        const RunConfig &config);

    /**
     * simulateMachine() through the run memo. A default-path run
     * (compiled scheduler, runaway budget, no fault plan, healthy
     * arch, no tracer, sampler or trace dump) whose exact key was
     * already simulated to completion returns the stored stats and
     * stats dump; everything else simulates and counts its bypass
     * reason. A hit honours an already-tripped abort flag exactly
     * like the run loop's first dispatch poll.
     */
    sim::RunStats simulate(const MachineDesc &machine, int nSamples,
                           const RunConfig &config,
                           obs::Json *statsOut = nullptr,
                           std::string *traceDump = nullptr);

    /** Entry cap of the run memo (LRU beyond it). */
    static constexpr std::size_t runMemoCapacity = 256;

    RunMemoStats runMemoStats() const;

    /** Snapshot of the setter-configured state as a RunConfig. */
    RunConfig config() const;

    /** Compiled kernel for a stage shape (cached, thread-safe). */
    const compiler::CompiledKernel &
    compiledFor(const std::string &kernel,
                const kernels::PipelineShape &shape);

    /** Override the patch placement (ablation studies). */
    void setArch(const core::StitchArch &arch) { arch_ = arch; }

    /** Override the stitching policy (ablation studies). */
    void
    setPolicy(compiler::StitchPolicy policy)
    {
        policy_ = policy;
    }

    /**
     * Stitch around known-bad hardware: the stitcher skips dead
     * patches and routes fusions away from failed links. The default
     * all-healthy mask reproduces the unconstrained plan exactly.
     */
    void setHealth(const fault::ArchHealth &health) { health_ = health; }

    /** Inject run-time faults (forwarded to SystemParams::faults). */
    void setFaultPlan(const fault::FaultPlan &plan) { faults_ = plan; }

    /** Select the simulator scheduler (SystemParams::scheduler). */
    void
    setScheduler(sim::SchedulerKind kind)
    {
        scheduler_ = kind;
    }

  private:
    /** One kernel-cache entry; its software binary is built once so
     *  every MachineDesc can point at it. */
    struct KernelEntry
    {
        std::string key; ///< "name/numIn/numOut/samples"
        compiler::CompiledKernel compiled;
        compiler::RewrittenProgram software;
    };

    /** The cache entry for a stage shape (compiled on first use,
     *  thread-safe). */
    const KernelEntry &kernelFor(const std::string &kernel,
                                 const kernels::PipelineShape &shape);

    /** A completed run, as the memo keeps it. */
    struct MemoEntry
    {
        sim::RunStats stats;
        std::string statsDump; ///< serialized: a fraction of the tree
    };

    int samplesShort_;
    int samplesLong_;
    core::StitchArch arch_ = core::StitchArch::standard();
    compiler::StitchPolicy policy_ = compiler::StitchPolicy::Auto;
    fault::ArchHealth health_ = fault::ArchHealth::healthy();
    fault::FaultPlan faults_;
    sim::SchedulerKind scheduler_ = sim::SchedulerKind::Compiled;
    std::mutex cacheMutex_; ///< guards cache_ across sweep workers
    std::map<std::string, std::unique_ptr<KernelEntry>> cache_;

    /** Run memo: LRU list (most recent first) + exact-key index. */
    mutable std::mutex memoMutex_;
    using MemoList = std::list<
        std::pair<std::string, std::shared_ptr<const MemoEntry>>>;
    MemoList memoLru_;
    std::unordered_map<std::string, MemoList::iterator> memoIndex_;
    RunMemoStats memoStats_; ///< `entries` is filled on read
};

} // namespace stitch::apps

#endif // STITCH_APPS_APP_RUNNER_HH
