/**
 * @file
 * The in-order, single-issue SW32 core of one Stitch tile.
 *
 * Timing model (paper Table II: ARM in-order single-issue, 200 MHz):
 * every instruction costs one cycle, plus I-cache/D-cache miss stalls
 * (30-cycle DRAM), plus 3 extra cycles for MUL, plus 1 extra cycle for
 * taken control flow. A CUST instruction executes in a single cycle
 * regardless of fusion — the whole point of the compiler-scheduled
 * sNoC — but occupies two instruction words in the I-cache.
 *
 * The core is deliberately ignorant of patches and of the NoC: custom
 * instructions and messages are delegated through the CustomHandler
 * and MessageHub interfaces so that a single Core can be driven
 * standalone (kernel studies, Fig. 11) or inside the 16-tile system
 * (application studies, Fig. 12).
 *
 * Cycle accounting is exact by construction — every addition to the
 * local clock lands in exactly one counter class:
 *
 *   time == instructions + 3*muls + branches_taken
 *         + imiss_stall_cycles + dmiss_stall_cycles
 *         + spm_stall_cycles + send_stall_cycles + recv_wait_cycles
 *
 * The profiling layer (src/prof/) folds these into its attribution
 * buckets and asserts the identity per tile.
 */

#ifndef STITCH_CPU_CORE_HH
#define STITCH_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/patch.hh"
#include "isa/program.hh"
#include "jit/memo.hh"
#include "jit/trace.hh"
#include "mem/tile_memory.hh"

namespace stitch::cpu
{

/** Executes CUST instructions on behalf of a core. */
class CustomHandler
{
  public:
    virtual ~CustomHandler() = default;

    /**
     * Execute the custom instruction described by `blob` (a packed
     * core::FusedConfig) with the four register operands `in`.
     */
    virtual core::CustResult executeCustom(TileId tile,
                                           std::uint64_t blob,
                                           const std::array<Word, 4> &in)
        = 0;
};

/** Message-passing fabric seen by a core's SEND/RECV instructions. */
class MessageHub
{
  public:
    virtual ~MessageHub() = default;

    /** Inject a one-word message; returns injection overhead cycles. */
    virtual Cycles send(TileId src, TileId dst, int tag, Word value,
                        Cycles now) = 0;

    /**
     * Try to consume a message addressed to (dst from src, tag).
     * @return value and its arrival time, or nullopt if not yet sent.
     */
    virtual std::optional<std::pair<Word, Cycles>>
    tryRecv(TileId dst, TileId src, int tag) = 0;
};

/** Outcome of Core::step(). */
enum class StepResult
{
    Ok,      ///< an instruction retired
    Halted,  ///< HALT retired; the core is done
    Blocked, ///< RECV found no message; retry after time advances
};

/** One tile's processor. */
class Core
{
  public:
    /**
     * @param id     tile id (used as the message-passing rank)
     * @param memory the tile's private memory system
     * @param custom CUST executor; may be null iff the program has
     *               no custom instructions
     * @param hub    message fabric; may be null iff the program has
     *               no SEND/RECV
     */
    Core(TileId id, mem::TileMemory &memory, CustomHandler *custom,
         MessageHub *hub);

    /**
     * Load `prog`: decoded code, data segments into backing memory,
     * and the ISE table. Resets PC, registers, time and caches.
     */
    void loadProgram(const isa::Program &prog);

    /** Execute one instruction (or discover a block/halt). */
    StepResult step();

    /**
     * Run-ahead slice for the event-driven scheduler (sim/sched.hh):
     * execute instructions back-to-back without returning to the
     * scheduler, stopping at the first boundary where another tile
     * could (or must) run instead:
     *
     *  - a SEND retired: the scheduler has pending wake-ups to
     *    deliver (a woken receiver may be the new global minimum);
     *  - the core blocked in RECV or halted;
     *  - `executed` reached `budget` (the run's instruction limit);
     *  - the slice reached the horizon — the (time, id) key of the
     *    next runnable tile, past which this core is no longer the
     *    global minimum.
     *
     * The horizon's meaning depends on `relaxed` (the scheduler
     * picks per run; see sim::SchedulerKind):
     *
     *  - relaxed = false (reference-exact): the slice ends as soon
     *    as the local clock passes the horizon, reproducing the step
     *    scheduler's total instruction interleaving exactly.
     *  - relaxed = true: tile-private work (ALU, control flow,
     *    private-memory traffic) runs ahead past the horizon freely —
     *    it is invisible to every other tile — and only a SEND, RECV
     *    or CUST yields, unexecuted, until the core again holds the
     *    globally minimal key. Globally visible events therefore
     *    execute in exactly the step scheduler's order, at the same
     *    local times, so final stats and reports are bit-identical;
     *    only the interleaving of private work in host time differs.
     *
     * `executed` is incremented per attempt (blocked RECV attempts
     * included, matching System::run's per-step budget accounting)
     * and stays correct if an injected fault throws mid-slice — the
     * throwing attempt is not counted, exactly like the per-step
     * path.
     *
     * Preconditions: !halted(), executed < budget, and this core is
     * the globally minimal runnable (time, id) key. Pass
     * `horizonTime = ~Cycles{0}` when no other tile is runnable.
     */
    StepResult runSlice(std::uint64_t budget, std::uint64_t &executed,
                        Cycles horizonTime, TileId horizonTile,
                        bool relaxed);

    /**
     * Compiled-backend slice (sim's third scheduler; core_jit.cc):
     * dispatch predecoded micro-op traces from the per-program
     * translation cache instead of per-instruction fetch→switch,
     * translating lazily on first entry. The same boundaries as
     * runSlice apply — a retired SEND, block, halt, or the budget —
     * and the run-ahead discipline is the relaxed one: tile-private
     * traces run past the horizon freely, while SEND/RECV execute as
     * single interpreter-oracle steps only while this core holds the
     * globally minimal (time, id) key, and yield unexecuted
     * otherwise. Every counter, stall cycle and register effect is
     * byte-identical to the interpreter's, including partial trace
     * executions cut short by a thrown fault (see DESIGN.md §15).
     *
     * Precondition (System::runQueueLoop enforces by deoptimizing
     * the whole run to runSlice): tracer, sampler and
     * fault injector off, and `budget` is the runaway backstop, not a
     * meaningful cutoff — mid-trace budget overshoot falls back to
     * single oracle steps so the final attempt still matches.
     */
    StepResult runCompiled(std::uint64_t budget,
                           std::uint64_t &executed, Cycles horizonTime,
                           TileId horizonTile);

    /** Run standalone until HALT; fatal on block. */
    Cycles runToHalt(std::uint64_t maxInstructions = 400'000'000ull);

    /** runToHalt through the translation cache (bench/micro_perf). */
    Cycles
    runToHaltCompiled(std::uint64_t maxInstructions = 400'000'000ull);

    bool halted() const { return halted_; }
    TileId id() const { return id_; }

    /** Word address of the next instruction (diagnostics). */
    Addr pc() const { return pc_; }

    /** The message a blocked RECV is waiting on. */
    struct PendingRecv
    {
        TileId src = -1;
        int tag = 0;
    };

    /**
     * Set while the last step() returned Blocked: which (src, tag)
     * the stalled RECV polls for. The scheduler uses it to wake only
     * matching receivers and to report blocked state on deadlock.
     */
    const std::optional<PendingRecv> &pendingRecv() const
    {
        return pendingRecv_;
    }

    Cycles time() const { return time_; }
    void setTime(Cycles t) { time_ = t; }

    std::uint64_t instructionsRetired() const { return retired_; }

    Word reg(RegId r) const
    {
        return regs_[static_cast<std::size_t>(r)];
    }
    void setReg(RegId r, Word v);

    mem::TileMemory &memory() { return mem_; }
    StatGroup &stats() { return stats_; }

    /** Last value stored to the crossbar configuration register. */
    std::uint32_t xbarConfigReg() const { return xbarReg_; }

    /**
     * Per-instruction basic-block execution counts from the last run,
     * used by the compiler's profiler. Indexed by instruction index.
     * Compiled-regime dispatches defer their counts per trace
     * (jit::Trace::completions); reading materializes them — logical
     * const, hence the cast.
     */
    const std::vector<std::uint64_t> &executionCounts() const
    {
        const_cast<Core *>(this)->syncExecCounts();
        return execCounts_;
    }

    const isa::Program &program() const { return prog_; }

    /** Translation-cache activity of the current program's run. */
    const jit::JitStats &jitStats() const { return jitStats_; }

    /** Translated traces so far (diagnostics / tests). */
    std::size_t traceCount() const { return traces_.size(); }

    /** Dump every translated trace, sorted by entry address, through
     *  the validator-gated dumper (smoke_app --dump-traces). */
    std::string dumpJitTraces() const;

  private:
    StepResult execute(const isa::Instr &in);
    void branchTo(std::int32_t targetWord);

    /**
     * Map the PC to its instruction index, raising a typed
     * fault::ExecutionFaultError (→ Termination::Fault) when the PC
     * ran off the code image or into the middle of a two-word CUST —
     * shared by every execution regime so crash messages match.
     */
    std::int32_t instrIndexAt(Addr pcWord) const;

    /** Translation cache lookup; translates + validates on miss. */
    jit::Trace &traceFor(Addr entryWord);

    /**
     * Execute `tr` and chain through already-translated successor
     * traces while they fit the remaining budget; exact fold-on-exit
     * counter discipline across the whole chain.
     */
    StepResult executeTrace(jit::Trace &tr, std::uint64_t &executed,
                            std::uint64_t budget);

    /** Fold deferred per-trace completion counts into execCounts_. */
    void syncExecCounts();

    /**
     * Tracing: close the running coalesced "exec" slice at `upTo` and
     * start the next one there. Adjacent instructions merge into one
     * slice; stalls and waits split it.
     */
    void traceFlushExec(Cycles upTo);

    /** Account (and trace) a stall of `cycles` starting now. */
    void chargeStall(Cycles cycles, Counter &bucket,
                     const char *label);

    TileId id_;
    mem::TileMemory &mem_;
    CustomHandler *custom_;
    MessageHub *hub_;

    isa::Program prog_;
    std::vector<std::int32_t> wordToIndex_; ///< word addr -> instr idx
    std::vector<std::uint64_t> execCounts_;

    // Compiled backend (core_jit.cc): per-program translation cache,
    // dropped wholesale on loadProgram. wordToTrace_ maps an entry
    // word address to its trace index (-1 = not yet translated).
    // jitMemo_ is this program's handle into the process-wide
    // translation memo (jit/memo.hh), bound lazily on the first
    // translation-cache miss.
    std::vector<jit::Trace> traces_;
    std::vector<std::int32_t> wordToTrace_;
    std::shared_ptr<jit::ProgramMemo> jitMemo_;
    jit::JitStats jitStats_;

    std::array<Word, numRegs> regs_{};
    Addr pc_ = 0; ///< word address
    Cycles time_ = 0;
    std::uint64_t retired_ = 0;
    bool halted_ = true;
    std::uint32_t xbarReg_ = 0;
    std::optional<PendingRecv> pendingRecv_;

    StatGroup stats_;

    // Cached counter handles (per-instruction hot path; see
    // StatGroup::counter). Declared after stats_: they bind to it.
    Counter &instrCount_;
    Counter &imissStall_;
    Counter &dmissStall_;
    Counter &recvWait_;
    Counter &sendStall_;
    Counter &spmStall_;
    Counter &branchesTaken_;
    Counter &muls_;
    Counter &loads_;
    Counter &stores_;
    Counter &msgsSent_;
    Counter &msgsReceived_;
    Counter &customInstrs_;

    Cycles execStart_ = 0; ///< begin of the open traced exec slice
};

} // namespace stitch::cpu

#endif // STITCH_CPU_CORE_HH
