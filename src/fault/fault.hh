/**
 * @file
 * The fault model: deterministic, seed-driven fault scenarios for the
 * Stitch system, the compile-time health mask the stitcher degrades
 * around, and the typed error hierarchy that replaces abort-style
 * fatal() in the run loop.
 *
 * Stitch targets always-on wearables: a dead patch, a failed sNoC
 * link, or a flaky inter-core NoC must degrade the pipeline, not
 * brick the device. Faults enter the system in two layers:
 *
 *  - compile time: an ArchHealth mask (available patches + sNoC mesh
 *    links) derived from a FaultPlan makes stitchApplication route
 *    and allocate around the broken resources, falling back from
 *    fused to single-patch to software-only placements;
 *  - run time: a FaultInjector owned by the System consults the plan
 *    in executeCustom (hard patch death, transient output bit flips)
 *    and send (message drop / extra delay). A dead patch raises a
 *    structured PatchFault instead of silently corrupting.
 *
 * Every stochastic decision is drawn from a counter-based splitmix64
 * stream keyed on (seed, stream id), so a scenario is a pure function
 * of its FaultPlan: same plan, same run, same RunStats.
 */

#ifndef STITCH_FAULT_FAULT_HH
#define STITCH_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/patch_config.hh"
#include "core/snoc.hh"

namespace stitch::fault
{

/** How one System::run() ended. */
enum class Termination
{
    Completed,        ///< every loaded core reached HALT
    Deadlock,         ///< every active core blocked in RECV
    InstructionLimit, ///< the step budget ran out (partial stats)
    Fault,            ///< an injected hardware fault surfaced
};

/** Printable name ("completed", "deadlock", ...). */
const char *terminationName(Termination t);

// ---------------------------------------------------------------------
// Typed errors. All derive from FatalError so existing harnesses and
// tests that catch the base type keep working; new code can catch the
// precise class.
// ---------------------------------------------------------------------

/** Base of every typed simulator error. */
class SimError : public FatalError
{
  public:
    explicit SimError(const std::string &what) : FatalError(what) {}
};

/** Invalid SystemParams / SnocConfig / FaultPlan (caught eagerly). */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &what) : SimError(what) {}
};

/** A binary that cannot run on this system (wrong patch kind, LOCUS
 *  table on a Stitch system, fused CUST without a partner, ...). */
class BinaryMismatchError : public SimError
{
  public:
    explicit BinaryMismatchError(const std::string &what)
        : SimError(what)
    {}
};

/**
 * A run abandoned because its wall-clock deadline expired (the
 * service tier's per-job `deadline_ms`, distinct from the
 * deterministic `max_instructions` budget). Raised cooperatively:
 * the run loop polls an abort flag set by the engine watchdog and
 * throws this instead of finishing the simulation; the engine maps
 * it to the typed per-job outcome "deadline".
 */
class DeadlineExceededError : public SimError
{
  public:
    explicit DeadlineExceededError(const std::string &what)
        : SimError(what)
    {}
};

/**
 * The simulated software itself crashed: a taken branch left the code
 * image, or the PC landed past the end / inside a two-word CUST. The
 * run loop always converts this into Termination::Fault — with or
 * without an armed injector — so a wild branch is a reported run
 * outcome with partial stats, never a simulator abort. Identical
 * messages are raised by single-step, exact-slice and compiled
 * dispatch (the crashing tile's state at the throw is deterministic
 * in all three).
 */
class ExecutionFaultError : public SimError
{
  public:
    explicit ExecutionFaultError(const std::string &what)
        : SimError(what)
    {}
};

/** Structured description of a patch that failed at run time. */
struct PatchFault
{
    TileId tile = -1;   ///< tile whose CUST hit the dead patch
    TileId patch = -1;  ///< the dead patch (== tile, or the partner)
    core::PatchKind kind = core::PatchKind::ATMA;
    std::string reason;
};

/** Raised by executeCustom when a CUST lands on a dead patch; the run
 *  loop converts it into Termination::Fault with diagnostics. */
class PatchFaultError : public SimError
{
  public:
    explicit PatchFaultError(PatchFault fault);
    const PatchFault &fault() const { return fault_; }

  private:
    PatchFault fault_;
};

// ---------------------------------------------------------------------
// Fault scenarios.
// ---------------------------------------------------------------------

/** One undirected sNoC mesh link, named by a tile and a direction. */
struct SnocLink
{
    TileId tile = -1;
    core::SnocPort dir = core::SnocPort::East;

    /** "t5-t6" style label. */
    std::string name() const;

    bool operator==(const SnocLink &) const = default;
};

/** Every physical link of the 4x4 sNoC mesh (24 undirected links). */
std::vector<SnocLink> allSnocLinks();

/**
 * A deterministic fault scenario. Default-constructed plans inject
 * nothing; named constructors build the campaign's standard
 * scenarios.
 */
struct FaultPlan
{
    /** Seeds the per-decision splitmix64 streams. */
    std::uint64_t seed = 0;

    /** Hard patch failure per tile (the core keeps running). */
    std::array<bool, numTiles> patchDead{};

    /** Failed sNoC mesh links / crossbar segments (undirected). */
    std::vector<SnocLink> snocLinksDown;

    /** Inter-core NoC message faults, applied per SEND. */
    double msgDropProb = 0.0;  ///< message silently lost in transit
    double msgDelayProb = 0.0; ///< message delivered late ...
    Cycles msgDelayCycles = 0; ///< ... by this many extra cycles

    /** Transient single-bit flip in a patch CUST output word. */
    double custFlipProb = 0.0;

    /** True if any mechanism is armed. */
    bool anyFault() const;

    /** True if any patch or sNoC link is marked dead. */
    bool anyHardFault() const;

    /** Human-readable scenario summary ("patch3 dead", ...). */
    std::string describe() const;

    /** Typed validation (probabilities, tile ranges). */
    void validate() const;

    static FaultPlan none() { return FaultPlan{}; }
    static FaultPlan patchFailure(TileId t);
    static FaultPlan linkFailure(const SnocLink &link);
    static FaultPlan messageDrop(double prob, std::uint64_t seed);
    static FaultPlan messageDelay(double prob, Cycles extra,
                                  std::uint64_t seed);
    static FaultPlan bitFlips(double prob, std::uint64_t seed);
};

// ---------------------------------------------------------------------
// Compile-time health mask.
// ---------------------------------------------------------------------

/**
 * What the stitcher may assume about the hardware: which patches can
 * execute CUSTs and which sNoC mesh links can carry operands. The
 * cores and the inter-core NoC are assumed alive (a dead core is a
 * dead pipeline stage — nothing to re-stitch around).
 */
struct ArchHealth
{
    std::array<bool, numTiles> patchOk;
    std::vector<SnocLink> linksDown;

    /** All patches and links available (the seed behaviour). */
    static ArchHealth healthy();

    /** The compile-time projection of a fault scenario. */
    static ArchHealth fromPlan(const FaultPlan &plan);

    bool allHealthy() const;

    /** Mark the plan's dead links as unroutable in `snoc`. */
    void applyTo(core::SnocConfig &snoc) const;
};

// ---------------------------------------------------------------------
// Run-time injector.
// ---------------------------------------------------------------------

/**
 * Draws the plan's stochastic decisions from independent
 * counter-based streams, one per mechanism, so the order in which the
 * System interleaves sends and CUSTs cannot perturb another
 * mechanism's outcomes.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan = FaultPlan{});

    const FaultPlan &plan() const { return plan_; }
    bool active() const { return plan_.anyFault(); }

    bool patchDead(TileId t) const
    {
        return plan_.patchDead[static_cast<std::size_t>(t)];
    }

    /** Should the next message be dropped? (advances the stream) */
    bool dropMessage();

    /** Extra latency of the next message (0 = on time). */
    Cycles messageDelay();

    /** Bit to flip in the next CUST output, or nullopt. */
    std::optional<int> custFlipBit();

  private:
    FaultPlan plan_;
    std::uint64_t dropCount_ = 0;
    std::uint64_t delayCount_ = 0;
    std::uint64_t flipCount_ = 0;
};

} // namespace stitch::fault

#endif // STITCH_FAULT_FAULT_HH
