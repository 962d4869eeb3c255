/**
 * @file
 * Kernel profiling (paper Figure 6: "profiling & hot basic block
 * detection"). The program runs once on a single software-only core;
 * execution counts identify the hot blocks that feed ISE
 * identification.
 */

#ifndef STITCH_COMPILER_PROFILER_HH
#define STITCH_COMPILER_PROFILER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "compiler/dfg.hh"
#include "cpu/core.hh"
#include "mem/tile_memory.hh"

namespace stitch::compiler
{

/** Profiling output. */
struct ProfileResult
{
    Cycles totalCycles = 0;
    std::uint64_t instructions = 0;
    std::vector<std::uint64_t> execCounts; ///< per instruction
    std::vector<BasicBlock> blocks;
    std::vector<std::size_t> hotBlocks; ///< indices into blocks,
                                        ///< heaviest first
};

/** Hot-block policy (the paper uses a 5% occurrence threshold). */
struct ProfileParams
{
    double hotThreshold = 0.05; ///< min share of dynamic instructions
    int maxHotBlocks = 12;
    mem::MemParams mem;
};

/** Message hub that lets pipeline stages run standalone (SEND is
 *  dropped, RECV returns zero); every standalone run uses it. */
class StubHub : public cpu::MessageHub
{
  public:
    Cycles
    send(TileId, TileId, int, Word, Cycles) override
    {
        return 1;
    }

    std::optional<std::pair<Word, Cycles>>
    tryRecv(TileId, TileId, int) override
    {
        return std::make_pair(Word{0}, Cycles{0});
    }
};

/**
 * Run `prog` to completion on a scratch core (over a StubHub) and
 * partition it into blocks. `inspect`, when set, sees the run's final
 * memory — the compiler driver takes its golden outputs there, so the
 * software runs once per kernel.
 */
ProfileResult profileProgram(
    const isa::Program &prog, const ProfileParams &params = ProfileParams{},
    const std::function<void(mem::TileMemory &)> &inspect = {});

} // namespace stitch::compiler

#endif // STITCH_COMPILER_PROFILER_HH
