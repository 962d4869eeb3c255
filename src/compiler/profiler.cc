#include "compiler/profiler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace stitch::compiler
{

namespace
{

/** CUST should not appear in pre-rewrite programs. */
class RejectCustom : public cpu::CustomHandler
{
  public:
    core::CustResult
    executeCustom(TileId, std::uint64_t,
                  const std::array<Word, 4> &) override
    {
        fatal("profiling a program that already contains CUST");
    }
};

} // namespace

ProfileResult
profileProgram(const isa::Program &prog, const ProfileParams &params,
               const std::function<void(mem::TileMemory &)> &inspect)
{
    mem::TileMemory memory(params.mem);
    StubHub hub;
    RejectCustom custom;
    cpu::Core core(0, memory, &custom, &hub);
    core.loadProgram(prog);
    core.runToHalt();
    if (inspect)
        inspect(memory);

    ProfileResult res;
    res.totalCycles = core.time();
    res.instructions = core.instructionsRetired();
    res.execCounts = core.executionCounts();
    res.blocks = findBasicBlocks(prog, res.execCounts);

    // Rank blocks by dynamic instruction share.
    std::uint64_t totalDyn = 0;
    std::vector<std::pair<std::uint64_t, std::size_t>> weighted;
    for (std::size_t i = 0; i < res.blocks.size(); ++i) {
        const BasicBlock &bb = res.blocks[i];
        std::uint64_t w = bb.execCount * bb.size();
        totalDyn += w;
        if (w > 0)
            weighted.emplace_back(w, i);
    }
    std::sort(weighted.begin(), weighted.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    for (const auto &[w, idx] : weighted) {
        if (static_cast<int>(res.hotBlocks.size()) >=
            params.maxHotBlocks)
            break;
        if (totalDyn == 0 ||
            static_cast<double>(w) / static_cast<double>(totalDyn) <
                params.hotThreshold)
            break;
        res.hotBlocks.push_back(idx);
    }
    return res;
}

} // namespace stitch::compiler
