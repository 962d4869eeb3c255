#include "compiler/driver.hh"

#include "compiler/liveness.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/locus.hh"
#include "cpu/patch_handler.hh"
#include "mem/addrmap.hh"

namespace stitch::compiler
{

const KernelVariant *
CompiledKernel::find(const AccelTarget &target) const
{
    for (const auto &v : variants)
        if (v.target == target)
            return &v;
    return nullptr;
}

const KernelVariant *
CompiledKernel::bestSinglePatch() const
{
    const KernelVariant *best = nullptr;
    for (const auto &v : variants) {
        if (v.target.type != AccelTarget::Type::SinglePatch)
            continue;
        if (!best || v.cycles < best->cycles)
            best = &v;
    }
    return best;
}

const KernelVariant *
CompiledKernel::bestStitch() const
{
    const KernelVariant *best = nullptr;
    for (const auto &v : variants) {
        if (v.target.type == AccelTarget::Type::Locus)
            continue;
        if (!best || v.cycles < best->cycles)
            best = &v;
    }
    return best;
}

const KernelVariant *
CompiledKernel::locusVariant() const
{
    for (const auto &v : variants)
        if (v.target.type == AccelTarget::Type::Locus)
            return &v;
    return nullptr;
}

std::vector<AccelTarget>
allStitchTargets()
{
    using core::PatchKind;
    std::vector<AccelTarget> targets;
    const PatchKind kinds[] = {PatchKind::ATMA, PatchKind::ATAS,
                               PatchKind::ATSA};
    for (auto k : kinds)
        targets.push_back(AccelTarget::single(k));
    for (auto a : kinds)
        for (auto b : kinds)
            targets.push_back(AccelTarget::fused(a, b));
    return targets;
}

namespace
{

std::vector<std::vector<std::uint8_t>>
snapshotRegions(mem::TileMemory &memory,
                const std::vector<OutputRegion> &regions)
{
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto &r : regions) {
        std::vector<std::uint8_t> bytes;
        bytes.reserve(r.bytes);
        for (Addr i = 0; i < r.bytes; ++i) {
            Addr a = r.base + i;
            if (mem::isSpmAddr(a)) {
                Word w = memory.spmLoadWord(a & ~Addr{3});
                bytes.push_back(static_cast<std::uint8_t>(
                    (w >> (8 * (a & 3))) & 0xff));
            } else {
                bytes.push_back(memory.backing().readByte(a));
            }
        }
        out.push_back(std::move(bytes));
    }
    return out;
}

} // namespace

Cycles
measureBinary(const RewrittenProgram &binary,
              const std::optional<AccelTarget> &target,
              const mem::MemParams &memParams,
              std::vector<std::vector<std::uint8_t>> *outputDump,
              const std::vector<OutputRegion> *regions)
{
    mem::TileMemory memory(memParams);
    StubHub hub;

    std::unique_ptr<cpu::CustomHandler> handler;
    core::LocusSfu *locus = nullptr;
    if (target) {
        if (target->type == AccelTarget::Type::Locus) {
            auto sfu = std::make_unique<core::LocusSfu>();
            locus = sfu.get();
            handler = std::move(sfu);
        } else {
            handler = std::make_unique<cpu::LocalPatchHandler>(
                target->local, memory);
        }
    }
    if (locus)
        locus->installTable(binary.microTable);

    cpu::Core core(0, memory, handler.get(), &hub);
    core.loadProgram(binary.program);
    core.runToHalt();

    if (outputDump && regions)
        *outputDump = snapshotRegions(memory, *regions);
    return core.time();
}

CompiledKernel
compileKernel(const std::string &name, const KernelInput &input,
              const CompilerOptions &options)
{
    CompiledKernel out;
    out.name = name;
    out.software = input.program;
    out.software.setName(name);

    // 1. Profile the software version and find hot blocks. The same
    //    run's final memory holds the reference outputs every variant
    //    is validated against.
    std::vector<std::vector<std::uint8_t>> goldenOutputs;
    ProfileResult profile = profileProgram(
        out.software, options.profile, [&](mem::TileMemory &memory) {
            goldenOutputs = snapshotRegions(memory, input.outputs);
        });
    out.softwareCycles = profile.totalCycles;

    // 2. Build DFGs of the hot blocks (with block liveness so dead
    //    loop scratch is not mistaken for an output); harvest chain
    //    strings.
    auto liveOuts = blockLiveOuts(out.software, profile.blocks);
    auto spmIns = blockSpmPointers(out.software, profile.blocks,
                                   input.spmBaseRegs);
    std::map<std::size_t, Dfg> dfgs;
    for (std::size_t blockIdx : profile.hotBlocks) {
        std::vector<RegId> spm_regs(spmIns[blockIdx].begin(),
                                    spmIns[blockIdx].end());
        Dfg dfg = Dfg::build(out.software, profile.blocks[blockIdx],
                             spm_regs, &liveOuts[blockIdx]);
        for (auto &chain : extractChains(dfg))
            out.chainStrings.push_back(std::move(chain));
        dfgs.emplace(blockIdx, std::move(dfg));
    }

    // 3-5. Identify, map, select, rewrite and measure per target.
    std::vector<AccelTarget> targets = allStitchTargets();
    targets.push_back(AccelTarget::locus());

    // Candidates are target independent; enumerate once per block.
    std::map<std::size_t, std::vector<IseCandidate>> candidates;
    for (const auto &[blockIdx, dfg] : dfgs)
        candidates.emplace(blockIdx,
                           identifyCandidates(dfg, options.ident));

    for (const auto &target : targets) {
        std::map<std::size_t, std::vector<SelectedIse>> selections;
        for (const auto &[blockIdx, dfg] : dfgs) {
            auto sels = selectIses(dfg, candidates[blockIdx], target,
                                   options.locus);
            if (!sels.empty())
                selections.emplace(blockIdx, std::move(sels));
        }

        KernelVariant variant;
        variant.target = target;
        if (selections.empty()) {
            variant.binary.program = out.software;
            variant.cycles = out.softwareCycles;
            variant.speedup = 1.0;
            out.variants.push_back(std::move(variant));
            continue;
        }

        variant.binary = rewriteProgram(out.software, profile.blocks,
                                        selections, dfgs);

        std::vector<std::vector<std::uint8_t>> outputs;
        variant.cycles =
            measureBinary(variant.binary, target, options.profile.mem,
                          &outputs, &input.outputs);
        if (options.validate && outputs != goldenOutputs) {
            fatal("variant ", target.name(), " of kernel ", name,
                  " produced outputs differing from software");
        }
        variant.speedup =
            static_cast<double>(out.softwareCycles) /
            static_cast<double>(std::max<Cycles>(variant.cycles, 1));
        out.variants.push_back(std::move(variant));
    }

    return out;
}

} // namespace stitch::compiler
