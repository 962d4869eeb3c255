#include "apps/app_runner.hh"

#include "common/logging.hh"
#include "common/table.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

namespace stitch::apps
{

const char *
appModeName(AppMode mode)
{
    switch (mode) {
      case AppMode::Baseline: return "baseline";
      case AppMode::Locus: return "LOCUS";
      case AppMode::StitchNoFusion: return "Stitch w/o fusion";
      case AppMode::Stitch: return "Stitch";
    }
    STITCH_PANIC("bad AppMode");
}

const char *
memoBypassName(MemoBypass reason)
{
    switch (reason) {
      case MemoBypass::Step: return "step";
      case MemoBypass::Budget: return "budget";
      case MemoBypass::Fault: return "fault";
      case MemoBypass::Unhealthy: return "unhealthy";
      case MemoBypass::Tracer: return "tracer";
      case MemoBypass::Sampler: return "sampler";
      case MemoBypass::DumpTraces: return "dump_traces";
    }
    STITCH_PANIC("bad MemoBypass");
}

std::string
MachineDesc::key(int nSamples) const
{
    std::string k = strformat("samples=%d accel=%d arch=", nSamples,
                              static_cast<int>(accel));
    for (core::PatchKind kind : arch.placement)
        k += strformat("%d,", static_cast<int>(kind));
    k += " tiles=";
    for (const TileLoad &load : loads)
        k += strformat("%d:%s;", load.tile, load.identity.c_str());
    if (snoc) {
        k += " snoc=";
        for (std::uint32_t reg : snoc->packRegisters())
            k += strformat("%x,", reg);
        k += " paths=";
        for (const core::SnocPath &path : snoc->paths()) {
            k += strformat("%d.%d>%d.%d:", path.from,
                           static_cast<int>(path.entry), path.to,
                           static_cast<int>(path.exit));
            for (TileId t : path.tiles)
                k += strformat("%d,", t);
            k += ';';
        }
        k += " down=";
        for (TileId t = 0; t < numTiles; ++t)
            for (int d = 0; d < 4; ++d)
                if (!snoc->linkUp(t, static_cast<core::SnocPort>(d)))
                    k += strformat("%d.%d;", t, d);
    }
    k += " fused=";
    for (const auto &[local, remote] : fusion)
        k += strformat("%d>%d;", local, remote);
    k += " wires=";
    for (const Poke &poke : wiring)
        k += strformat("%d@%x=%x;", poke.tile, poke.addr, poke.value);
    return k;
}

sim::RunStats
simulateMachine(const MachineDesc &machine, int nSamples,
                const RunConfig &config, obs::Json *statsOut,
                std::string *traceDump)
{
    sim::SystemParams params;
    params.accel = machine.accel;
    params.arch = machine.arch;
    params.faults = config.faults;
    params.scheduler = config.scheduler;
    params.abortFlag = config.abortFlag;

    sim::System system(params);
    if (machine.snoc)
        system.configureSnoc(*machine.snoc);
    for (const MachineDesc::TileLoad &load : machine.loads)
        system.loadProgram(load.tile, *load.binary);
    for (const auto &[local, remote] : machine.fusion)
        system.setFusionPartner(local, remote);
    for (const MachineDesc::Poke &poke : machine.wiring)
        system.pokeWord(poke.tile, poke.addr, poke.value);
    for (const MachineDesc::TileLoad &load : machine.loads)
        system.pokeWord(load.tile, kernels::commSamplesAddr,
                        static_cast<Word>(nSamples));

    auto stats = system.run(config.maxInstructions > 0
                                ? config.maxInstructions
                                : sim::System::runawayInstructionBudget);
    if (statsOut)
        *statsOut = system.registry().toJson(/*skipZero=*/true);
    if (traceDump && config.dumpTraces)
        *traceDump = system.dumpTraces();
    return stats;
}

AppRunner::AppRunner(int samplesShort, int samplesLong)
    : samplesShort_(samplesShort), samplesLong_(samplesLong)
{
    STITCH_ASSERT(samplesLong_ > samplesShort_ && samplesShort_ >= 1);
}

const AppRunner::KernelEntry &
AppRunner::kernelFor(const std::string &kernel,
                     const kernels::PipelineShape &shape)
{
    std::string key = strformat("%s/%d/%d/%d", kernel.c_str(),
                                shape.numIn, shape.numOut,
                                shape.samples);
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = cache_.find(key);
        if (it != cache_.end())
            return *it->second;
    }
    // Compile outside the lock — it is the expensive step, and two
    // workers compiling the same kernel is merely redundant work
    // (the loser's copy is dropped), never wrong.
    auto input = kernels::kernelByName(kernel).build(shape);
    auto entry = std::make_unique<KernelEntry>();
    entry->key = key;
    entry->compiled = compiler::compileKernel(kernel, input);
    entry->software.program = entry->compiled.software;
    std::lock_guard<std::mutex> lock(cacheMutex_);
    auto [it, inserted] = cache_.emplace(key, std::move(entry));
    (void)inserted;
    return *it->second;
}

const compiler::CompiledKernel &
AppRunner::compiledFor(const std::string &kernel,
                       const kernels::PipelineShape &shape)
{
    return kernelFor(kernel, shape).compiled;
}

AppRunResult
AppRunner::run(const AppSpec &app, AppMode mode)
{
    return run(app, mode, RunConfig{});
}

PreparedRun
AppRunner::prepare(const AppSpec &app, AppMode mode,
                   const RunConfig &config)
{
    const auto stages = app.stageKernels.size();
    STITCH_ASSERT(stages <= numTiles, "application too wide");

    // Compile every stage (cached across stages and apps).
    std::vector<const KernelEntry *> kernels;
    {
        telem::ScopedSpan span(config.trace, telem::Stage::Compile);
        for (std::size_t k = 0; k < stages; ++k) {
            kernels::PipelineShape shape;
            shape.numIn = app.inDegree(static_cast<int>(k));
            shape.numOut = app.outDegree(static_cast<int>(k));
            kernels.push_back(&kernelFor(app.stageKernels[k], shape));
        }
    }

    PreparedRun prep;
    MachineDesc &machine = prep.machine;
    machine.loads.resize(stages);
    auto loadSoftware = [&](std::size_t k) {
        machine.loads[k].binary = &kernels[k]->software;
        machine.loads[k].identity = kernels[k]->key + "@sw";
    };
    auto loadVariant = [&](std::size_t k,
                           const compiler::KernelVariant &variant) {
        machine.loads[k].binary = &variant.binary;
        machine.loads[k].identity = strformat(
            "%s@%d.%d.%d", kernels[k]->key.c_str(),
            static_cast<int>(variant.target.type),
            static_cast<int>(variant.target.local),
            static_cast<int>(variant.target.remote));
    };

    switch (mode) {
      case AppMode::Baseline:
        machine.accel = sim::AccelMode::None;
        break;
      case AppMode::Locus:
        machine.accel = sim::AccelMode::Locus;
        break;
      default:
        machine.accel = sim::AccelMode::Stitch;
        break;
    }

    if (mode == AppMode::Baseline || mode == AppMode::Locus) {
        for (std::size_t k = 0; k < stages; ++k) {
            machine.loads[k].tile = static_cast<TileId>(k);
            if (mode == AppMode::Baseline) {
                loadSoftware(k);
            } else {
                const auto *variant = kernels[k]->compiled.locusVariant();
                STITCH_ASSERT(variant, "missing LOCUS variant");
                loadVariant(k, *variant);
            }
        }
    } else {
        // Build the stitcher's view of the kernels.
        std::vector<compiler::KernelProfile> profiles;
        for (std::size_t k = 0; k < stages; ++k) {
            compiler::KernelProfile prof;
            prof.name = strformat("%s#%zu",
                                  app.stageKernels[k].c_str(), k);
            prof.swCycles = kernels[k]->compiled.softwareCycles;
            for (const auto &variant : kernels[k]->compiled.variants) {
                if (variant.target.type ==
                    compiler::AccelTarget::Type::Locus)
                    continue;
                prof.options.push_back(
                    {variant.target, variant.cycles});
            }
            profiles.push_back(std::move(prof));
        }

        compiler::StitchOptions stitchOpts;
        stitchOpts.allowFusion = mode == AppMode::Stitch;
        stitchOpts.policy = config.policy;
        machine.arch = config.arch;
        {
            telem::ScopedSpan span(config.trace,
                                   telem::Stage::Stitch);
            prep.plan = compiler::stitchApplication(
                profiles, machine.arch, config.health, stitchOpts);
        }
        prep.hasPlan = true;
        machine.snoc = prep.plan.snoc;

        for (std::size_t k = 0; k < stages; ++k) {
            const auto &placement = prep.plan.placements[k];
            machine.loads[k].tile = placement.tile;
            if (placement.accel) {
                const auto *variant =
                    kernels[k]->compiled.find(*placement.accel);
                STITCH_ASSERT(variant,
                              "plan chose a missing variant");
                loadVariant(k, *variant);
            } else {
                loadSoftware(k);
            }
        }
        for (const auto &placement : prep.plan.placements)
            if (placement.accel &&
                placement.accel->type ==
                    compiler::AccelTarget::Type::FusedPair)
                machine.fusion.emplace_back(placement.tile,
                                            placement.remoteTile);
    }

    // Wire the message channels: channel order must match the
    // builder's (i-th in-edge / out-edge in spec order).
    std::vector<int> inSeen(stages, 0);
    std::vector<int> outSeen(stages, 0);
    for (const auto &edge : app.edges) {
        const auto from = static_cast<std::size_t>(edge.from);
        const auto to = static_cast<std::size_t>(edge.to);
        const TileId fromTile = machine.loads[from].tile;
        const TileId toTile = machine.loads[to].tile;
        const int outIdx = outSeen[from]++;
        const int inIdx = inSeen[to]++;
        machine.wiring.push_back(
            {fromTile,
             kernels::commOutTableAddr + static_cast<Addr>(4 * outIdx),
             static_cast<Word>(toTile)});
        machine.wiring.push_back(
            {toTile,
             kernels::commInTableAddr + static_cast<Addr>(4 * inIdx),
             static_cast<Word>(fromTile)});
    }

    for (std::size_t k = 0; k < stages; ++k)
        prep.stageBindings.emplace_back(
            strformat("%s#%zu", app.stageKernels[k].c_str(), k),
            machine.loads[k].tile);
    return prep;
}

sim::RunStats
AppRunner::simulate(const MachineDesc &machine, int nSamples,
                    const RunConfig &config, obs::Json *statsOut,
                    std::string *traceDump)
{
    std::optional<MemoBypass> bypass;
    if (config.scheduler == sim::SchedulerKind::Step)
        bypass = MemoBypass::Step;
    else if (config.maxInstructions != 0)
        bypass = MemoBypass::Budget;
    else if (config.faults.anyFault())
        bypass = MemoBypass::Fault;
    else if (!config.health.allHealthy())
        bypass = MemoBypass::Unhealthy;
    else if (obs::Tracer::enabled())
        bypass = MemoBypass::Tracer;
    else if (obs::Sampler::enabled())
        bypass = MemoBypass::Sampler;
    else if (config.dumpTraces)
        bypass = MemoBypass::DumpTraces;
    if (bypass) {
        {
            std::lock_guard<std::mutex> lock(memoMutex_);
            ++memoStats_.bypassed[static_cast<std::size_t>(*bypass)];
        }
        return simulateMachine(machine, nSamples, config, statsOut,
                               traceDump);
    }

    // Exact identity: the full key string, never a hash of it.
    std::string key = machine.key(nSamples);
    std::shared_ptr<const MemoEntry> hit;
    {
        std::lock_guard<std::mutex> lock(memoMutex_);
        if (auto it = memoIndex_.find(key); it != memoIndex_.end()) {
            memoLru_.splice(memoLru_.begin(), memoLru_, it->second);
            hit = it->second->second;
            ++memoStats_.hits;
        } else {
            ++memoStats_.misses;
        }
    }
    if (hit) {
        // The run loop polls the abort flag before its first
        // dispatch; a stored result must not outrun a tripped one.
        if (config.abortFlag &&
            config.abortFlag->load(std::memory_order_relaxed))
            throw fault::DeadlineExceededError(
                "run aborted by deadline watchdog after 0 "
                "instructions");
        if (statsOut)
            *statsOut = obs::Json::parse(hit->statsDump);
        return hit->stats;
    }

    obs::Json dump;
    sim::RunStats stats =
        simulateMachine(machine, nSamples, config, &dump, traceDump);
    if (stats.termination == fault::Termination::Completed) {
        auto entry = std::make_shared<const MemoEntry>(
            MemoEntry{stats, dump.dump()});
        std::lock_guard<std::mutex> lock(memoMutex_);
        // A concurrent twin may have stored the same run first.
        if (memoIndex_.find(key) == memoIndex_.end()) {
            memoLru_.emplace_front(key, std::move(entry));
            memoIndex_.emplace(std::move(key), memoLru_.begin());
            while (memoLru_.size() > runMemoCapacity) {
                memoIndex_.erase(memoLru_.back().first);
                memoLru_.pop_back();
                ++memoStats_.evictions;
            }
        }
    }
    if (statsOut)
        *statsOut = std::move(dump);
    return stats;
}

RunMemoStats
AppRunner::runMemoStats() const
{
    std::lock_guard<std::mutex> lock(memoMutex_);
    RunMemoStats out = memoStats_;
    out.entries = memoLru_.size();
    return out;
}

AppRunResult
AppRunner::run(const AppSpec &app, AppMode mode,
               const RunConfig &config)
{
    // Per-call measurement overrides (job specs); 0 = runner default.
    const int samplesShort =
        config.samplesShort > 0 ? config.samplesShort : samplesShort_;
    const int samplesLong =
        config.samplesLong > 0 ? config.samplesLong : samplesLong_;
    if (!(samplesLong > samplesShort && samplesShort >= 1))
        throw fault::ConfigError(detail::formatMessage(
            "invalid sample window: short=", samplesShort,
            " long=", samplesLong,
            " (need 1 <= short < long)"));

    PreparedRun prep = prepare(app, mode, config);
    AppRunResult result;
    result.mode = mode;
    result.samples = samplesLong - samplesShort;
    result.samplesLong = samplesLong;
    result.hasPlan = prep.hasPlan;
    result.plan = std::move(prep.plan);
    result.stageBindings = std::move(prep.stageBindings);

    // Simulate a short and a long run; the marginal cost of the
    // extra samples is the steady-state throughput.
    telem::ScopedSpan simSpan(config.trace, telem::Stage::Simulate);
    sim::RunStats shortRun = simulate(prep.machine, samplesShort, config);
    result.stats = simulate(prep.machine, samplesLong, config,
                            &result.statsDump, &result.traceDump);
    simSpan.close();
    if (shortRun.termination == fault::Termination::Completed &&
        result.stats.termination == fault::Termination::Completed) {
        result.marginalCycles =
            static_cast<double>(result.stats.makespan -
                                shortRun.makespan) /
            static_cast<double>(samplesLong - samplesShort);
    } else {
        // An aborted run has no steady state; leave the marginal cost
        // at zero and let callers key on stats.termination.
        result.marginalCycles = 0.0;
    }
    return result;
}

} // namespace apps = stitch::apps
