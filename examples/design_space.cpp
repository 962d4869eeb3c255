/**
 * @file
 * Using the library as an architecture-exploration tool: define a
 * custom patch placement, check its fusion timing against the RTL
 * model, and compare application throughput against the paper's
 * 8/4/4 layout — the workflow an architect would use to retarget
 * Stitch at a different kernel mix.
 *
 *   ./build/examples/design_space
 */

#include <cstdio>

#include "apps/app_runner.hh"
#include "core/snoc.hh"
#include "core/snoc_timing.hh"

using namespace stitch;
using core::PatchKind;

int
main()
{

    // ---- 1. A custom floorplan: shift-heavy corners, MA spine.
    core::StitchArch custom{{
        PatchKind::ATAS, PatchKind::ATMA, PatchKind::ATMA,
        PatchKind::ATSA,
        PatchKind::ATMA, PatchKind::ATSA, PatchKind::ATAS,
        PatchKind::ATMA,
        PatchKind::ATMA, PatchKind::ATAS, PatchKind::ATSA,
        PatchKind::ATMA,
        PatchKind::ATSA, PatchKind::ATMA, PatchKind::ATMA,
        PatchKind::ATAS,
    }};

    // ---- 2. Static timing sanity: every adjacent pair must fuse
    //         within the 200 MHz budget (core/snoc_timing model).
    int routable = 0;
    double worstNs = 0;
    for (TileId a = 0; a < numTiles; ++a) {
        for (TileId b = 0; b < numTiles; ++b) {
            if (a == b)
                continue;
            core::SnocConfig snoc;
            auto routed = snoc.addFusion(a, custom.kindOf(a), b,
                                         custom.kindOf(b));
            if (!routed)
                continue;
            ++routable;
            worstNs = std::max(
                worstNs, core::fusedCriticalPathNs(
                             custom.kindOf(a), custom.kindOf(b),
                             routed->first.hops(),
                             routed->second.hops()));
        }
    }
    std::printf("custom floorplan: %d routable fusion pairs, worst "
                "path %.2f ns (budget %.1f ns)\n",
                routable, worstNs, core::rtl::clockPeriodNs);

    // ---- 3. Application throughput under both floorplans.
    std::printf("\n%-16s %10s %10s\n", "app", "paper 8/4/4",
                "custom");
    apps::AppRunner runner(4, 12);
    apps::RunConfig customConfig;
    customConfig.arch = custom;
    for (const auto &app : apps::allApps()) {
        auto pBase = runner.run(app, apps::AppMode::Baseline);
        auto pFull = runner.run(app, apps::AppMode::Stitch);
        auto cFull =
            runner.run(app, apps::AppMode::Stitch, customConfig);

        std::printf("%-16s %9.2fx %9.2fx\n", app.name.c_str(),
                    pBase.perSampleCycles() /
                        pFull.perSampleCycles(),
                    pBase.perSampleCycles() /
                        cFull.perSampleCycles());
        std::fflush(stdout);
    }

    std::printf(
        "\nThe compiler, stitcher, timing model and simulator are "
        "all placement-aware,\nso alternative floorplans are a "
        "one-struct change — the sweep the paper's\nauthors ran to "
        "settle on 8/4/4 (see bench/ablate_patch_mix for the full "
        "grid).\n");
    return 0;
}
