/**
 * @file
 * A4: stitching-policy ablation. Paper Algorithm 1 greedily gives
 * the bottleneck kernel its best (usually fused) option; our
 * stitcher's Auto mode also evaluates a singles-only pass and keeps
 * the better plan. This bench quantifies the difference.
 *
 * Runs as a client of the simulation job engine: every (app, policy)
 * cell submits a baseline job and a Stitch job. The baseline spec is
 * the same for all three policies of an app (the baseline ignores the
 * stitch policy), so the engine's single-flight dedup simulates it
 * once per app and serves the other two cells from the cache — 16
 * simulations for 24 submitted jobs.
 */

#include "bench/bench_common.hh"
#include "svc/engine.hh"

using namespace stitch;
using namespace stitch::bench;

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv);
    printHeader("Ablation A4",
                "stitching policy: Algorithm-1 greedy vs "
                "singles-only vs auto");

    TextTable table({"app", "greedy (Alg. 1)", "singles-only",
                     "auto (ours)"});
    double sums[3] = {0, 0, 0};
    const compiler::StitchPolicy policies[] = {
        compiler::StitchPolicy::Greedy,
        compiler::StitchPolicy::SinglesOnly,
        compiler::StitchPolicy::Auto};

    svc::EngineOptions engineOptions;
    engineOptions.jobs = bench::jobsFlag();
    svc::JobEngine engine(engineOptions);

    const auto &allApps = apps::allApps();
    struct Cell
    {
        int baseJob = -1;
        int fullJob = -1;
    };
    std::vector<Cell> cells;
    for (const auto &app : allApps) {
        for (const auto policy : policies) {
            svc::JobSpec base;
            base.app = app.name;
            base.mode = apps::AppMode::Baseline;
            base.scheduler = bench::runConfig().scheduler;

            svc::JobSpec full = base;
            full.mode = apps::AppMode::Stitch;
            full.policy = policy;

            Cell cell;
            cell.baseJob = engine.submit(base);
            cell.fullJob = engine.submit(full);
            cells.push_back(cell);
        }
    }
    engine.run();

    auto perSample = [&](int job) {
        return engine.result(job)
            .derived.get("per_sample_cycles")
            .asDouble();
    };
    for (std::size_t a = 0; a < allApps.size(); ++a) {
        std::vector<std::string> row = {allApps[a].name};
        for (std::size_t p = 0; p < 3; ++p) {
            const Cell &cell = cells[a * 3 + p];
            double boost =
                perSample(cell.baseJob) / perSample(cell.fullJob);
            sums[p] += boost;
            row.push_back(strformat("%.2f", boost));
        }
        table.addRow(row);
    }
    recordMetric("average/greedy_boost", sums[0] / 4);
    recordMetric("average/singles_only_boost", sums[1] / 4);
    recordMetric("average/auto_boost", sums[2] / 4);
    table.addRow({"average", strformat("%.2f", sums[0] / 4),
                  strformat("%.2f", sums[1] / 4),
                  strformat("%.2f", sums[2] / 4)});
    table.print();

    const obs::Json counters = engine.serviceReportJson();
    const obs::Json &jobStats =
        counters.get("counters").get("svc").get("jobs");
    recordMetric("engine/simulated",
                 jobStats.get("simulated").asUint());
    recordMetric("engine/cache_hits",
                 jobStats.get("cache_hits").asUint());

    std::printf(
        "\nThe literal Algorithm 1 over-commits patch pairs when "
        "many similarly-heavy\nkernels compete (fusing the first "
        "few bottlenecks starves the rest); the\nsingles-only "
        "policy wastes fusion when imbalance is high. Auto takes "
        "the\nbetter of the two per application at compile time.\n");
    return 0;
}
