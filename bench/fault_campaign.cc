/**
 * @file
 * Robustness campaign: sweep deterministic fault scenarios over one
 * application pipeline and tabulate how the system degrades.
 *
 * For every hard fault (each of the 16 patches dead, each of the 24
 * sNoC mesh links down) the campaign runs the scenario twice:
 *
 *  - "naive": the healthy stitch plan is kept and executed on the
 *    faulty hardware. A plan that routes over a dead link is rejected
 *    up front (ConfigError); a CUST that lands on a dead patch
 *    surfaces as Termination::Fault with a structured PatchFault.
 *  - "re-stitched": stitchApplication is given the ArchHealth mask of
 *    the scenario and degrades around the broken resource (fused ->
 *    single-patch -> software-only). These runs must all complete.
 *
 * Soft faults (message drop / delay, transient CUST bit flips) keep
 * the healthy plan; the table reports how the run ended (a dropped
 * message deadlocks its consumer — visible as blocked-tile
 * diagnostics) and what was injected.
 *
 * The campaign is a client of the simulation job engine (src/svc/):
 * every scenario run is a svc::JobSpec submitted to one JobEngine,
 * and the table is built from the engine's report + derived
 * documents. A naive run that the stitcher rejects comes back as a
 * Failed job with errorKind "config" — the "rejected" cell.
 *
 * Usage: fault_campaign [--app=APP3] [--out=DIR] [--jobs=N]
 * [--scheduler=step|slice|compiled] [obs switches]
 * With --out=DIR a run report embedding the degraded stitch plan is
 * written per scenario. Scenarios are independent, so --jobs=N
 * drains them over the engine's worker pool; jobs finish in submit
 * order on the result side, making the table and every report file
 * byte-identical for any jobs value. Exits non-zero if any
 * re-stitched run fails to complete.
 */

#include <cctype>

#include "bench/bench_common.hh"
#include "svc/engine.hh"

using namespace stitch;
using namespace stitch::bench;

namespace
{

struct Scenario
{
    std::string name;
    fault::FaultPlan plan;
    bool hard = false; ///< has a compile-time work-around
    int naiveJob = -1;
    int restitchJob = -1; ///< hard scenarios only
};

std::string
slug(const std::string &name)
{
    std::string s = name;
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

void
writeScenarioReport(const std::string &dir, const std::string &name,
                    const svc::JobResult &result)
{
    obs::Json doc = result.report;
    doc.set("scenario", name);
    if (result.derived.has("stitch_plan"))
        doc.set("stitch_plan", result.derived.get("stitch_plan"));
    obs::writeJsonFile(dir + "/" + slug(name) + ".json", doc);
}

bool
completed(const svc::JobResult &result)
{
    return result.status == svc::JobResult::Status::Completed &&
           result.derived.get("termination").asString() ==
               "completed";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initObs(argc, argv);

    const std::string &outDir = bench::commonFlags().out;
    std::string appName = "APP3";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--app=", 0) == 0)
            appName = arg.substr(6);
    }

    const apps::AppSpec *app = nullptr;
    static const auto all = apps::allApps();
    for (const auto &candidate : all)
        if (candidate.name.rfind(appName, 0) == 0) // prefix match
            app = &candidate;
    if (!app) {
        std::fprintf(stderr, "unknown app '%s'\n", appName.c_str());
        return 1;
    }

    printHeader("Fault campaign",
                strformat("graceful degradation of %s under "
                          "single-fault scenarios",
                          app->name.c_str())
                    .c_str());

    svc::EngineOptions engineOptions;
    engineOptions.jobs = bench::jobsFlag();
    svc::JobEngine engine(engineOptions);

    svc::JobSpec base;
    base.app = app->name;
    base.mode = apps::AppMode::Stitch;
    base.scheduler = bench::schedulerFlag();

    // The reference: all patches and links healthy. Run it alone
    // first so its compilation pass warms the shared kernel cache
    // before the scenario fan-out.
    svc::JobSpec healthySpec = base;
    healthySpec.name = "healthy";
    const int healthyJob = engine.submit(healthySpec);
    engine.run();
    const svc::JobResult &healthy = engine.result(healthyJob);
    STITCH_ASSERT(completed(healthy));
    double healthyCycles =
        healthy.derived.get("per_sample_cycles").asDouble();
    if (!outDir.empty())
        writeScenarioReport(outDir, "healthy", healthy);

    std::vector<Scenario> scenarios;
    for (TileId t = 0; t < numTiles; ++t)
        scenarios.push_back({strformat("patch%d dead", t),
                             fault::FaultPlan::patchFailure(t), true,
                             -1, -1});
    for (const auto &link : fault::allSnocLinks())
        scenarios.push_back({"link " + link.name() + " down",
                             fault::FaultPlan::linkFailure(link),
                             true, -1, -1});
    scenarios.push_back({"msg drop p=0.01",
                         fault::FaultPlan::messageDrop(0.01, 7),
                         false, -1, -1});
    scenarios.push_back(
        {"msg delay p=0.05 +32cy",
         fault::FaultPlan::messageDelay(0.05, 32, 7), false, -1, -1});
    scenarios.push_back({"cust flip p=0.001",
                         fault::FaultPlan::bitFlips(0.001, 7), false,
                         -1, -1});

    // Submit every scenario run as one engine job: the naive run
    // (healthy plan on faulty hardware) and, for hard faults, the
    // re-stitched run (health mask derived from the fault plan).
    for (auto &scenario : scenarios) {
        svc::JobSpec naive = base;
        naive.name = scenario.name + " (naive)";
        naive.faults = scenario.plan;
        naive.healthFromFaults = false;
        scenario.naiveJob = engine.submit(naive);
        if (scenario.hard) {
            svc::JobSpec restitch = base;
            restitch.name = scenario.name + " (re-stitched)";
            restitch.faults = scenario.plan;
            restitch.healthFromFaults = true;
            scenario.restitchJob = engine.submit(restitch);
        }
    }
    engine.run();

    TextTable table({"scenario", "naive", "re-stitched", "bottleneck",
                     "cyc/sample", "slowdown", "fused", "sw-only",
                     "injected"});
    table.addRow(
        {"healthy", "completed", "-",
         strformat("%llu",
                   static_cast<unsigned long long>(
                       healthy.derived.get("bottleneck_cycles")
                           .asUint())),
         strformat("%.1f", healthyCycles), "1.00",
         strformat("%llu", static_cast<unsigned long long>(
                               healthy.derived.get("fused").asUint())),
         strformat("%llu",
                   static_cast<unsigned long long>(
                       healthy.derived.get("software").asUint())),
         ""});

    int failures = 0;
    for (const auto &scenario : scenarios) {
        const svc::JobResult &naive = engine.result(scenario.naiveJob);

        // How the healthy-plan run ended: a stitcher rejection is a
        // typed config failure, anything else reports its
        // termination.
        std::string naiveCell;
        if (naive.status == svc::JobResult::Status::Completed)
            naiveCell = naive.derived.get("termination").asString();
        else if (naive.errorKind == "config")
            naiveCell = "rejected";
        else
            naiveCell = "error";

        // Soft scenarios *are* their naive run; hard scenarios
        // tabulate the re-stitched outcome.
        const svc::JobResult &res =
            scenario.hard ? engine.result(scenario.restitchJob)
                          : naive;
        if (res.status != svc::JobResult::Status::Completed) {
            ++failures;
            table.addRow({scenario.name, naiveCell, "error", "-", "-",
                          "-", "-", "-", res.error});
            continue;
        }

        const bool done =
            res.derived.get("termination").asString() == "completed";
        const double cycles =
            res.derived.get("per_sample_cycles").asDouble();
        const std::string bottleneck = strformat(
            "%llu", static_cast<unsigned long long>(
                        res.derived.get("bottleneck_cycles").asUint()));
        if (scenario.hard) {
            if (!done)
                ++failures;
            table.addRow(
                {scenario.name, naiveCell,
                 res.derived.get("termination").asString(),
                 bottleneck, done ? strformat("%.1f", cycles) : "-",
                 done ? strformat("%.2f", cycles / healthyCycles)
                      : "-",
                 strformat("%llu",
                           static_cast<unsigned long long>(
                               res.derived.get("fused").asUint())),
                 strformat("%llu",
                           static_cast<unsigned long long>(
                               res.derived.get("software").asUint())),
                 ""});
        } else {
            std::string injected;
            if (res.report.has("injected_faults")) {
                const obs::Json &inj =
                    res.report.get("injected_faults");
                if (inj.get("messages_dropped").asUint())
                    injected += strformat(
                        "%llu dropped ",
                        static_cast<unsigned long long>(
                            inj.get("messages_dropped").asUint()));
                if (inj.get("messages_delayed").asUint())
                    injected += strformat(
                        "%llu delayed ",
                        static_cast<unsigned long long>(
                            inj.get("messages_delayed").asUint()));
                if (inj.get("cust_bit_flips").asUint())
                    injected += strformat(
                        "%llu flips",
                        static_cast<unsigned long long>(
                            inj.get("cust_bit_flips").asUint()));
            }
            table.addRow(
                {scenario.name, naiveCell, "-", bottleneck,
                 done ? strformat("%.1f", cycles) : "-",
                 done ? strformat("%.2f", cycles / healthyCycles)
                      : "-",
                 "", "", injected});
        }
        if (!outDir.empty())
            writeScenarioReport(outDir, scenario.name, res);
    }
    table.print();
    recordMetric("scenarios", static_cast<int>(scenarios.size()));
    recordMetric("restitch_failures", failures);
    recordMetric("healthy_cycles_per_sample", healthyCycles);

    std::printf("\n%zu scenarios; every hard fault re-stitched %s.\n",
                scenarios.size(),
                failures == 0 ? "and completed"
                              : "BUT SOME FAILED TO COMPLETE");
    if (failures) {
        std::fprintf(stderr, "%d re-stitched runs did not complete\n",
                     failures);
        return 1;
    }
    return 0;
}
