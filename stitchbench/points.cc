/**
 * @file
 * The design-point universe, job documents and the output check.
 *
 * Expected outcomes live in golden.tsv beside this file, one line per
 * design point. They were produced by `stitchbench --write-golden`
 * and are checked on every response, cached or simulated. A change
 * that is meant to alter simulated results regenerates the file and
 * says so.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "apps/apps.hh"
#include "bench.hh"
#include "sim/system.hh"
#include "svc/engine.hh"

#ifndef STITCHBENCH_GOLDEN
#error "STITCHBENCH_GOLDEN must name golden.tsv"
#endif

using stitch::obs::Json;

namespace stitchbench
{

std::string
DesignPoint::id() const
{
    return app + "/" + mode + "/" + policy + "/" +
           std::to_string(samplesShort) + "-" +
           std::to_string(samplesLong);
}

const std::vector<DesignPoint> &
designUniverse()
{
    static const std::vector<DesignPoint> universe = [] {
        // Short windows keep one job to a few pipeline samples, so a
        // pass holds enough jobs for a p99 with ten samples beyond it.
        const std::pair<int, int> windows[] = {{1, 2}, {1, 3}, {2, 3},
                                               {2, 4}, {3, 5}, {4, 6}};
        // The policy only reaches the stitcher in the two stitch
        // modes; baseline and locus run once per window.
        const std::pair<const char *, const char *> configs[] = {
            {"baseline", "auto"},
            {"locus", "auto"},
            {"stitch_no_fusion", "auto"},
            {"stitch_no_fusion", "greedy"},
            {"stitch_no_fusion", "singles_only"},
            {"stitch", "auto"},
            {"stitch", "greedy"},
            {"stitch", "singles_only"},
        };
        std::vector<DesignPoint> points;
        for (const auto &app : stitch::apps::allApps())
            for (const auto &[mode, policy] : configs)
                for (const auto &[ss, sl] : windows)
                    points.push_back({app.name, mode, policy, ss, sl});
        return points;
    }();
    return universe;
}

std::uint64_t
runawayBudget()
{
    return stitch::sim::System::runawayInstructionBudget;
}

Json
jobDoc(const DesignPoint &point, std::uint64_t budget, int priority,
       const std::string &name)
{
    Json doc = Json::object();
    doc.set("schema", "stitch-job");
    doc.set("version", 1);
    if (!name.empty())
        doc.set("name", name);
    if (priority > 0)
        doc.set("priority", priority);
    doc.set("app", point.app);
    doc.set("mode", point.mode);
    doc.set("policy", point.policy);
    doc.set("samples_short", point.samplesShort);
    doc.set("samples_long", point.samplesLong);
    if (budget > 0) {
        if (budget < runawayBudget())
            throw std::logic_error("finite instruction budget");
        doc.set("max_instructions", budget);
    }
    return doc;
}

std::string
outcomeLine(const Json &report, const Json &derived)
{
    const Json &totals = report.get("totals");
    char psc[64];
    std::snprintf(psc, sizeof psc, "%.9g",
                  derived.get("per_sample_cycles").asDouble());
    std::ostringstream line;
    line << report.get("termination").asString() << '\t' << psc;
    for (const char *key :
         {"makespan_cycles", "instructions", "custom_instructions",
          "fused_custom_instructions", "snoc_hops", "messages"})
        line << '\t' << totals.get(key).asUint();
    return line.str();
}

std::uint64_t
digestBytes(const std::string &bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

const Golden &
Golden::instance()
{
    static const Golden golden = [] {
        Golden g;
        std::ifstream in(STITCHBENCH_GOLDEN);
        if (!in)
            throw std::runtime_error(
                std::string("cannot read ") + STITCHBENCH_GOLDEN);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const auto tab = line.find('\t');
            if (tab == std::string::npos)
                throw std::runtime_error("malformed golden line: " +
                                         line);
            g.expected_[line.substr(0, tab)] = line.substr(tab + 1);
        }
        for (const auto &point : designUniverse())
            if (!g.expected_.count(point.id()))
                throw std::runtime_error("golden.tsv lacks " +
                                         point.id());
        return g;
    }();
    return golden;
}

std::string
Golden::check(const DesignPoint &point, const Json &report,
              const Json &derived) const
{
    std::string got;
    try {
        got = outcomeLine(report, derived);
    } catch (const std::exception &e) {
        return point.id() + ": unreadable report (" + e.what() + ")";
    }
    const std::string &want = expected_.at(point.id());
    if (got == want)
        return "";
    return point.id() + ": got [" + got + "] want [" + want + "]";
}

int
writeGolden(const std::string &path)
{
    // Every point twice: once with no budget and once with a
    // runaway-sized one, the identity trick the fleet workloads use.
    // Both must simulate identically or the trick is unsound.
    const auto &universe = designUniverse();
    stitch::svc::EngineOptions options;
    options.jobs = 4;
    stitch::svc::JobEngine engine(options);
    for (const auto &point : universe) {
        engine.submit(jobDoc(point, 0, 0, ""));
        engine.submit(jobDoc(point, runawayBudget() + 1, 0, ""));
    }
    engine.run();

    std::ostringstream out;
    out << "# design point\ttermination\tper_sample_cycles\t"
           "makespan_cycles\tinstructions\tcustom_instructions\t"
           "fused_custom_instructions\tsnoc_hops\tmessages\n";
    for (std::size_t i = 0; i < universe.size(); ++i) {
        const auto &plain = engine.result(static_cast<int>(2 * i));
        const auto &budgeted =
            engine.result(static_cast<int>(2 * i + 1));
        using Status = stitch::svc::JobResult::Status;
        if (plain.status != Status::Completed ||
            budgeted.status != Status::Completed) {
            std::fprintf(stderr, "%s failed: %s\n",
                         universe[i].id().c_str(),
                         plain.error.empty() ? budgeted.error.c_str()
                                             : plain.error.c_str());
            return 1;
        }
        const std::string line =
            outcomeLine(plain.report, plain.derived);
        if (line != outcomeLine(budgeted.report, budgeted.derived)) {
            std::fprintf(stderr,
                         "%s: a runaway-sized budget changed the "
                         "simulation\n",
                         universe[i].id().c_str());
            return 1;
        }
        if (plain.report.get("termination").asString() !=
            "completed") {
            std::fprintf(stderr, "%s did not complete\n",
                         universe[i].id().c_str());
            return 1;
        }
        out << universe[i].id() << '\t' << line << '\n';
    }
    std::ofstream file(path);
    file << out.str();
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %zu design points to %s\n", universe.size(),
                path.c_str());
    return 0;
}

} // namespace stitchbench
