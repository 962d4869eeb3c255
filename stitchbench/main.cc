/**
 * @file
 * stitchbench command line:
 *
 *   stitchbench --workload NAME --seed N --seconds S --trace 0|1
 *               [--out-dir DIR]
 *   stitchbench --write-golden PATH
 *
 * Prints human-readable lines (every metric with its unit and sample
 * count, failures by kind, the host calibration), then, as the last
 * line of standard output, one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
 * the end-to-end metrics, --trace 1 the per-layer ones. Exits 1 on a
 * wrong or untyped-failed output, 2 on a usage error.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "bench.hh"

using namespace stitchbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "stitchbench: %s\nusage: stitchbench --workload "
                 "sweep_cold|fleet_mixed --seed N --seconds "
                 "S --trace 0|1 [--out-dir DIR]\n       stitchbench "
                 "--write-golden PATH\n",
                 why);
    std::exit(2);
}

std::string
number(double value)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.self = argv[0];
    std::string golden;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
                haveSeed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
                haveSeconds = true;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                options.trace = value == "1";
                haveTrace = true;
            } else if (arg == "--out-dir") {
                options.outDir = value;
            } else if (arg == "--pass") {
                options.passIndex = std::stoi(value);
            } else if (arg == "--write-golden") {
                golden = value;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }

    try {
        if (!golden.empty())
            return writeGolden(golden);
        if (options.passIndex >= 0)
            return runSweepPass(options);
        if (!haveSeed || !haveSeconds || !haveTrace)
            usage("--seed, --seconds and --trace are required");
        if (options.seconds <= 0)
            usage("--seconds must be positive");

        Result result;
        if (options.workload == "sweep_cold")
            result = runSweepCold(options);
        else if (options.workload == "fleet_mixed")
            result = runFleetMixed(options);
        else
            usage("unknown workload");

        std::set<std::string> want;
        for (const MetricDef &def : options.trace ? perLayerMetrics()
                                                  : endToEndMetrics())
            want.insert(def.name);
        std::set<std::string> got;
        for (const Metric &m : result.metrics)
            got.insert(m.name);
        if (got != want) {
            std::fprintf(stderr,
                         "stitchbench: metric set does not match "
                         "BENCHMARK.json\n");
            return 2;
        }

        for (const std::string &note : result.notes)
            std::printf("%s\n", note.c_str());
        const double attempted =
            static_cast<double>(result.tally.attempted);
        std::printf("%-28s %s\n", "attempted",
                    std::to_string(result.tally.attempted).c_str());
        for (const auto &[kind, count] : result.tally.failures)
            std::printf("%-28s %llu\n", ("failed " + kind).c_str(),
                        static_cast<unsigned long long>(count));
        std::printf("%-28s %.6f ratio\n", "fail_frac",
                    attempted > 0 ? static_cast<double>(
                                        result.tally.failed()) /
                                        attempted
                                  : 0.0);
        for (const Metric &m : result.metrics)
            std::printf("%-28s %-14s %s (n=%llu)\n", m.name.c_str(),
                        number(m.value).c_str(), m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));

        const auto kind = [&](const char *k) {
            auto it = result.tally.failures.find(k);
            return it == result.tally.failures.end() ? 0 : it->second;
        };
        const bool correct = result.tally.attempted > 0 &&
                             kind("wrong_output") == 0 &&
                             kind("untyped") == 0;

        std::string line = "{\"correct\": ";
        line += correct ? "true" : "false";
        line += ", \"attempted\": " +
                std::to_string(result.tally.attempted);
        line += ", \"failed\": " + std::to_string(result.tally.failed());
        line += ", \"metrics\": {";
        for (std::size_t i = 0; i < result.metrics.size(); ++i) {
            const Metric &m = result.metrics[i];
            line += (i ? ", \"" : "\"") + m.name +
                    "\": {\"value\": " + number(m.value) +
                    ", \"unit\": \"" + m.unit + "\"}";
        }
        line += "}}";
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "stitchbench: %s\n", e.what());
        return 1;
    }
}
