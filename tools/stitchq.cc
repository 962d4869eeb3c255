/**
 * @file
 * stitchq — batch front-end of the simulation job engine.
 *
 * Usage:
 *   stitchq BATCH.jsonl [--jobs=N] [--cache=DIR] [--out=DIR]
 *           [--summary=FILE] [--svc-trace=FILE] [--svc-events=FILE]
 *           [--metrics-out=FILE] [--max-queue=N] [--verbose]
 *
 * BATCH.jsonl holds one stitch-job document per line (blank lines and
 * `#` comment lines skipped). Every job is validated eagerly, queued
 * by priority, and drained by N workers against the content-addressed
 * result cache (--cache enables the on-disk layer, so re-running the
 * same batch performs zero simulations).
 *
 * --max-queue bounds the pending queue; lines that the engine refuses
 * to admit (or sheds to admit a higher-priority line) show up as
 * "rejected"/"shed" rows with error_kind "overloaded" rather than
 * killing the batch.
 *
 * --out writes each job's run report to DIR/jobNNN.json — the same
 * builder and writer smoke_app uses, so a batch report is
 * byte-identical to a serial `smoke_app <app> --report=...` of the
 * same spec, for any --jobs value. --summary writes a machine-
 * readable batch summary including the engine's service counters.
 * Exit status is 1 when any job was rejected or failed.
 *
 * --svc-trace / --svc-events turn on request-scoped telemetry and
 * export the batch's service spans as a Chrome trace (one lane per
 * job: queue/claim/cache_probe/compile/stitch/simulate/report slices
 * under a job envelope) and a JSONL event log. Telemetry never
 * changes the job reports themselves — with the flags absent the
 * output is byte-identical.
 *
 * --metrics-out writes the drained engine's Prometheus text
 * exposition (the same lines a stitchd {"cmd":"scrape"} answers, see
 * DESIGN.md §14) to FILE — one end-of-batch scrape for pipelines
 * that ingest batch runs into the same dashboards as the daemon.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "fault/fault.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/buildinfo.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "svc/engine.hh"

using namespace stitch;

namespace
{

struct BatchRow
{
    int line = 0;     ///< 1-based line in the batch file
    int jobId = -1;   ///< engine id; -1 when rejected at parse time
    std::string name; ///< spec label (or "line N")
    std::string error;
    std::string errorKind; ///< typed rejection ("config"/"overloaded")
};

std::string
readFileOrDie(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw fault::ConfigError(detail::formatMessage(
            "cannot open batch file ", path, ": ",
            std::strerror(errno)));
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string batchPath, cacheDir, outDir, summaryPath;
    std::string svcTracePath, svcEventsPath, metricsOutPath;
    int jobs = 1, maxQueue = 0;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--version") == 0) {
            std::printf("%s\n",
                        obs::versionText("stitchq").c_str());
            return 0;
        }
        if (cli::keyedValue(arg, "--cache=", &cacheDir) ||
            cli::keyedValue(arg, "--out=", &outDir) ||
            cli::keyedValue(arg, "--summary=", &summaryPath) ||
            cli::keyedValue(arg, "--svc-trace=", &svcTracePath) ||
            cli::keyedValue(arg, "--svc-events=", &svcEventsPath) ||
            cli::keyedValue(arg, "--metrics-out=", &metricsOutPath))
            continue;
        if (cli::keyedValue(arg, "--jobs=", &value)) {
            jobs = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--max-queue=", &value)) {
            maxQueue = std::atoi(value.c_str());
            continue;
        }
        if (cli::keyedValue(arg, "--scheduler=", &value)) {
            // Every scheduler yields the same report, so the choice
            // is per job, not per process.
            std::fprintf(stderr,
                         "stitchq: --scheduler is not a stitchq flag; "
                         "choose a scheduler with the job document's "
                         "\"scheduler\" key\n");
            return 2;
        }
        if (std::strcmp(arg, "--verbose") == 0) {
            obs::Registry::setVerbosity(Verbosity::Info);
            continue;
        }
        if (arg[0] == '-') {
            std::fprintf(stderr, "stitchq: unknown flag %s\n", arg);
            return 2;
        }
        batchPath = arg;
    }
    if (batchPath.empty()) {
        std::fprintf(
            stderr,
            "usage: stitchq BATCH.jsonl [--jobs=N] [--cache=DIR] "
            "[--out=DIR] [--summary=FILE] [--svc-trace=FILE] "
            "[--svc-events=FILE] [--metrics-out=FILE] "
            "[--max-queue=N]\n");
        return 2;
    }

    svc::EngineOptions options;
    options.jobs = cli::resolveJobs(jobs);
    options.cacheDir = cacheDir;
    options.maxQueueDepth = maxQueue;
    options.telemetry =
        !svcTracePath.empty() || !svcEventsPath.empty();
    svc::JobEngine engine(options);

    std::vector<BatchRow> rows;
    try {
        const std::string text = readFileOrDie(batchPath);
        std::size_t pos = 0;
        int lineNo = 0;
        while (pos < text.size()) {
            std::size_t eol = text.find('\n', pos);
            if (eol == std::string::npos)
                eol = text.size();
            std::string line = text.substr(pos, eol - pos);
            pos = eol + 1;
            ++lineNo;
            const auto first = line.find_first_not_of(" \t\r");
            if (first == std::string::npos || line[first] == '#')
                continue;

            BatchRow row;
            row.line = lineNo;
            row.name = "line " + std::to_string(lineNo);
            try {
                svc::JobSpec spec =
                    svc::JobSpec::fromJson(obs::Json::parse(line));
                if (!spec.name.empty())
                    row.name = spec.name;
                row.jobId = engine.submit(spec);
            } catch (const svc::OverloadedError &e) {
                // admission control said no: a typed, expected
                // outcome under --max-queue, not a batch error.
                row.error = e.what();
                row.errorKind = "overloaded";
            } catch (const FatalError &e) {
                // parse/validation failure: report it, keep going —
                // a mixed batch must not die on one bad line.
                row.error = e.what();
                row.errorKind = "config";
            }
            rows.push_back(std::move(row));
        }
    } catch (const fault::ConfigError &e) {
        std::fprintf(stderr, "stitchq: %s\n", e.what());
        return 2;
    }

    engine.run();

    TextTable table({"#", "job", "app", "mode", "status", "cached",
                     "per-sample", "latency"});
    bool anyFailed = false;
    obs::Json summaryJobs = obs::Json::array();
    int outIndex = 0;
    for (const auto &row : rows) {
        obs::Json entry = obs::Json::object();
        entry.set("line", row.line);
        entry.set("name", row.name);
        if (row.jobId < 0) {
            anyFailed = true;
            entry.set("status", "rejected");
            entry.set("error_kind", row.errorKind);
            entry.set("error", row.error);
            table.addRow({std::to_string(row.line), row.name, "-",
                          "-", "rejected", "-", "-", "-"});
            summaryJobs.push(std::move(entry));
            ++outIndex;
            continue;
        }
        const svc::JobSpec &spec = engine.spec(row.jobId);
        const svc::JobResult &result = engine.result(row.jobId);
        entry.set("key", result.key);
        entry.set("app", spec.app);
        entry.set("mode", svc::appModeToken(spec.mode));
        entry.set("status", svc::jobStatusName(result.status));
        entry.set("cached", result.cached);

        std::string perSample = "-", latency = "-";
        if (result.status == svc::JobResult::Status::Completed) {
            perSample = strformat(
                "%.0f",
                result.derived.get("per_sample_cycles").asDouble());
            latency = strformat("%.1fms", result.latencyMs);
            if (!outDir.empty()) {
                const std::string path =
                    outDir + "/" +
                    strformat("job%03d.json", outIndex);
                obs::writeJsonFile(path, result.report);
                entry.set("report", path);
            }
        } else {
            anyFailed = true;
            entry.set("error_kind", result.errorKind);
            entry.set("error", result.error);
        }
        table.addRow({std::to_string(row.line), row.name, spec.app,
                      svc::appModeToken(spec.mode),
                      svc::jobStatusName(result.status),
                      result.cached ? "yes" : "no", perSample,
                      latency});
        summaryJobs.push(std::move(entry));
        ++outIndex;
    }

    table.print();
    obs::Json service = engine.serviceReportJson();
    const obs::Json &jobCounters =
        service.get("counters").get("svc").get("jobs");
    std::printf(
        "\n%llu submitted, %llu completed (%llu simulated, %llu "
        "cached), %llu failed\n",
        static_cast<unsigned long long>(
            jobCounters.get("submitted").asUint()),
        static_cast<unsigned long long>(
            jobCounters.get("completed").asUint()),
        static_cast<unsigned long long>(
            jobCounters.get("simulated").asUint()),
        static_cast<unsigned long long>(
            jobCounters.get("cache_hits").asUint()),
        static_cast<unsigned long long>(
            jobCounters.get("failed").asUint()));

    try {
        if (!svcTracePath.empty())
            engine.spanSink().writeChromeTrace(svcTracePath);
        if (!svcEventsPath.empty())
            engine.spanSink().writeJsonl(svcEventsPath);
        if (!metricsOutPath.empty()) {
            const std::string text = engine.expositionText();
            std::FILE *f = obs::openArtifactFile(metricsOutPath);
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "stitchq: %s\n", e.what());
        return 2;
    }

    if (!summaryPath.empty()) {
        obs::Json doc = obs::Json::object();
        doc.set("schema", "stitch-batch-summary");
        doc.set("version", 1);
        doc.set("batch", batchPath);
        doc.set("jobs", std::move(summaryJobs));
        doc.set("service", std::move(service));
        obs::writeJsonFile(summaryPath, doc);
    }

    return anyFailed ? 1 : 0;
}
