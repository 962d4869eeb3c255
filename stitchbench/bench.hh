/**
 * @file
 * stitchbench — the repository's end-to-end benchmark: two seeded
 * workloads driven through the library's public service entry points
 * (svc::JobEngine, svc::Server, svc::handleRequest,
 * svc::requestReport, fleet::Router). See README.md for the workload
 * rationale and the metric definitions.
 *
 * Everything the benchmark times is timed from these files: the
 * untraced run reports end-to-end metrics only, and the traced run
 * records spans around the calls into each layer (plus the engine's
 * own per-job stage spans) to derive the per-layer numbers.
 */

#ifndef STITCHBENCH_BENCH_HH
#define STITCHBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace stitchbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (one epoch per process). */
std::int64_t nowNs();

inline double
msBetween(std::int64_t fromNs, std::int64_t toNs)
{
    return static_cast<double>(toNs - fromNs) / 1e6;
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = "."; ///< where the traced run writes spans
    std::string self;         ///< this executable (sweep passes)
    int passIndex = -1;       ///< >= 0: run one sweep pass and exit
};

/** Nearest-rank quantile (q in [0, 1]); 0 for an empty sample. */
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double> &values);

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** Resident set of this process now, in MB. */
double currentRssMb();

/** Wall time of a fixed integer loop (ms, median of 5): printed
 *  beside every run so numbers can be compared across hosts. Never
 *  gated on. */
double calibrationMs();

/** splitmix64 — the benchmark's own seeded generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    double uniform(); ///< [0, 1)
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Operations attempted, and failures by kind: "typed:<kind>",
 *  "untyped", "transport" and "wrong_output". */
struct Tally
{
    std::uint64_t attempted = 0;
    std::map<std::string, std::uint64_t> failures;

    std::uint64_t failed() const;
    void fail(const std::string &kind) { ++failures[kind]; }
    void merge(const Tally &other);
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::uint64_t samples = 0; ///< observations behind the value
};

/** What one run of one workload measured. */
struct Result
{
    Tally tally;
    std::vector<Metric> metrics;    ///< the JSON result line
    std::vector<std::string> notes; ///< human-readable lines

    /** Record a metric declared in BENCHMARK.json (its unit comes
     *  from the declaration); throws std::logic_error otherwise. */
    void add(const std::string &name, double value,
             std::uint64_t samples);

    /** Complete a traced run's per-layer set: the fail.* counts from
     *  the tally, and 0 (n=0) for layers the workload never reaches.
     *  Orders the metrics as declared. */
    void finishLayers();
};

/** One metric BENCHMARK.json declares. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

// ---------------------------------------------------------------
// Design points, job documents and the output check (points.cc).

/** One simulation the workloads can ask for: the fields that decide
 *  its simulated results. */
struct DesignPoint
{
    std::string app;    ///< catalog name
    std::string mode;   ///< stitch-job mode token
    std::string policy; ///< stitch-job policy token
    int samplesShort = 0;
    int samplesLong = 0;

    std::string id() const;
};

/** Every design point any workload uses: APP1-4 x {baseline, locus,
 *  stitch_no_fusion x 3 policies, stitch x 3 policies} x the sample
 *  windows. The sweep pass runs all of them. */
const std::vector<DesignPoint> &designUniverse();

/**
 * The stitch-job document for `point`. `scheduler` is left unset so
 * every workload measures the default path. A `budget` of 0 leaves
 * max_instructions unset; a non-zero budget must be at least the
 * runaway budget, so it only changes the cache identity, never the
 * simulation regime. `name` is presentation-only (not hashed).
 */
stitch::obs::Json jobDoc(const DesignPoint &point, std::uint64_t budget,
                         int priority, const std::string &name);

/** First budget that is not finite: identities made with
 *  runawayBudget() + k simulate exactly like an unset budget. */
std::uint64_t runawayBudget();

/** The checked results of one report: termination, per-sample
 *  cycles, makespan, instructions, CUST, fused CUST, sNoC hops and
 *  messages. Wall-clock fields and the spec echo are excluded. */
std::string outcomeLine(const stitch::obs::Json &report,
                        const stitch::obs::Json &derived);

/** Order-dependent FNV-1a digest of a byte string. */
std::uint64_t digestBytes(const std::string &bytes,
                          std::uint64_t seed = 1469598103934665603ull);

/** The stored expected outcome of every design point (golden.tsv). */
class Golden
{
  public:
    /** Load the stored outcomes; throws std::runtime_error if the
     *  file is missing or does not cover the universe. */
    static const Golden &instance();

    /** "" when `report`/`derived` match the stored outcome of
     *  `point`, else a one-line description of the mismatch. */
    std::string check(const DesignPoint &point,
                      const stitch::obs::Json &report,
                      const stitch::obs::Json &derived) const;

  private:
    std::map<std::string, std::string> expected_;
};

/** Simulate every design point and write golden.tsv to `path`. */
int writeGolden(const std::string &path);

// ---------------------------------------------------------------
// Spans (common.cc).

/** One timed call into a layer. Spans of one request share `req`;
 *  `parent` is the id of the enclosing span (0 = root). */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t req = 0;
    std::string name;
    std::string tag; ///< e.g. hit / miss / probe
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int lane = 0; ///< thread or shard the span ran on

    double ms() const { return msBetween(startNs, endNs); }
};

/** In-memory span store, written out once when the run ends. */
class SpanLog
{
  public:
    /** Record a finished span; returns its id. Thread-safe. */
    std::uint64_t record(Span span);

    std::vector<Span> snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Write `spans` as Chrome trace_event JSON (one lane per `lane`). */
void writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

/** Number spans 1..n and set each one's parent: the nearest
 *  enclosing layer of the same request, in the order client.* ->
 *  fleet.router -> svc.shard.job -> engine.job (the envelope) or
 *  engine.submit -> the rest (engine stages, peer cache verbs, shard
 *  probes). Write-behind cacheputs are children of the job that
 *  caused them but end after it. Spans with req 0 (set-up traffic)
 *  stay roots. */
void linkParents(std::vector<Span> &spans);

/** Duration of `outer` minus the union of `children` inside it. */
double selfMs(const Span &outer, const std::vector<const Span *> &kids);

// ---------------------------------------------------------------
// Workloads.

Result runSweepCold(const Options &options);
int runSweepPass(const Options &options); ///< child process body
Result runFleetMixed(const Options &options);

} // namespace stitchbench

#endif // STITCHBENCH_BENCH_HH
