/**
 * @file
 * Machine-readable run reports: a versioned JSON document summarizing
 * one System::run() — makespan, per-tile stall/idle breakdowns,
 * message and custom-instruction histograms, NoC link utilization —
 * optionally carrying the full stats-registry dump. Harnesses write it
 * with --report=FILE; downstream tooling keys on schema/version
 * instead of scraping stdout tables.
 */

#ifndef STITCH_SIM_REPORT_HH
#define STITCH_SIM_REPORT_HH

#include <string>

#include "compiler/stitcher.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "sim/system.hh"

namespace stitch::sim
{

inline constexpr const char *runReportSchema = "stitch-run-report";

/**
 * v2 added "termination" plus deadlock/fault diagnostics. v3 adds the
 * full per-tile cycle attribution (MUL/branch counts, SPM and SEND
 * stall cycles, sNoC hops, and the derived "buckets" partition that
 * sums exactly to each tile's cycles) and reserves the top-level
 * "profile" key for the src/prof/ attribution section, which
 * harnesses attach under --profile. v4 adds "hot_blocks" — the top
 * static basic blocks by dynamically retired instructions (omitted
 * when empty) — derived from execution counts every scheduler fills
 * identically, so the section is byte-identical across step and
 * compiled runs.
 */
inline constexpr int runReportVersion = 4;

/**
 * Build the report document for one run. When `registry` is non-null
 * (pass &system.registry()) the component counter tree is embedded
 * under "stats".
 */
obs::Json runReport(const RunStats &stats,
                    const obs::Registry *registry = nullptr);

/** Pretty-print runReport() to `path`; fatal on I/O failure. */
void writeRunReport(const std::string &path, const RunStats &stats,
                    const obs::Registry *registry = nullptr);

/**
 * JSON view of a stitch plan (per-kernel placement, fusion routes,
 * bottleneck cycles). Fault campaigns embed it next to the run
 * report so a degraded scenario's placement is inspectable from
 * artifacts.
 */
obs::Json stitchPlanJson(const compiler::StitchPlan &plan);

} // namespace stitch::sim

#endif // STITCH_SIM_REPORT_HH
