/**
 * @file
 * Shared command-line flag handling for benches, tools and the
 * service front-ends. Every harness used to hand-roll the same
 * `--json=/--jobs=/--scheduler=/--out=` parsing (bench_common.hh and
 * tools/smoke_app.cc each had a copy); this is the one
 * implementation.
 *
 * Layering: common sits below sim, so the scheduler is kept as its
 * raw string here and converted at the use site with
 * sim::schedulerKindFromName (which performs the typed validation).
 */

#ifndef STITCH_COMMON_CLI_HH
#define STITCH_COMMON_CLI_HH

#include <string>
#include <vector>

namespace stitch::cli
{

/**
 * Match a `--key=value` argument: when `arg` starts with `prefix`,
 * copy the remainder into `*out` and return true. The helper every
 * flag parser in the repo builds on.
 */
bool keyedValue(const char *arg, const char *prefix,
                std::string *out);

/** `--jobs=N` semantics: 0 means one worker per hardware thread,
 *  anything below 1 clamps to 1. */
int resolveJobs(int requested);

/**
 * The flags shared by benches, tools, and the service front-ends.
 * parse() consumes one argv entry and reports whether it was one of
 * them; anything unrecognized is left to the caller (positional
 * arguments, harness-specific switches, obs::CliOptions).
 */
struct CommonFlags
{
    std::string jsonPath;  ///< --json=FILE (bench metrics document)
    std::string out;       ///< --out=PATH (per-run artifacts)
    std::string scheduler; ///< --scheduler=NAME (raw; empty = default;
                           ///< stitchq/stitchd reject it: jobs pick
                           ///< theirs in the job document)
    int jobs = 1;          ///< --jobs=N, resolved via resolveJobs()

    /** Consume one argv entry; true iff it was a shared flag. */
    bool parse(const char *arg);
};

} // namespace stitch::cli

#endif // STITCH_COMMON_CLI_HH
