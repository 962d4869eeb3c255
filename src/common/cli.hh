/**
 * @file
 * Shared command-line flag handling for benches, tools and the
 * service front-ends: the `--key=value` matcher every parser builds
 * on, and `--jobs=` resolution. Each front-end names the flags it
 * uses itself; there is no shared flag set that would make a tool
 * accept a flag it then ignores.
 */

#ifndef STITCH_COMMON_CLI_HH
#define STITCH_COMMON_CLI_HH

#include <string>

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

} // namespace stitch::cli

#endif // STITCH_COMMON_CLI_HH
