/**
 * @file
 * Lightweight named-counter statistics, in the spirit of gem5's stats
 * package but scoped per component instance.
 */

#ifndef STITCH_COMMON_STATS_HH
#define STITCH_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace stitch
{

/** One named statistic's storage; obtained via StatGroup::counter(). */
using Counter = std::uint64_t;

/** A stats field's kind in the service metric views: a monotone
 *  count, a level, or a 0/1 flag (a bool in live introspection).
 *  Stats structs list fields as forEachField(fn(name, value, kind)). */
enum class StatKind
{
    Counter,
    Gauge,
    Flag,
};

/**
 * A bag of named 64-bit counters. Components own one and expose it via
 * a stats() accessor; harnesses aggregate and print them (usually
 * through an obs::Registry).
 *
 * Hot paths should not pay a string lookup per increment: fetch a
 * Counter& handle once (construction time) with counter() and bump it
 * directly. Handles stay valid for the StatGroup's lifetime — the
 * backing map is node-based, and reset() zeroes values in place.
 */
class StatGroup
{
  public:
    /**
     * Stable reference to counter `name`, created at zero if absent.
     * Cache the reference; increments through it are a single add.
     */
    Counter &
    counter(const std::string &name)
    {
        return counters_[name];
    }

    /** Add delta to counter `name`, creating it at zero if absent. */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Set counter `name` to an absolute value. */
    void
    set(const std::string &name, std::uint64_t value)
    {
        counters_[name] = value;
    }

    /** Current value of counter `name` (zero if never touched). */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** All counters, sorted by name for stable output. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /** Reset every counter to zero. */
    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second = 0;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace stitch

#endif // STITCH_COMMON_STATS_HH
