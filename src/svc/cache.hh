/**
 * @file
 * Content-addressed result cache for simulation jobs.
 *
 * Identity is the job spec's canonical form (svc/job.hh). The memory
 * layer is indexed by the canonical form itself; the disk layer is
 * named by its hash (the cache key), and every stored entry echoes
 * the canonical spec so a hit is verified byte-for-byte against what
 * was asked for — a hash collision or a corrupted file degrades to a
 * miss, never to a wrong report.
 *
 * Two layers share one interface: a bounded in-memory LRU (per
 * engine, catches intra-batch duplicates) and an optional on-disk
 * store (`<dir>/<key>.json`, survives processes — a re-submitted
 * batch performs zero simulations). Entries carry a version stamp
 * combining the job-schema, run-report and engine versions; a stamp
 * mismatch invalidates the entry on read, so bumping any of the three
 * retires every stale result at once.
 *
 * The disk layer is crash-safe: every store writes a private
 * `<key>.<seq>.tmp` file and renames it over the final path, so a
 * reader can never observe a half-written entry and a crash leaves
 * at worst an orphaned temp file. recoverDiskStore() (run by the
 * constructor) sweeps those orphans and quarantines any entry that
 * no longer parses — renamed to `<name>.quarantine` so the evidence
 * survives for post-mortems but can never be served. Disk write
 * failures degrade, after a few consecutive losses, to memory-only
 * mode (counted, logged once) instead of failing jobs whose results
 * are perfectly good.
 */

#ifndef STITCH_SVC_CACHE_HH
#define STITCH_SVC_CACHE_HH

#include <atomic>
#include <cstddef>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "obs/json.hh"
#include "svc/chaos.hh"
#include "svc/job.hh"
#include "telem/span.hh"

namespace stitch::svc
{

inline constexpr const char *cacheEntrySchema = "stitch-cache-entry";
inline constexpr int cacheEntryVersion = 1;

/** Bumped whenever the engine changes what a stored result means
 *  or how its key is formed (independent of the job-schema and
 *  report versions). 2: the scheduler left the cache identity. */
inline constexpr int engineVersion = 2;

/** The invalidation stamp every entry must match to be served. */
std::string cacheStamp();

/** One cached job outcome. */
struct CacheEntry
{
    obs::Json report;  ///< the run report document
    obs::Json derived; ///< svc::derivedJson() scalars
};

/**
 * In-memory LRU + optional on-disk store (see file comment).
 * Thread-safe: every method locks internally, so engine workers can
 * probe and store concurrently. The memory phase (memLookup) is a
 * map probe — cheap enough for the engine to call while holding its
 * claim lock, which is what makes cache-hit attribution
 * deterministic under any worker count.
 */
class ResultCache
{
  public:
    /**
     * @param dir         on-disk store directory; empty disables the
     *                    disk layer. Created on first store.
     * @param memEntries  LRU capacity; 0 disables the memory layer.
     */
    explicit ResultCache(std::string dir = "",
                         std::size_t memEntries = 256);

    /** Probe the memory layer only (refreshes recency) by the
     *  spec's canonical form, `canonicalJson().dump()` — exact, not
     *  a hash. A live `trace` context records the probe as a
     *  cache_probe span. */
    std::optional<CacheEntry>
    memLookup(const std::string &canonical,
              const telem::TraceContext &trace = {});

    /**
     * Probe the disk layer (verifying stamp and spec echo; a hit is
     * promoted into memory). File I/O and JSON parsing happen here —
     * call without holding external locks. A live `trace` context
     * records the probe as a cache_probe span.
     */
    std::optional<CacheEntry>
    diskLookup(const JobSpec &spec,
               const telem::TraceContext &trace = {});

    /** memLookup then diskLookup — the simple client entry point. */
    std::optional<CacheEntry>
    lookup(const JobSpec &spec,
           const telem::TraceContext &trace = {});

    /**
     * Store the outcome of `spec` in every enabled layer. The disk
     * write is atomic (temp file + rename) and *best-effort*: a
     * failed write is counted and — after `writeFailureLimit`
     * consecutive losses — degrades the cache to memory-only mode,
     * but never throws (the job's result is good; only its
     * persistence is lost).
     */
    void store(const JobSpec &spec, const CacheEntry &entry);

    /**
     * Startup recovery scan of the disk store (no-op when the
     * directory is absent): orphaned `*.tmp` files from a crashed
     * writer are deleted, and entries that no longer parse as JSON
     * objects are renamed to `<name>.quarantine` — kept for
     * post-mortems, never served. Returns tmp-sweeps + quarantines.
     * The constructor runs this; tests may re-run it after seeding
     * torn files.
     */
    std::size_t recoverDiskStore();

    /**
     * Arm deterministic write-failure / torn-write injection (chaos
     * campaign). Non-owning; the injector must outlive the cache.
     * Decisions are keyed on the store ordinal, so a single-worker
     * engine replays them exactly.
     */
    void
    setFaultInjector(const ServiceFaultInjector *injector)
    {
        injector_ = injector;
    }

    /** Consecutive disk write failures that trip memory-only mode. */
    static constexpr std::uint64_t writeFailureLimit = 3;

    bool diskEnabled() const { return !dir_.empty(); }
    bool memEnabled() const { return memEntries_ > 0; }
    bool enabled() const { return diskEnabled() || memEnabled(); }
    const std::string &dir() const { return dir_; }

    /** True once disk *writes* have degraded to memory-only mode
     *  (reads of entries already on disk keep working). */
    bool
    memoryOnly() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

    /** Lookup/store activity since construction. */
    struct Stats
    {
        std::uint64_t memHits = 0;
        std::uint64_t diskHits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        std::uint64_t invalidated = 0; ///< stale stamp / bad echo
        std::uint64_t evictions = 0;   ///< LRU capacity evictions
        std::uint64_t writeFailures = 0; ///< disk stores lost
        std::uint64_t tornWrites = 0;  ///< injected torn entries left
        std::uint64_t quarantined = 0; ///< entries quarantined on scan
        std::uint64_t tmpSwept = 0;    ///< orphan tmp files removed
        bool degraded = false;         ///< memory-only mode tripped

        /** Hits over lookups (memory + disk), in [0, 1]. */
        double hitRate() const;
    };
    Stats stats() const;

  private:
    std::string diskPath(const std::string &key) const;
    void memInsert(const std::string &canonical,
                   const CacheEntry &entry);
    void noteWriteFailure(const std::string &why);

    mutable std::mutex mutex_;
    std::string dir_;
    std::size_t memEntries_;
    Stats stats_;
    std::atomic<bool> degraded_{false};
    std::uint64_t consecutiveWriteFailures_ = 0; ///< under mutex_
    std::atomic<std::uint64_t> storeSeq_{0}; ///< tmp names + chaos key
    const ServiceFaultInjector *injector_ = nullptr;

    /** LRU: most-recent at the front; map values point into lru_,
     *  keyed by the canonical spec. */
    struct MemEntry
    {
        std::string canonical;
        CacheEntry entry;
    };
    std::list<MemEntry> lru_;
    std::map<std::string, std::list<MemEntry>::iterator> index_;
};

} // namespace stitch::svc

#endif // STITCH_SVC_CACHE_HH
