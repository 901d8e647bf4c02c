/**
 * @file
 * The managed code cache: a size-bounded arena of linked fragments.
 *
 * The one fragment cache of the repository. It is the executing
 * cache of the Dynamo loop - it owns the stitched fragments the
 * Machine dispatches through (sim/dispatch.hh), the exit-stub link
 * graph between them, and the capacity-management policies the
 * paper's Section 6 discussion motivates measuring - and, at path
 * granularity (key = PathIndex, no stitched sequence, no exits), the
 * per-session cache of the serving tier (engine/session.hh), whose
 * LRU state migrates between backends via restore().
 *
 * Linking model (Dynamo's): every fragment exit is initially a stub -
 * a short trampoline that returns control to the runtime. When the
 * exit's target head acquires its own fragment, the stub is patched
 * into a direct branch-to-fragment ("linked"): subsequent transfers
 * bypass the runtime entirely. Two moments patch stubs:
 *
 *  - insert-time: creating a fragment for head H immediately links
 *    every resident stub that targets H (Dynamo links both directions
 *    at fragment creation using its exit-stub lists);
 *  - exit-time: the first exit to an already-resident target pays the
 *    one runtime round trip that performs the patch (recordExit
 *    returns ExitKind::PatchedNow).
 *
 * Unlink-on-evict invariant: evicting fragment F reverts every
 * inbound linked stub to stub state (the neighbours fall back to the
 * runtime round trip) and detaches F's own outbound links from its
 * targets' inbound lists. verifyLinkInvariants() checks the whole
 * graph and is exercised by tests/dynamo_cache_test.cc.
 *
 * Capacity policies (CachePolicy):
 *
 *  - FlushAll:     Dynamo's production choice - exceeding capacity
 *                  empties the whole cache (unlinking is free because
 *                  everything goes);
 *  - EvictLru:     least-recently-executed fragment granularity, each
 *                  victim paying individual link repair;
 *  - EvictFifo:    formation-order fragment granularity (no touch
 *                  bookkeeping on the hot path);
 *  - Generational: fragments are grouped into insertion generations
 *                  and the oldest resident generation is dropped
 *                  wholesale - the middle ground between piecemeal
 *                  eviction and total flushes.
 */

#ifndef HOTPATH_DYNAMO_CODE_CACHE_HH
#define HOTPATH_DYNAMO_CODE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/dispatch.hh"

namespace hotpath
{

namespace telemetry
{
class Counter;
class Gauge;
class Histogram;
} // namespace telemetry

/** Capacity-management policy of the managed code cache. */
enum class CachePolicy : std::uint8_t
{
    /** Wholesale flush on capacity pressure (Dynamo's policy). */
    FlushAll,
    /** Evict least-recently-executed fragments one by one. */
    EvictLru,
    /** Evict oldest-formed fragments one by one. */
    EvictFifo,
    /** Drop the oldest insertion generation wholesale. */
    Generational,
};

/** Number of distinct cache policies (sweep loops). */
constexpr std::size_t kCachePolicyCount = 4;

/** Stable lower-case policy name for tables and JSON. */
const char *cachePolicyName(CachePolicy policy);

/** Why a fragment left the cache (eviction telemetry buckets). */
enum class EvictReason : std::uint8_t
{
    /** Piecemeal capacity eviction (EvictLru / EvictFifo). */
    Capacity,
    /** Generation drop (Generational policy). */
    Generation,
    /** Wholesale flush (capacity under FlushAll, or flushAll()). */
    Flush,
};

/** Number of distinct eviction reasons. */
constexpr std::size_t kEvictReasonCount = 3;

/** Stable lower-case reason name for tables and metrics. */
const char *evictReasonName(EvictReason reason);

/** Code-cache geometry and policy. */
struct CodeCacheConfig
{
    /** Arena capacity in bytes; 0 = unlimited. */
    std::uint64_t capacityBytes = 0;

    /** What to do when an insert exceeds the capacity. */
    CachePolicy policy = CachePolicy::FlushAll;

    /** Emitted code bytes per trace instruction. */
    std::uint32_t bytesPerInstr = 4;

    /** Bytes of one exit-stub trampoline. */
    std::uint32_t stubBytes = 16;

    /** Inserts per generation (Generational policy granularity). */
    std::uint32_t generationInserts = 64;
};

/** One fragment exit: a stub until its target fragment is resident. */
struct ExitStub
{
    /** Head key the exit transfers to. */
    std::uint32_t target = 0;

    /** True once the stub is patched branch-to-fragment. */
    bool linked = false;
};

/** A fragment's stitched block sequence and exit-stub links. */
struct FragmentLinks
{
    /** The stitched block sequence the Machine dispatches. */
    StitchedFragment stitched;

    /** Outbound exits, in creation order. */
    std::vector<ExitStub> stubs;

    /** Keys of fragments holding a linked stub targeting this one. */
    std::vector<std::uint32_t> inbound;
};

/** One resident fragment plus its link bookkeeping. */
struct CodeFragment
{
    /** Head key (BlockId at CFG granularity, PathIndex at path
     *  granularity). */
    std::uint32_t key = 0;

    /** Trace instructions the fragment was formed from. */
    std::uint32_t instructions = 0;

    /** Arena bytes occupied (code plus live stub trampolines). */
    std::uint64_t sizeBytes = 0;

    /** Last-use stamp from the cache's monotonic clock. */
    std::uint64_t lastUse = 0;

    /** Formation order (FIFO eviction key). */
    std::uint64_t sequence = 0;

    /** Insertion generation (Generational eviction key). */
    std::uint64_t generation = 0;

    /** Optimized instructions per original instruction (<= 1 once
     *  the trace optimizer ran; 1.0 for layout-only fragments). */
    double ratio = 1.0;

    /**
     * Stitched sequence and links, allocated once the fragment has
     * any; null for the path-granularity fragments of serving
     * sessions, so that the many fragments a server keeps resident
     * stay small (a lookup touches only the fields above).
     */
    std::unique_ptr<FragmentLinks> links;
};

/** What one insert did to the cache. */
struct InsertStats
{
    /** A wholesale capacity flush preceded the insert (FlushAll). */
    bool flushed = false;

    /** Fragments evicted to make room (piecemeal policies). */
    std::uint32_t evicted = 0;

    /** Resident stubs patched to the new fragment at insert time. */
    std::uint32_t linksMade = 0;
};

/** How one recorded fragment exit dispatched. */
enum class ExitKind : std::uint8_t
{
    /** The stub was already patched: direct branch, no runtime. */
    Linked,
    /** Target was resident but the stub was fresh: this exit paid
     *  the runtime round trip that patched it. */
    PatchedNow,
    /** Target not resident: runtime round trip through the stub. */
    Unlinked,
};

/**
 * The managed code cache. Single-threaded, like the Machine that
 * dispatches through it; the serving tier wraps per-session caches in
 * its own striped locks.
 */
class CodeCache
{
  public:
    /** Build an empty cache with the given geometry. */
    explicit CodeCache(CodeCacheConfig config = {});

    /** Withdraws the cache's share of the resident gauges. */
    ~CodeCache();

    CodeCache(const CodeCache &) = delete;
    CodeCache &operator=(const CodeCache &) = delete;

    /**
     * Insert a fragment for `key` (asserts no fragment is resident
     * for it). Applies the capacity policy first, then links every
     * resident stub targeting `key`. The stitched sequence may be
     * empty for path-granularity use.
     */
    InsertStats insert(std::uint32_t key, std::uint32_t instructions,
                       double ratio = 1.0,
                       StitchedFragment stitched = {});

    /**
     * Fragment lookup for execution: refreshes the LRU stamp and
     * bumps the hit/miss telemetry. nullptr when not resident.
     */
    CodeFragment *find(std::uint32_t key);

    /** Bookkeeping-silent lookup (no touch, no telemetry). */
    const CodeFragment *peek(std::uint32_t key) const;

    /** True when a fragment for `key` is resident. */
    bool contains(std::uint32_t key) const;

    /**
     * Record a fragment exit from `from` to `to` and return how it
     * dispatched. Creates the stub on first exit to `to`; patches it
     * immediately when `to` is resident. `from` must be resident.
     */
    ExitKind recordExit(std::uint32_t from, std::uint32_t to);

    /**
     * Evict one fragment, repairing the link graph (see file
     * comment). Returns false when `key` was not resident.
     */
    bool evict(std::uint32_t key, EvictReason reason);

    /** Drop every fragment (phase-change or capacity flush). */
    void flushAll();

    /** Resident fragment count. */
    std::size_t size() const { return fragments.size(); }

    /** Arena bytes currently occupied. */
    std::uint64_t residentBytes() const { return occupancy; }

    /** Configured capacity in bytes (0 = unlimited). */
    std::uint64_t capacityBytes() const { return cfg.capacityBytes; }

    /** Configured capacity policy. */
    CachePolicy policy() const { return cfg.policy; }

    /** Fragments formed over the lifetime (across flushes). */
    std::uint64_t fragmentsFormed() const { return formed; }

    /** Wholesale flushes performed. */
    std::uint64_t flushes() const { return flushCount; }

    /** Piecemeal + generation evictions over the lifetime. */
    std::uint64_t evictions() const;

    /** Evictions bucketed by reason. */
    std::uint64_t
    evictionsBy(EvictReason reason) const
    {
        return evicted[static_cast<std::size_t>(reason)];
    }

    /** Stubs patched branch-to-fragment over the lifetime. */
    std::uint64_t linksMade() const { return linkMade; }

    /** Linked stubs reverted by evictions/flushes. */
    std::uint64_t linksBroken() const { return linkBroken; }

    /** Currently linked stubs across all resident fragments. */
    std::uint64_t liveLinks() const { return linkMade - linkBroken; }

    /** Generation now receiving inserts (Generational policy). */
    std::uint64_t currentGeneration() const { return generation; }

    /** Visit every resident fragment (unspecified order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &entry : fragments)
            fn(entry.second);
    }

    // Migration support (engine::Session export/import) ------------

    /**
     * Reinstall a fragment on a fresh cache with its exact `lastUse`
     * stamp, so LRU eviction order after an import matches the
     * exporting cache. Unlike insert() there is no capacity check, no
     * counter or trace telemetry, and the fragment does not count as
     * formed; the resident gauges do include it. Asserts no fragment
     * is resident for `key`.
     */
    void restore(std::uint32_t key, std::uint32_t instructions,
                 std::uint64_t lastUse);

    /** The LRU clock (monotonic touch stamp source). */
    std::uint64_t clockValue() const { return clock; }

    /** Reset the LRU clock to an exported value (import path). */
    void setClockValue(std::uint64_t value) { clock = value; }

    /**
     * Whole-graph link audit for tests: every linked stub's target
     * is resident and lists the owner as inbound; every inbound
     * entry has a matching linked stub; no stub targets its owner's
     * pending list twice. Returns true when consistent; on failure
     * fills `error` (when non-null) with the first violation.
     */
    bool verifyLinkInvariants(std::string *error = nullptr) const;

  private:
    void applyCapacityPolicy(std::uint64_t incoming_bytes,
                             InsertStats &stats);
    void evictVictims(std::uint64_t incoming_bytes, bool fifo,
                      InsertStats &stats);
    void evictOldestGeneration(InsertStats &stats);
    /** `fragment`'s links, allocated on first use. */
    static FragmentLinks &linksOf(CodeFragment &fragment);
    /** Link the stub at `stub_index` of `from` to resident `to`. */
    void patchStub(CodeFragment &from, std::size_t stub_index,
                   CodeFragment &to);
    /** Add an occupancy change to the process-wide resident gauges,
     *  which sum over every live cache. */
    void trackResident(std::int64_t bytes, std::int64_t count);

    CodeCacheConfig cfg;
    std::unordered_map<std::uint32_t, CodeFragment> fragments;
    /** target key -> owners of unlinked stubs awaiting that target. */
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
        pendingStubs;

    std::uint64_t occupancy = 0;
    std::uint64_t formed = 0;
    std::uint64_t flushCount = 0;
    std::uint64_t evicted[kEvictReasonCount] = {0, 0, 0};
    std::uint64_t linkMade = 0;
    std::uint64_t linkBroken = 0;
    std::uint64_t clock = 0;
    std::uint64_t sequence = 0;
    std::uint64_t generation = 0;
    std::uint32_t insertsThisGeneration = 0;

    // Telemetry handles; nullptr when telemetry is not attached.
    telemetry::Counter *tmHits = nullptr;
    telemetry::Counter *tmMisses = nullptr;
    telemetry::Counter *tmInserts = nullptr;
    telemetry::Counter *tmFlushes = nullptr;
    telemetry::Counter *tmLinksMade = nullptr;
    telemetry::Counter *tmLinksBroken = nullptr;
    telemetry::Counter *tmEvictions[kEvictReasonCount] = {nullptr,
                                                          nullptr,
                                                          nullptr};
    telemetry::Counter *tmDispatchLinked = nullptr;
    telemetry::Counter *tmDispatchUnlinked = nullptr;
    telemetry::Gauge *tmResidentBytes = nullptr;
    telemetry::Gauge *tmResidentFragments = nullptr;
    telemetry::Histogram *tmFragmentBytes = nullptr;
};

} // namespace hotpath

#endif // HOTPATH_DYNAMO_CODE_CACHE_HH
