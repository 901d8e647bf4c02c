#include "dynamo/code_cache.hh"

#include <algorithm>

#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace hotpath
{

namespace
{

/** Read-only view of `fragment`'s links; empty when it has none. */
const FragmentLinks &
viewLinks(const CodeFragment &fragment)
{
    static const FragmentLinks none;
    return fragment.links ? *fragment.links : none;
}

} // namespace

const char *
cachePolicyName(CachePolicy policy)
{
    switch (policy) {
      case CachePolicy::FlushAll:
        return "flush-all";
      case CachePolicy::EvictLru:
        return "lru";
      case CachePolicy::EvictFifo:
        return "fifo";
      case CachePolicy::Generational:
        return "generational";
    }
    return "?";
}

const char *
evictReasonName(EvictReason reason)
{
    switch (reason) {
      case EvictReason::Capacity:
        return "capacity";
      case EvictReason::Generation:
        return "generation";
      case EvictReason::Flush:
        return "flush";
    }
    return "?";
}

CodeCache::CodeCache(CodeCacheConfig config) : cfg(config)
{
    HOTPATH_ASSERT(cfg.bytesPerInstr > 0, "degenerate code geometry");
    HOTPATH_ASSERT(cfg.generationInserts > 0,
                   "generation granularity must be >= 1");
    tmHits = telemetry::counter("dynamo.cache.hits");
    tmMisses = telemetry::counter("dynamo.cache.misses");
    tmInserts = telemetry::counter("dynamo.cache.inserts");
    tmFlushes = telemetry::counter("dynamo.cache.flushes");
    tmLinksMade = telemetry::counter("dynamo.cache.links.made");
    tmLinksBroken = telemetry::counter("dynamo.cache.links.broken");
    for (std::size_t r = 0; r < kEvictReasonCount; ++r) {
        tmEvictions[r] = telemetry::counter(
            std::string("dynamo.cache.evictions.") +
            evictReasonName(static_cast<EvictReason>(r)));
    }
    tmDispatchLinked =
        telemetry::counter("dynamo.cache.dispatch.linked");
    tmDispatchUnlinked =
        telemetry::counter("dynamo.cache.dispatch.unlinked");
    tmResidentBytes = telemetry::gauge("dynamo.cache.resident.bytes");
    tmResidentFragments =
        telemetry::gauge("dynamo.cache.resident.fragments");
    tmFragmentBytes =
        telemetry::histogram("dynamo.cache.fragment.bytes");
}

CodeCache::~CodeCache()
{
    trackResident(-static_cast<std::int64_t>(occupancy),
                  -static_cast<std::int64_t>(fragments.size()));
}

void
CodeCache::trackResident(std::int64_t bytes, std::int64_t count)
{
    if (tmResidentBytes)
        tmResidentBytes->add(bytes);
    if (tmResidentFragments)
        tmResidentFragments->add(count);
}

FragmentLinks &
CodeCache::linksOf(CodeFragment &fragment)
{
    if (!fragment.links)
        fragment.links = std::make_unique<FragmentLinks>();
    return *fragment.links;
}

void
CodeCache::patchStub(CodeFragment &from, std::size_t stub_index,
                     CodeFragment &to)
{
    ExitStub &stub = linksOf(from).stubs[stub_index];
    HOTPATH_ASSERT(!stub.linked, "stub already patched");
    HOTPATH_ASSERT(stub.target == to.key, "stub/target mismatch");
    stub.linked = true;
    linksOf(to).inbound.push_back(from.key);
    ++linkMade;
    if (tmLinksMade)
        tmLinksMade->add(1);
}

void
CodeCache::evictVictims(std::uint64_t incoming_bytes, bool fifo,
                        InsertStats &stats)
{
    while (!fragments.empty() &&
           occupancy + incoming_bytes > cfg.capacityBytes) {
        auto victim = fragments.begin();
        for (auto it = fragments.begin(); it != fragments.end();
             ++it) {
            const std::uint64_t it_age =
                fifo ? it->second.sequence : it->second.lastUse;
            const std::uint64_t victim_age = fifo
                ? victim->second.sequence
                : victim->second.lastUse;
            if (it_age < victim_age)
                victim = it;
        }
        evict(victim->first, EvictReason::Capacity);
        ++stats.evicted;
    }
}

void
CodeCache::evictOldestGeneration(InsertStats &stats)
{
    std::uint64_t oldest = ~std::uint64_t{0};
    for (const auto &entry : fragments)
        oldest = std::min(oldest, entry.second.generation);
    std::vector<std::uint32_t> victims;
    for (const auto &entry : fragments) {
        if (entry.second.generation == oldest)
            victims.push_back(entry.first);
    }
    // Deterministic eviction order regardless of hash layout.
    std::sort(victims.begin(), victims.end());
    for (const std::uint32_t key : victims) {
        evict(key, EvictReason::Generation);
        ++stats.evicted;
    }
}

void
CodeCache::applyCapacityPolicy(std::uint64_t incoming_bytes,
                               InsertStats &stats)
{
    if (cfg.capacityBytes == 0 ||
        occupancy + incoming_bytes <= cfg.capacityBytes)
        return;
    switch (cfg.policy) {
      case CachePolicy::FlushAll:
        flushAll();
        stats.flushed = true;
        break;
      case CachePolicy::EvictLru:
        evictVictims(incoming_bytes, /*fifo=*/false, stats);
        break;
      case CachePolicy::EvictFifo:
        evictVictims(incoming_bytes, /*fifo=*/true, stats);
        break;
      case CachePolicy::Generational:
        while (!fragments.empty() &&
               occupancy + incoming_bytes > cfg.capacityBytes)
            evictOldestGeneration(stats);
        break;
    }
}

InsertStats
CodeCache::insert(std::uint32_t key, std::uint32_t instructions,
                  double ratio, StitchedFragment stitched)
{
    HOTPATH_ASSERT(fragments.find(key) == fragments.end(),
                   "fragment already cached for this key");
    InsertStats stats;
    const std::uint64_t code_bytes =
        static_cast<std::uint64_t>(instructions) * cfg.bytesPerInstr;
    applyCapacityPolicy(code_bytes, stats);

    if (insertsThisGeneration >= cfg.generationInserts) {
        ++generation;
        insertsThisGeneration = 0;
    }
    ++insertsThisGeneration;

    CodeFragment fragment;
    fragment.key = key;
    fragment.instructions = instructions;
    fragment.sizeBytes = code_bytes;
    fragment.lastUse = ++clock;
    fragment.sequence = ++sequence;
    fragment.generation = generation;
    fragment.ratio = ratio;
    if (!stitched.blocks.empty())
        linksOf(fragment).stitched = std::move(stitched);
    auto [it, inserted] = fragments.emplace(key, std::move(fragment));
    HOTPATH_ASSERT(inserted);
    occupancy += code_bytes;
    ++formed;
    if (tmInserts)
        tmInserts->add(1);
    if (tmFragmentBytes)
        tmFragmentBytes->record(code_bytes);

    // Creation-time linking: every resident stub waiting on this
    // head is patched branch-to-fragment right now.
    const auto pending = pendingStubs.find(key);
    if (pending != pendingStubs.end()) {
        for (const std::uint32_t owner : pending->second) {
            auto from = fragments.find(owner);
            HOTPATH_ASSERT(from != fragments.end(),
                           "pending stub with evicted owner");
            std::vector<ExitStub> &stubs = linksOf(from->second).stubs;
            for (std::size_t s = 0; s < stubs.size(); ++s) {
                ExitStub &stub = stubs[s];
                if (stub.target == key && !stub.linked) {
                    patchStub(from->second, s, it->second);
                    ++stats.linksMade;
                    break;
                }
            }
        }
        pendingStubs.erase(pending);
    }

    telemetry::emit(telemetry::TraceEventKind::FragmentInsert,
                    "dynamo.cache",
                    {{"key", key},
                     {"bytes", code_bytes},
                     {"links", stats.linksMade},
                     {"occupancy", occupancy}});
    trackResident(static_cast<std::int64_t>(code_bytes), 1);
    return stats;
}

CodeFragment *
CodeCache::find(std::uint32_t key)
{
    const auto it = fragments.find(key);
    if (it == fragments.end()) {
        if (tmMisses)
            tmMisses->add(1);
        return nullptr;
    }
    if (tmHits)
        tmHits->add(1);
    it->second.lastUse = ++clock;
    return &it->second;
}

const CodeFragment *
CodeCache::peek(std::uint32_t key) const
{
    const auto it = fragments.find(key);
    return it == fragments.end() ? nullptr : &it->second;
}

bool
CodeCache::contains(std::uint32_t key) const
{
    return fragments.find(key) != fragments.end();
}

ExitKind
CodeCache::recordExit(std::uint32_t from, std::uint32_t to)
{
    const auto from_it = fragments.find(from);
    HOTPATH_ASSERT(from_it != fragments.end(),
                   "exit from a non-resident fragment");
    CodeFragment &source = from_it->second;

    for (const ExitStub &stub : viewLinks(source).stubs) {
        if (stub.target != to)
            continue;
        if (stub.linked) {
            if (tmDispatchLinked)
                tmDispatchLinked->add(1);
            return ExitKind::Linked;
        }
        // An unlinked stub implies the target is absent: insert()
        // patches waiting stubs the moment a target becomes
        // resident.
        HOTPATH_ASSERT(fragments.find(to) == fragments.end(),
                       "unlinked stub with a resident target");
        if (tmDispatchUnlinked)
            tmDispatchUnlinked->add(1);
        return ExitKind::Unlinked;
    }

    // First exit to this target: materialize the stub trampoline.
    std::vector<ExitStub> &stubs = linksOf(source).stubs;
    stubs.push_back(ExitStub{to, false});
    source.sizeBytes += cfg.stubBytes;
    occupancy += cfg.stubBytes;
    trackResident(cfg.stubBytes, 0);
    const auto to_it = fragments.find(to);
    if (to_it != fragments.end()) {
        // Target already resident: this runtime round trip patches
        // the fresh stub; subsequent exits branch directly.
        patchStub(source, stubs.size() - 1, to_it->second);
        if (tmDispatchUnlinked)
            tmDispatchUnlinked->add(1);
        return ExitKind::PatchedNow;
    }
    pendingStubs[to].push_back(from);
    if (tmDispatchUnlinked)
        tmDispatchUnlinked->add(1);
    return ExitKind::Unlinked;
}

bool
CodeCache::evict(std::uint32_t key, EvictReason reason)
{
    const auto it = fragments.find(key);
    if (it == fragments.end())
        return false;
    CodeFragment &victim = it->second;

    // Outbound repair: detach this fragment's own exits.
    const FragmentLinks &links = viewLinks(victim);
    for (const ExitStub &stub : links.stubs) {
        if (stub.linked) {
            ++linkBroken;
            if (tmLinksBroken)
                tmLinksBroken->add(1);
            if (stub.target == key)
                continue; // self link dies with the fragment
            auto target = fragments.find(stub.target);
            HOTPATH_ASSERT(target != fragments.end(),
                           "linked stub with absent target");
            auto &inbound = linksOf(target->second).inbound;
            const auto pos =
                std::find(inbound.begin(), inbound.end(), key);
            HOTPATH_ASSERT(pos != inbound.end(),
                           "linked stub missing from target inbound");
            inbound.erase(pos);
        } else {
            auto pending = pendingStubs.find(stub.target);
            HOTPATH_ASSERT(pending != pendingStubs.end(),
                           "unlinked stub not pending");
            auto &owners = pending->second;
            const auto pos =
                std::find(owners.begin(), owners.end(), key);
            HOTPATH_ASSERT(pos != owners.end(),
                           "unlinked stub not pending for owner");
            owners.erase(pos);
            if (owners.empty())
                pendingStubs.erase(pending);
        }
    }

    // Inbound repair: every neighbour's linked stub reverts to stub
    // state and re-queues for a future fragment at this head.
    for (const std::uint32_t owner : links.inbound) {
        if (owner == key)
            continue; // self link, handled above
        auto from = fragments.find(owner);
        HOTPATH_ASSERT(from != fragments.end(),
                       "inbound link from absent fragment");
        bool reverted = false;
        for (ExitStub &stub : linksOf(from->second).stubs) {
            if (stub.target == key && stub.linked) {
                stub.linked = false;
                reverted = true;
                break;
            }
        }
        HOTPATH_ASSERT(reverted, "inbound entry without linked stub");
        ++linkBroken;
        if (tmLinksBroken)
            tmLinksBroken->add(1);
        pendingStubs[key].push_back(owner);
    }

    telemetry::emit(telemetry::TraceEventKind::FragmentEvict,
                    "dynamo.cache",
                    {{"key", key}, {"bytes", victim.sizeBytes}},
                    evictReasonName(reason));
    occupancy -= victim.sizeBytes;
    trackResident(-static_cast<std::int64_t>(victim.sizeBytes), -1);
    fragments.erase(it);
    ++evicted[static_cast<std::size_t>(reason)];
    if (tmEvictions[static_cast<std::size_t>(reason)])
        tmEvictions[static_cast<std::size_t>(reason)]->add(1);
    return true;
}

void
CodeCache::flushAll()
{
    telemetry::emit(telemetry::TraceEventKind::CacheFlush,
                    "dynamo.cache",
                    {{"fragments", fragments.size()},
                     {"occupancy", occupancy}});
    std::uint64_t live_links = 0;
    for (const auto &entry : fragments) {
        for (const ExitStub &stub : viewLinks(entry.second).stubs)
            live_links += stub.linked ? 1 : 0;
    }
    linkBroken += live_links;
    if (tmLinksBroken && live_links > 0)
        tmLinksBroken->add(live_links);
    const std::uint64_t dropped = fragments.size();
    evicted[static_cast<std::size_t>(EvictReason::Flush)] += dropped;
    if (tmEvictions[static_cast<std::size_t>(EvictReason::Flush)] &&
        dropped > 0)
        tmEvictions[static_cast<std::size_t>(EvictReason::Flush)]
            ->add(dropped);
    trackResident(-static_cast<std::int64_t>(occupancy),
                  -static_cast<std::int64_t>(dropped));
    fragments.clear();
    pendingStubs.clear();
    occupancy = 0;
    ++flushCount;
    if (tmFlushes)
        tmFlushes->add(1);
}

void
CodeCache::restore(std::uint32_t key, std::uint32_t instructions,
                   std::uint64_t lastUse)
{
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(instructions) * cfg.bytesPerInstr;
    CodeFragment fragment;
    fragment.key = key;
    fragment.instructions = instructions;
    fragment.sizeBytes = bytes;
    fragment.lastUse = lastUse;
    const bool inserted =
        fragments.emplace(key, std::move(fragment)).second;
    HOTPATH_ASSERT(inserted, "fragment already cached for this key");
    occupancy += bytes;
    trackResident(static_cast<std::int64_t>(bytes), 1);
}

std::uint64_t
CodeCache::evictions() const
{
    return evicted[static_cast<std::size_t>(EvictReason::Capacity)] +
           evicted[static_cast<std::size_t>(EvictReason::Generation)];
}

bool
CodeCache::verifyLinkInvariants(std::string *error) const
{
    const auto fail = [error](std::string message) {
        if (error)
            *error = std::move(message);
        return false;
    };

    std::uint64_t tallied_bytes = 0;
    for (const auto &[key, fragment] : fragments) {
        tallied_bytes += fragment.sizeBytes;
        for (const ExitStub &stub : viewLinks(fragment).stubs) {
            const auto target = fragments.find(stub.target);
            if (stub.linked) {
                if (target == fragments.end())
                    return fail("linked stub " + std::to_string(key) +
                                "->" + std::to_string(stub.target) +
                                " has non-resident target");
                const auto &inbound = viewLinks(target->second).inbound;
                if (std::count(inbound.begin(), inbound.end(), key) !=
                    1)
                    return fail("linked stub " + std::to_string(key) +
                                "->" + std::to_string(stub.target) +
                                " not mirrored inbound exactly once");
            } else {
                if (target != fragments.end())
                    return fail("unlinked stub " +
                                std::to_string(key) + "->" +
                                std::to_string(stub.target) +
                                " despite resident target");
                const auto pending = pendingStubs.find(stub.target);
                if (pending == pendingStubs.end() ||
                    std::count(pending->second.begin(),
                               pending->second.end(), key) != 1)
                    return fail("unlinked stub " +
                                std::to_string(key) + "->" +
                                std::to_string(stub.target) +
                                " not pending exactly once");
            }
        }
        for (const std::uint32_t owner : viewLinks(fragment).inbound) {
            const auto from = fragments.find(owner);
            if (from == fragments.end())
                return fail("inbound link from non-resident " +
                            std::to_string(owner));
            std::size_t linked_stubs = 0;
            for (const ExitStub &stub : viewLinks(from->second).stubs) {
                if (stub.target == key && stub.linked)
                    ++linked_stubs;
            }
            if (linked_stubs != 1)
                return fail("inbound entry " + std::to_string(owner) +
                            "->" + std::to_string(key) +
                            " without exactly one linked stub");
        }
    }
    if (tallied_bytes != occupancy)
        return fail("occupancy " + std::to_string(occupancy) +
                    " != tallied " + std::to_string(tallied_bytes));
    for (const auto &[target, owners] : pendingStubs) {
        if (fragments.find(target) != fragments.end())
            return fail("pending stubs for resident target " +
                        std::to_string(target));
        for (const std::uint32_t owner : owners) {
            const auto from = fragments.find(owner);
            if (from == fragments.end())
                return fail("pending stub owned by non-resident " +
                            std::to_string(owner));
            bool found = false;
            for (const ExitStub &stub : viewLinks(from->second).stubs)
                found |= stub.target == target && !stub.linked;
            if (!found)
                return fail("pending entry " + std::to_string(owner) +
                            "->" + std::to_string(target) +
                            " without matching unlinked stub");
        }
    }
    return true;
}

} // namespace hotpath
