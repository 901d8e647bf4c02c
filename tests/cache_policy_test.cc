/**
 * @file
 * Tests for the fragment cache eviction policies (FlushAll vs LRU)
 * at path granularity - the geometry serving sessions run the cache
 * at - and their system-level accounting.
 */

#include <gtest/gtest.h>

#include "dynamo/code_cache.hh"
#include "dynamo/system.hh"

using namespace hotpath;

namespace
{

PathEvent
event(PathIndex path, std::uint32_t instructions = 40)
{
    PathEvent e;
    e.path = path;
    e.head = path;
    e.blocks = 8;
    e.branches = 8;
    e.instructions = instructions;
    return e;
}

/** A path-granularity cache: capacity in instructions (one byte per
 *  instruction), as engine::Session builds it. */
CodeCache
pathCache(std::uint64_t capacity_instructions, CachePolicy policy)
{
    CodeCacheConfig config;
    config.capacityBytes = capacity_instructions;
    config.policy = policy;
    config.bytesPerInstr = 1;
    return CodeCache(config);
}

} // namespace

TEST(CachePolicyTest, LruEvictsOldestUntilFit)
{
    CodeCache cache = pathCache(250, CachePolicy::EvictLru);
    EXPECT_FALSE(cache.insert(1, 100).flushed);
    EXPECT_FALSE(cache.insert(2, 100).flushed);
    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_NE(cache.find(1), nullptr);
    EXPECT_FALSE(cache.insert(3, 100).flushed); // evicts 2, not 1
    EXPECT_NE(cache.find(1), nullptr);
    EXPECT_EQ(cache.find(2), nullptr);
    EXPECT_NE(cache.find(3), nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.flushes(), 0u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.residentBytes(), 200u);
}

TEST(CachePolicyTest, LruEvictsMultipleForLargeFragment)
{
    CodeCache cache = pathCache(300, CachePolicy::EvictLru);
    cache.insert(1, 100);
    cache.insert(2, 100);
    cache.insert(3, 100);
    cache.insert(4, 250); // must evict at least two victims
    EXPECT_GE(cache.evictions(), 2u);
    EXPECT_LE(cache.residentBytes(), 300u + 250u);
    EXPECT_NE(cache.find(4), nullptr);
}

TEST(CachePolicyTest, FlushAllStillFlushesWholesale)
{
    CodeCache cache = pathCache(150, CachePolicy::FlushAll);
    cache.insert(1, 100);
    EXPECT_TRUE(cache.insert(2, 100).flushed);
    EXPECT_EQ(cache.flushes(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(CachePolicyTest, UnlimitedCacheNeverEvicts)
{
    CodeCache cache = pathCache(0, CachePolicy::EvictLru);
    for (PathIndex p = 0; p < 1000; ++p)
        cache.insert(p, 100);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.size(), 1000u);
}

TEST(CachePolicyTest, FindRefreshesLruAge)
{
    CodeCache cache = pathCache(200, CachePolicy::EvictLru);
    cache.insert(1, 100);
    cache.insert(2, 100);
    // Repeated use of 1 keeps it alive through many inserts.
    for (PathIndex p = 10; p < 20; ++p) {
        EXPECT_NE(cache.find(1), nullptr);
        cache.insert(p, 100);
    }
    EXPECT_NE(cache.find(1), nullptr);
}

TEST(CachePolicyTest, SystemChargesEvictionCost)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 1;
    config.enableFlush = false;
    config.cache.capacityBytes = 100 * config.cache.bytesPerInstr;
    config.cache.policy = CachePolicy::EvictLru;
    DynamoSystem system(config);

    std::uint64_t t = 0;
    for (PathIndex p = 0; p < 10; ++p)
        system.onPathEvent(event(p), t++);

    const DynamoReport report = system.report();
    EXPECT_GT(report.cacheEvictions, 0u);
    EXPECT_EQ(report.cacheFlushes, 0u);
    EXPECT_NEAR(report.flushCycles,
                static_cast<double>(report.cacheEvictions) *
                    config.costs.evictionCost,
                1e-9);
}

TEST(CachePolicyTest, LruSurvivesPhaseChangeWithoutDetector)
{
    // Two-phase toy: paths 0..4 hot, then 10..14 hot. With a cache
    // holding ~5 fragments, LRU must end up holding the second
    // phase's fragments without any flush.
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 2;
    config.enableFlush = false;
    config.cache.capacityBytes = 5 * 40 * config.cache.bytesPerInstr;
    config.cache.policy = CachePolicy::EvictLru;
    config.cache.stubBytes = 0; // keep the five-fragment fit exact
    DynamoSystem system(config);

    std::uint64_t t = 0;
    for (int round = 0; round < 200; ++round)
        for (PathIndex p = 0; p < 5; ++p)
            system.onPathEvent(event(p), t++);
    for (int round = 0; round < 200; ++round)
        for (PathIndex p = 10; p < 15; ++p)
            system.onPathEvent(event(p), t++);

    EXPECT_EQ(system.report().cacheFlushes, 0u);
    EXPECT_GE(system.report().cacheEvictions, 5u);
    EXPECT_EQ(system.cache().size(), 5u);
    // All resident fragments belong to the second phase.
    for (PathIndex p = 10; p < 15; ++p)
        EXPECT_NE(system.cache().peek(p), nullptr);
}
