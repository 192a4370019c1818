/**
 * @file
 * Tests for the cache-geometry-limited metadata store (§3.6).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "cache_test_util.hh"
#include "common/rng.hh"
#include "detectors/meta_cache.hh"

namespace hard
{
namespace
{

struct Payload
{
    int value = -1; // default-constructed == "fresh"
};

CacheConfig
tinyGeom()
{
    return CacheConfig{256, 2, 32, 0}; // 4 sets x 2 ways
}

TEST(MetaCache, LookupCreatesFresh)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    bool fresh = false;
    Payload &p = mc.lookup(0x47, fresh);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(p.value, -1);
    p.value = 7;

    // Same line (0x40..0x5f): metadata persists.
    Payload &q = mc.lookup(0x5f, fresh);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(q.value, 7);
}

TEST(MetaCache, EvictionLosesMetadata)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    const Addr stride = tinyGeom().numSets() * 32; // same-set alias
    bool fresh;
    mc.lookup(0x0, fresh).value = 1;
    mc.lookup(stride, fresh).value = 2;
    // Third alias evicts LRU (0x0).
    mc.lookup(2 * stride, fresh).value = 3;
    EXPECT_EQ(mc.evictions(), 1u);
    EXPECT_EQ(mc.find(0x0), nullptr);

    // Re-lookup is fresh: the §3.6 detection-window loss.
    Payload &p = mc.lookup(0x0, fresh);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(p.value, -1);
}

TEST(MetaCache, LruKeepsRecentlyUsed)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    const Addr stride = tinyGeom().numSets() * 32;
    bool fresh;
    mc.lookup(0x0, fresh).value = 1;
    mc.lookup(stride, fresh).value = 2;
    mc.lookup(0x0, fresh); // refresh 0x0; stride is now LRU
    mc.lookup(2 * stride, fresh);
    EXPECT_NE(mc.find(0x0), nullptr);
    EXPECT_EQ(mc.find(stride), nullptr);
}

TEST(MetaCache, UnboundedNeverEvicts)
{
    MetaCache<Payload> mc(tinyGeom(), true);
    bool fresh;
    for (Addr a = 0; a < 100 * 32; a += 32)
        mc.lookup(a, fresh).value = static_cast<int>(a);
    EXPECT_EQ(mc.evictions(), 0u);
    EXPECT_EQ(mc.residentLines(), 100u);
    for (Addr a = 0; a < 100 * 32; a += 32) {
        Payload *p = mc.find(a);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->value, static_cast<int>(a));
    }
}

TEST(MetaCache, ForEachVisitsAllResidentLines)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    bool fresh;
    mc.lookup(0x0, fresh).value = 1;
    mc.lookup(0x40, fresh).value = 2;
    int sum = 0;
    unsigned count = 0;
    mc.forEach([&](Addr, Payload &p) {
        sum += p.value;
        ++count;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(sum, 3);
}

TEST(MetaCache, FindDoesNotCreate)
{
    MetaCache<Payload> mc(tinyGeom(), false);
    EXPECT_EQ(mc.find(0x1000), nullptr);
    EXPECT_EQ(mc.residentLines(), 0u);
}

/** Property: bounded stores respect capacity; unbounded never lose. */
class MetaCacheProperty : public ::testing::TestWithParam<bool>
{
};

TEST_P(MetaCacheProperty, CapacityAndFreshnessInvariants)
{
    const bool unbounded = GetParam();
    MetaCache<Payload> mc(tinyGeom(), unbounded);
    const std::size_t capacity = tinyGeom().numSets() * tinyGeom().assoc;
    Rng rng(5);
    std::uint64_t created = 0;

    for (int i = 0; i < 3000; ++i) {
        Addr a = rng.below(64) * 32;
        bool fresh;
        Payload &p = mc.lookup(a, fresh);
        if (fresh) {
            ASSERT_EQ(p.value, -1) << "stale payload on fresh line";
            p.value = 1;
            ++created;
        } else {
            ASSERT_EQ(p.value, 1);
        }
        if (!unbounded) {
            ASSERT_LE(mc.residentLines(), capacity);
        }
    }
    if (unbounded) {
        EXPECT_EQ(mc.evictions(), 0u);
        EXPECT_EQ(created, 64u); // one creation per distinct line
    } else {
        // Every creation beyond the first 64 is a re-creation of a
        // previously evicted line; some evicted lines may never come
        // back, so this is an upper bound.
        EXPECT_GE(created, 64u);
        EXPECT_LE(created, 64u + mc.evictions());
        EXPECT_GT(mc.evictions(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, MetaCacheProperty, ::testing::Bool());

/**
 * MetaCache places lines by CacheConfig::setIndex: over seeded random
 * lines, exactly the ones the reference puts in one set compete for
 * its ways, and each displaced address is one that was looked up.
 */
class MetaCacheIndexing : public ::testing::TestWithParam<CacheConfig>
{
};

TEST_P(MetaCacheIndexing, SetsFollowTheReferenceIndex)
{
    const CacheConfig geom = GetParam();
    MetaCache<Payload> mc(geom, false);
    Rng rng(geom.sizeBytes ^ geom.assoc);
    // Per reference set: resident lines, oldest first.
    std::map<std::uint64_t, std::deque<Addr>> sets;
    // Enough lookups over twice the capacity to both hit and evict.
    const std::uint64_t lookups = 8 * geom.numSets() * geom.assoc;
    for (std::uint64_t i = 0; i < lookups; ++i) {
        const Addr a =
            i % 4 == 0 ? rng.next64() : rng.below(2 * geom.sizeBytes);
        const Addr line = geom.lineAddr(a);
        std::deque<Addr> &set = sets[geom.setIndex(a)];
        bool fresh = false;
        Addr evicted = invalidAddr;
        mc.lookup(a, fresh, &evicted);
        auto it = std::find(set.begin(), set.end(), line);
        ASSERT_EQ(fresh, it == set.end()) << std::hex << a;
        if (!fresh) {
            set.erase(it); // a hit makes the line most recent
        } else if (set.size() == geom.assoc) {
            ASSERT_EQ(evicted, set.front()) << std::hex << a;
            set.pop_front();
        } else {
            ASSERT_EQ(evicted, invalidAddr) << std::hex << a;
        }
        set.push_back(line);
    }
    EXPECT_GT(mc.hits(), 0u);
    EXPECT_GT(mc.evictions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, MetaCacheIndexing,
                         indexingGeometries());

} // namespace
} // namespace hard
