/**
 * @file
 * Unit tests for the set-associative tag store.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache_test_util.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "throw_test_util.hh"

namespace hard
{
namespace
{

CacheConfig
smallCfg()
{
    // 4 sets x 2 ways x 32B lines = 256B.
    return CacheConfig{256, 2, 32, 1};
}

TEST(CacheConfig, GeometryDerivation)
{
    CacheConfig l1{16 * 1024, 4, 32, 3}; // Table 1 L1
    EXPECT_EQ(l1.numSets(), 128u);
    EXPECT_EQ(l1.lineAddr(0x1234), 0x1220u);
    EXPECT_EQ(l1.setIndex(0x1220), (0x1220u / 32) % 128);
    CacheConfig l2{1024 * 1024, 8, 32, 10}; // Table 1 L2
    EXPECT_EQ(l2.numSets(), 4096u);
}

TEST(CacheConfig, TagDisambiguatesAliasedLines)
{
    CacheConfig cfg = smallCfg();
    Addr a = 0x100;
    Addr b = a + cfg.numSets() * cfg.lineBytes; // same set, new tag
    EXPECT_EQ(cfg.setIndex(a), cfg.setIndex(b));
    EXPECT_NE(cfg.tag(a), cfg.tag(b));
}

TEST(CacheConfigDeath, RejectsBadGeometry)
{
    CacheConfig bad{100, 2, 32, 1};
    HARD_EXPECT_THROW_MSG(bad.validate("t"), ConfigError,
                          "not divisible");
    CacheConfig bad2{256, 2, 33, 1};
    HARD_EXPECT_THROW_MSG(bad2.validate("t"), ConfigError,
                          "power of two");
}

/**
 * The shift-based indexer agrees with CacheConfig's reference
 * definitions on seeded random addresses, and rebuilds each line
 * address from its (tag, set) pair.
 */
class CacheIndexerEquivalence : public ::testing::TestWithParam<CacheConfig>
{
};

TEST_P(CacheIndexerEquivalence, MatchesReferenceSetIndexAndTag)
{
    const CacheConfig cfg = GetParam();
    const CacheIndexer index(cfg, "t");
    Rng rng(cfg.sizeBytes ^ cfg.assoc);
    for (int i = 0; i < 20000; ++i) {
        // Full-width addresses half the time, small ones otherwise.
        const Addr a = i % 2 ? rng.next64() : rng.below(1u << 24);
        ASSERT_EQ(index.setIndex(a), cfg.setIndex(a)) << std::hex << a;
        ASSERT_EQ(index.tag(a), cfg.tag(a)) << std::hex << a;
        ASSERT_EQ(index.lineAddr(cfg.tag(a), cfg.setIndex(a)),
                  cfg.lineAddr(a))
            << std::hex << a;
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheIndexerEquivalence,
                         indexingGeometries());

TEST(CacheIndexer, ValidatesTheGeometry)
{
    HARD_EXPECT_THROW_MSG(CacheIndexer(CacheConfig{256, 0, 32, 1}, "t"),
                          ConfigError, "zero associativity");
}

TEST(Cache, EvictionRebuildsTheReferenceLineAddress)
{
    // Fill one set of a Table 1 L1 past its ways from random high
    // addresses; each victim's rebuilt address is one we inserted.
    const CacheConfig cfg{16 * 1024, 4, 32, 3};
    SetAssocCache c("c", cfg);
    const Addr set_bits = (cfg.numSets() - 1) * cfg.lineBytes;
    Rng rng(11);
    std::vector<Addr> lines;
    for (int i = 0; i < 64; ++i) {
        const Addr line =
            (cfg.lineAddr(rng.next64()) & ~set_bits) | 5 * cfg.lineBytes;
        ASSERT_EQ(cfg.setIndex(line), 5u);
        if (c.findLine(line) != nullptr)
            continue;
        auto ev = c.insert(line, CState::Shared);
        if (lines.size() < cfg.assoc) {
            EXPECT_FALSE(ev.has_value());
        } else {
            ASSERT_TRUE(ev.has_value());
            // True LRU without touches: the oldest fill goes first.
            EXPECT_EQ(ev->lineAddr, lines[lines.size() - cfg.assoc]);
        }
        lines.push_back(line);
    }
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c("c", smallCfg());
    EXPECT_EQ(c.findLine(0x40), nullptr);
    c.insert(0x40, CState::Exclusive);
    ASSERT_NE(c.findLine(0x40), nullptr);
    EXPECT_EQ(c.state(0x40), CState::Exclusive);
    // Any address in the same line hits.
    EXPECT_NE(c.findLine(0x5f), nullptr);
    EXPECT_EQ(c.findLine(0x60), nullptr);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    SetAssocCache c("c", smallCfg()); // 2-way
    const Addr set_stride = smallCfg().numSets() * 32;
    Addr a = 0x0, b = a + set_stride, d = a + 2 * set_stride;

    c.insert(a, CState::Shared);
    c.insert(b, CState::Shared);
    c.touch(a); // b is now LRU
    auto ev = c.insert(d, CState::Shared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, b);
    EXPECT_FALSE(ev->dirty);
    EXPECT_NE(c.findLine(a), nullptr);
    EXPECT_EQ(c.findLine(b), nullptr);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    SetAssocCache c("c", smallCfg());
    const Addr set_stride = smallCfg().numSets() * 32;
    c.insert(0x0, CState::Modified);
    c.insert(set_stride, CState::Shared);
    c.touch(set_stride);
    // 0x0 is LRU and dirty.
    auto ev = c.insert(2 * set_stride, CState::Shared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0x0u);
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(c.stats().value("writebacks"), 1u);
}

TEST(Cache, InvalidateFreesWay)
{
    SetAssocCache c("c", smallCfg());
    c.insert(0x40, CState::Shared);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.invalidate(0x40));
    EXPECT_EQ(c.findLine(0x40), nullptr);
    // Reinsert does not evict anything.
    auto ev = c.insert(0x40, CState::Exclusive);
    EXPECT_FALSE(ev.has_value());
}

TEST(Cache, SetStateAndForEach)
{
    SetAssocCache c("c", smallCfg());
    c.insert(0x40, CState::Shared);
    c.setState(0x40, CState::Modified);
    EXPECT_EQ(c.state(0x40), CState::Modified);

    unsigned count = 0;
    c.forEachLine([&](Addr line, const CacheLine &l) {
        EXPECT_EQ(line, 0x40u);
        EXPECT_EQ(l.cstate, CState::Modified);
        ++count;
    });
    EXPECT_EQ(count, 1u);
    EXPECT_EQ(c.validLines(), 1u);
}

TEST(CacheDeath, DoubleFillPanics)
{
    SetAssocCache c("c", smallCfg());
    c.insert(0x40, CState::Shared);
    EXPECT_DEATH(c.insert(0x44, CState::Shared), "double fill");
}

TEST(CacheDeath, TouchAbsentPanics)
{
    SetAssocCache c("c", smallCfg());
    EXPECT_DEATH(c.touch(0x40), "touch of absent");
}

/** Random-traffic property: capacity and residency invariants. */
class CacheProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheProperty, ResidencyNeverExceedsCapacityAndHitsAreStable)
{
    auto [size_kb, assoc] = GetParam();
    CacheConfig cfg{size_kb * 1024ull, assoc, 32, 1};
    SetAssocCache c("c", cfg);
    Rng rng(size_kb * 131 + assoc);

    const std::size_t capacity = cfg.numSets() * cfg.assoc;
    for (int i = 0; i < 20000; ++i) {
        Addr a = rng.below(8 * size_kb * 1024ull);
        if (c.findLine(a) != nullptr) {
            c.touch(a);
        } else {
            c.insert(a, CState::Shared);
        }
        // The line just accessed must be resident now.
        ASSERT_NE(c.findLine(a), nullptr);
    }
    EXPECT_LE(c.validLines(), capacity);
    EXPECT_GT(c.stats().value("fills"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Combine(::testing::Values(1u, 4u, 16u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

} // namespace
} // namespace hard
