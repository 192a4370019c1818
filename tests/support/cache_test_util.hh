/**
 * @file
 * Cache geometries shared by the set-index tests of the tag store and
 * the metadata store.
 */

#ifndef HARD_TESTS_CACHE_TEST_UTIL_HH
#define HARD_TESTS_CACHE_TEST_UTIL_HH

#include <ostream>

#include <gtest/gtest.h>

#include "core/hard_detector.hh"
#include "mem/cache_cfg.hh"

namespace hard
{

/**
 * Print a geometry as "16384B-4way-32B-3cyc", so tests parameterized
 * over geometries get readable CTest names that are stable across
 * builds.
 */
inline void
PrintTo(const CacheConfig &cfg, std::ostream *os)
{
    *os << cfg.sizeBytes << "B-" << cfg.assoc << "way-" << cfg.lineBytes
        << "B-" << cfg.hitLatency << "cyc";
}

/**
 * The Table 1 L1 and L2, HARD's default metadata store, and two
 * corner cases: a direct-mapped (1-way) cache and a 2-set cache.
 */
inline auto
indexingGeometries()
{
    return ::testing::Values(CacheConfig{16 * 1024, 4, 32, 3},
                             CacheConfig{1024 * 1024, 8, 32, 10},
                             HardConfig{}.metaGeometry,
                             CacheConfig{4 * 1024, 1, 32, 1},
                             CacheConfig{256, 2, 64, 1});
}

} // namespace hard

#endif // HARD_TESTS_CACHE_TEST_UTIL_HH
