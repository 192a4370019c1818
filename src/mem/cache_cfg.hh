/**
 * @file
 * Cache geometry/latency configuration (Table 1 of the paper provides
 * the default values used in the evaluation).
 */

#ifndef HARD_MEM_CACHE_CFG_HH
#define HARD_MEM_CACHE_CFG_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/types.hh"

namespace hard
{

/** Geometry and hit latency of one cache level. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 16 * 1024;
    /** Set associativity (ways). */
    unsigned assoc = 4;
    /** Line size in bytes. */
    unsigned lineBytes = 32;
    /** Hit latency in cycles. */
    Cycle hitLatency = 3;

    /** @return the number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) * lineBytes);
    }

    /** Throw ConfigError if the geometry is not realizable. */
    void
    validate(const char *what) const
    {
        hard_throw_if(!isPowerOf2(lineBytes), ConfigError,
                      "%s: line size %u not a power of two", what,
                      lineBytes);
        hard_throw_if(assoc == 0, ConfigError, "%s: zero associativity",
                      what);
        hard_throw_if(sizeBytes % (std::uint64_t{assoc} * lineBytes) != 0,
                      ConfigError,
                      "%s: size %llu not divisible by assoc*line", what,
                      static_cast<unsigned long long>(sizeBytes));
        hard_throw_if(!isPowerOf2(numSets()), ConfigError,
                      "%s: set count %llu not a power of two", what,
                      static_cast<unsigned long long>(numSets()));
    }

    /** @return the line-aligned base address containing @p a. */
    Addr lineAddr(Addr a) const { return alignDown(a, lineBytes); }

    /** @return the set index for @p a. */
    std::uint64_t
    setIndex(Addr a) const
    {
        return (a / lineBytes) & (numSets() - 1);
    }

    /** @return the tag for @p a (line address bits above the index). */
    std::uint64_t
    tag(Addr a) const
    {
        return (a / lineBytes) >> floorLog2(numSets());
    }
};

/**
 * The address split of a validated CacheConfig as shifts and a mask,
 * computed once: the per-lookup form of CacheConfig::setIndex/tag
 * (which stay the reference definitions) without their divisions.
 */
class CacheIndexer
{
  public:
    /**
     * Validate @p cfg (CacheConfig::validate, naming it @p what in the
     * ConfigError) and derive its shifts.
     */
    CacheIndexer(const CacheConfig &cfg, const char *what)
        : lineShift_(validatedLineShift(cfg, what)),
          setMask_(cfg.numSets() - 1),
          tagShift_(lineShift_ + floorLog2(cfg.numSets()))
    {
    }

    /** @return CacheConfig::setIndex(a). */
    std::uint64_t
    setIndex(Addr a) const
    {
        return (a >> lineShift_) & setMask_;
    }

    /** @return CacheConfig::tag(a). */
    std::uint64_t tag(Addr a) const { return a >> tagShift_; }

    /** @return the line address holding @p tag in set @p set. */
    Addr
    lineAddr(std::uint64_t tag, std::uint64_t set) const
    {
        return (tag << tagShift_) | (set << lineShift_);
    }

  private:
    static unsigned
    validatedLineShift(const CacheConfig &cfg, const char *what)
    {
        cfg.validate(what);
        return floorLog2(cfg.lineBytes);
    }

    unsigned lineShift_;
    std::uint64_t setMask_;
    unsigned tagShift_;
};

} // namespace hard

#endif // HARD_MEM_CACHE_CFG_HH
