/**
 * @file
 * The "ideal" lockset implementation of paper §4: candidate sets kept
 * per 4-byte variable, for *all* variables (unbounded storage), with a
 * complete (exact) set representation instead of Bloom filters — i.e.
 * an Eraser-style software implementation used as the upper bound on
 * HARD's detection capability.
 */

#ifndef HARD_DETECTORS_IDEAL_LOCKSET_HH
#define HARD_DETECTORS_IDEAL_LOCKSET_HH

#include <array>

#include "detectors/exact_lockset.hh"

namespace hard
{

class ProvRecorder;

/**
 * Eraser-style exact lockset detector, unbounded and fine-grained: the
 * exact lockset engine reporting every emptied candidate, plus set-size
 * statistics and optional provenance.
 */
class IdealLocksetDetector : public ExactLocksetDetector<RaceDetector>
{
  public:
    IdealLocksetDetector(const std::string &name,
                         const IdealLocksetConfig &cfg);

    void onRead(const MemEvent &ev) override;
    void onWrite(const MemEvent &ev) override;

    /** Provenance of the flash-reset (when attached), then the
     * engine's. */
    void onBarrier(const BarrierEvent &ev) override;

    /**
     * Measured set-size statistics, supporting the paper's §5.2.3
     * claim that candidate/lock sets are tiny in real programs (max 1
     * for its applications, 3 for radix) — the justification for the
     * 16-bit BFVector.
     */
    struct SetSizeStats
    {
        /** Largest finite candidate set observed at an update. */
        std::size_t maxCandidate = 0;
        /** Largest thread lock set observed at an acquire. */
        std::size_t maxLockset = 0;
        /** Histogram of finite candidate-set sizes 0..7 (7 = >=7). */
        std::array<std::uint64_t, 8> candidateHist{};
    };

    SetSizeStats
    setSizeStats() const
    {
        SetSizeStats s = sizeStats_;
        s.maxLockset = maxHeldSize();
        return s;
    }

    /**
     * Attach a provenance recorder (explain/prov.hh): exact candidate
     * intersections, reports and flash-resets are logged, and reports
     * carry the last conflicting accessor in RaceReport::other. Null
     * (default) keeps every hook a single pointer test.
     */
    void attachProvenance(ProvRecorder *prov) { prov_ = prov; }

  private:
    void access(const MemEvent &ev, bool write);

    SetSizeStats sizeStats_;
    /** Provenance recorder; null unless an explain run attached one. */
    ProvRecorder *prov_ = nullptr;
};

} // namespace hard

#endif // HARD_DETECTORS_IDEAL_LOCKSET_HH
