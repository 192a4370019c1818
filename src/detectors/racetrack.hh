/**
 * @file
 * RaceTrack-style adaptive lockset + happens-before hybrid detector
 * (after Yu, Rodeheffer & Chen, SOSP'05), with reader/writer-aware
 * lock sets.
 *
 * Like the ideal lockset detector it runs the Eraser state machine
 * (Figure 2) over exact per-granule candidate sets, intersecting with
 * ThreadLocksets::effective(write) so reader-mode rwlock holds protect
 * reads but not writes. Unlike plain lockset, every empty-candidate
 * alarm is then re-checked against a *full* happens-before relation —
 * one that includes lock release->acquire edges as well as barriers,
 * semaphores, rwlocks, condvars and atomics. If every other thread's
 * last access to the granule is HB-ordered before the current one,
 * the alarm is suppressed as a synchronized hand-off; only genuinely
 * concurrent unprotected sharing is reported.
 *
 * The lockset side is the exact lockset engine the ideal detector
 * runs (detectors/exact_lockset.hh), and suppression only ever removes
 * reports, so the battery invariant racetrack-subset-of-ideal holds by
 * shared code.
 *
 * This differs from HARD's HybridDetector, whose prune clock carries
 * only *non-lock* edges (it must not launder the very lock discipline
 * the lockset checks) and whose candidate sets are Bloom vectors.
 * RaceTrack accepts the laundering on purpose: its adaptive design
 * trades Eraser's discipline checking for fewer false alarms.
 */

#ifndef HARD_DETECTORS_RACETRACK_HH
#define HARD_DETECTORS_RACETRACK_HH

#include "detectors/exact_lockset.hh"
#include "detectors/sync_clocks.hh"

namespace hard
{

/** RaceTrack's configuration is the exact lockset engine's. */
using RaceTrackConfig = IdealLocksetConfig;

/** Per-granule payload: the clock of each thread's last access. */
struct AccessClocks
{
    VClock accessClk;
};

/** Adaptive lockset/happens-before hybrid with rwlock-aware sets. */
class RaceTrackDetector
    : public ExactLocksetDetector<ClockedDetector, AccessClocks>
{
  public:
    RaceTrackDetector(const std::string &name,
                      const RaceTrackConfig &cfg);

    void onRead(const MemEvent &ev) override;
    void onWrite(const MemEvent &ev) override;

    /** @return lockset alarms suppressed by the happens-before check. */
    std::uint64_t suppressed() const { return suppressed_; }

  private:
    void access(const MemEvent &ev, bool write);

    std::uint64_t suppressed_ = 0;
};

} // namespace hard

#endif // HARD_DETECTORS_RACETRACK_HH
