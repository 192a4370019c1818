/**
 * @file
 * The exact lockset engine of paper §4's "ideal" detector, shared by
 * IdealLocksetDetector and RaceTrackDetector.
 *
 * It owns the whole lockset half the two detectors have in common:
 * the per-thread exact held sets (write-held and read-held) with their
 * balance checks, the per-granule shadow (Eraser state, owner, exact
 * candidate set), the Figure 2 step with the intersection against
 * ThreadLocksets::effective(write), and the §3.5 barrier flash-reset.
 *
 * A detector derives from ExactLocksetDetector over its
 * synchronization base (RaceDetector, or ClockedDetector for
 * RaceTrack's happens-before side), may add its own per-granule
 * payload, and says what one granule step means: the ideal detector
 * reports an emptied candidate; RaceTrack first asks its clocks
 * whether the alarm is a synchronized hand-off. Because both read
 * their candidate sets from this one engine and RaceTrack's
 * suppression only removes reports, racetrack-subset-of-ideal holds
 * by construction.
 */

#ifndef HARD_DETECTORS_EXACT_LOCKSET_HH
#define HARD_DETECTORS_EXACT_LOCKSET_HH

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "detectors/lockset_state.hh"
#include "detectors/report.hh"

namespace hard
{

/** Configuration of an exact-lockset detector (ideal or RaceTrack). */
struct IdealLocksetConfig
{
    /** Candidate-set granularity in bytes (paper's ideal: 4). */
    unsigned granularityBytes = 4;
    /** Apply the §3.5 barrier flash-reset of candidate sets. */
    bool barrierReset = true;
    /**
     * Tolerate unbalanced lock events (re-acquire keeps the lock held,
     * release-of-unheld is a no-op) instead of panicking. Needed when
     * replaying minimizer-reduced fuzz traces, whose event streams are
     * not guaranteed lock-balanced; live runs keep the strict checks.
     */
    bool tolerateUnbalanced = false;
};

/**
 * An exact candidate set: either the universe of all locks (the
 * initial value) or an explicit finite set.
 */
class ExactLockset
{
  public:
    /** Start as the universe ("all possible locks"). */
    ExactLockset() = default;

    /** Reset to the universe (barrier pruning, §3.5). */
    void
    resetToUniverse()
    {
        universe_ = true;
        set_.clear();
    }

    /** Intersect with the exact thread lock set @p held. */
    void
    intersect(const std::set<LockAddr> &held)
    {
        if (universe_) {
            universe_ = false;
            set_ = held;
            return;
        }
        for (auto it = set_.begin(); it != set_.end();) {
            if (held.count(*it) == 0)
                it = set_.erase(it);
            else
                ++it;
        }
    }

    bool isUniverse() const { return universe_; }
    bool
    empty() const
    {
        return !universe_ && set_.empty();
    }
    const std::set<LockAddr> &locks() const { return set_; }

  private:
    bool universe_ = true;
    std::set<LockAddr> set_;
};

/**
 * Read-held vs write-held lock sets of one thread. Mutex and
 * writer-mode rwlock holds live in writeHeld; reader-mode rwlock holds
 * in readHeld (the two are disjoint — a thread holds a rwlock in one
 * mode at a time).
 */
struct ThreadLocksets
{
    std::set<LockAddr> writeHeld;
    std::set<LockAddr> readHeld;

    /**
     * @return the locks that actually protect an access: a write is
     * protected only by write-held locks (a reader hold admits
     * concurrent readers of the same data), while a read is protected
     * by locks held in either mode (any hold excludes writers).
     */
    std::set<LockAddr>
    effective(bool write) const
    {
        if (write)
            return writeHeld;
        std::set<LockAddr> out = writeHeld;
        out.insert(readHeld.begin(), readHeld.end());
        return out;
    }
};

/** Granule payload of a detector that keeps nothing beyond the
 * lockset shadow (takes no space: an empty base). */
struct NoGranulePayload
{
};

/**
 * Exact (Eraser-style, unbounded, fine-grained) lockset engine over
 * the synchronization base @p Base, with @p Payload added to every
 * granule's shadow record.
 */
template <class Base, class Payload = NoGranulePayload>
class ExactLocksetDetector : public Base
{
  public:
    /** @name Lock hooks: the base's edges first, then the held sets.
     * A writer-mode rwlock hold protects like a mutex; a reader-mode
     * hold protects reads only (ThreadLocksets::effective).
     * @{ */
    void
    onLockAcquire(const SyncEvent &ev) override
    {
        Base::onLockAcquire(ev);
        hold(ev, true, "lock");
    }

    void
    onLockRelease(const SyncEvent &ev) override
    {
        Base::onLockRelease(ev);
        unhold(ev, true, "lock");
    }

    void
    onRwLockAcquire(const SyncEvent &ev, bool writer) override
    {
        Base::onRwLockAcquire(ev, writer);
        hold(ev, writer, "rwlock");
    }

    void
    onRwLockRelease(const SyncEvent &ev, bool writer) override
    {
        Base::onRwLockRelease(ev, writer);
        unhold(ev, writer, "rwlock");
    }
    /** @} */

    /** §3.5 flash-reset (when configured), then the base's barrier. */
    void
    onBarrier(const BarrierEvent &ev) override
    {
        if (cfg_.barrierReset) {
            // Discard pre-barrier evidence: accesses on either side of
            // the barrier are ordered, so neither their lock sets nor
            // their sharing history may be held against post-barrier
            // accesses (see HardDetector::onBarrier for the Figure 7
            // rationale).
            for (auto &kv : shadow_) {
                kv.second.candidate.resetToUniverse();
                kv.second.state = LState::Virgin;
                kv.second.owner = invalidThread;
            }
        }
        Base::onBarrier(ev);
    }

    /** @return the current exact write-held lock set of @p tid
     * (mutexes + writer-mode rwlock holds). */
    const std::set<LockAddr> &
    lockset(ThreadId tid) const
    {
        return heldBy(tid).writeHeld;
    }

    /** @return the current reader-mode rwlock hold set of @p tid. */
    const std::set<LockAddr> &
    readLockset(ThreadId tid) const
    {
        return heldBy(tid).readHeld;
    }

    /** @return the largest held set (both modes) seen at an acquire. */
    std::size_t maxHeldSize() const { return maxHeld_; }

    const IdealLocksetConfig &config() const { return cfg_; }

  protected:
    ExactLocksetDetector(const std::string &name,
                         const IdealLocksetConfig &cfg)
        : Base(name), cfg_(cfg)
    {
        hard_fatal_if(cfg_.granularityBytes == 0 ||
                          !isPowerOf2(cfg_.granularityBytes),
                      "%s: bad granularity %u", name.c_str(),
                      cfg_.granularityBytes);
    }

    /** Shadow record of one granule. */
    struct Granule : Payload
    {
        LState state = LState::Virgin;
        ThreadId owner = invalidThread;
        ExactLockset candidate;
    };

    /** What one access did to one granule's lockset shadow. */
    struct GranuleStep
    {
        Addr addr;
        /** Eraser state before the access. */
        LState before;
        /** The candidate was intersected with the effective set. */
        bool narrowed;
        /** A write-shared granule's candidate is empty: an alarm. */
        bool violation;
    };

    /**
     * Run the Figure 2 step of access @p ev over each granule it
     * covers, then call
     * @p visit(Granule &, const GranuleStep &, const std::set<LockAddr> &held)
     * with the effective held set the candidate was intersected with.
     */
    template <class Visit>
    void
    exactAccess(const MemEvent &ev, bool write, Visit &&visit)
    {
        const unsigned gran = cfg_.granularityBytes;
        const Addr lo = alignDown(ev.addr, gran);
        const Addr hi = ev.addr + (ev.size ? ev.size : 1);
        const std::set<LockAddr> locks = held_[ev.tid].effective(write);

        for (Addr a = lo; a < hi; a += gran) {
            Granule &g = shadow_[a];
            const LState before = g.state;
            const LStateStep step =
                lstateAccess(g.state, g.owner, ev.tid, write);
            g.state = step.next;
            g.owner = step.owner;
            if (step.updateCandidate)
                g.candidate.intersect(locks);
            visit(g,
                  GranuleStep{a, before, step.updateCandidate,
                              step.reportIfEmpty && g.candidate.empty()},
                  locks);
        }
    }

  private:
    /** @return the held sets of @p tid (empty if it never locked). */
    const ThreadLocksets &
    heldBy(ThreadId tid) const
    {
        static const ThreadLocksets none;
        auto it = held_.find(tid);
        return it == held_.end() ? none : it->second;
    }

    /** Add @p ev.lock to the write-held (@p write_mode) or read-held
     * set of @p ev.tid. */
    void
    hold(const SyncEvent &ev, bool write_mode, const char *kind)
    {
        ThreadLocksets &ls = held_[ev.tid];
        const bool inserted =
            (write_mode ? ls.writeHeld : ls.readHeld).insert(ev.lock).second;
        hard_panic_if(!inserted && !cfg_.tolerateUnbalanced,
                      "%s: thread %u re-acquired %s %llx",
                      this->name().c_str(), ev.tid, kind,
                      static_cast<unsigned long long>(ev.lock));
        maxHeld_ =
            std::max(maxHeld_, ls.writeHeld.size() + ls.readHeld.size());
    }

    void
    unhold(const SyncEvent &ev, bool write_mode, const char *kind)
    {
        ThreadLocksets &ls = held_[ev.tid];
        const bool erased =
            (write_mode ? ls.writeHeld : ls.readHeld).erase(ev.lock) != 0;
        hard_panic_if(!erased && !cfg_.tolerateUnbalanced,
                      "%s: thread %u released unheld %s %llx",
                      this->name().c_str(), ev.tid, kind,
                      static_cast<unsigned long long>(ev.lock));
    }

    IdealLocksetConfig cfg_;
    std::unordered_map<Addr, Granule> shadow_;
    /** Per-thread write-held/read-held lock sets. */
    std::unordered_map<ThreadId, ThreadLocksets> held_;
    std::size_t maxHeld_ = 0;
};

} // namespace hard

#endif // HARD_DETECTORS_EXACT_LOCKSET_HH
