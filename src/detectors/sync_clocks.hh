/**
 * @file
 * The vector-clock synchronization engine shared by the clocked
 * detectors (happens-before, FastTrack, DJIT+, RaceTrack and HARD's §7
 * hybrid).
 *
 * Every such detector orders accesses by the same clock discipline:
 * each thread carries a vector clock; a release-style event (unlock,
 * semaphore post, condvar signal/broadcast, atomic store-release)
 * joins the thread's clock into the sync object's clock and advances
 * the thread into a new epoch; an acquire-style event (lock, completed
 * semaphore/condvar wait, atomic load-acquire) joins the object's
 * clock into the thread's; a barrier joins all threads. The detectors
 * differ only on the access side, which stays in each subclass: it
 * reads the current thread's clock through clock().
 *
 * A detector that wants a family of edges kept out of its clock
 * domain overrides that family's hooks without calling the base (the
 * hybrid does this for lock and rwlock edges).
 */

#ifndef HARD_DETECTORS_SYNC_CLOCKS_HH
#define HARD_DETECTORS_SYNC_CLOCKS_HH

#include <array>
#include <unordered_map>

#include "common/logging.hh"
#include "detectors/report.hh"
#include "detectors/vclock.hh"

namespace hard
{

/** A race detector whose synchronization order is vector clocks. */
class ClockedDetector : public RaceDetector
{
  public:
    void onLockAcquire(const SyncEvent &ev) override;
    void onLockRelease(const SyncEvent &ev) override;
    void onBarrier(const BarrierEvent &ev) override;
    void onSemaPost(const SyncEvent &ev) override;
    void onSemaWait(const SyncEvent &ev) override;
    void onRwLockAcquire(const SyncEvent &ev, bool writer) override;
    void onRwLockRelease(const SyncEvent &ev, bool writer) override;
    void onCondSignal(const SyncEvent &ev) override;
    void onCondBroadcast(const SyncEvent &ev) override;
    void onCondWait(const SyncEvent &ev) override;
    void onAtomicStore(const SyncEvent &ev) override;
    void onAtomicLoad(const SyncEvent &ev) override;

  protected:
    /** Each thread starts at its own epoch 1. */
    explicit ClockedDetector(const std::string &name);

    /** Panic unless @p tid indexes a tracked thread. */
    void
    checkThread(ThreadId tid) const
    {
        hard_panic_if(tid >= kMaxThreads, "%s: thread id %u too large",
                      name().c_str(), tid);
    }

    /** @return the current vector clock of thread @p tid (checked). */
    const VClock &
    clock(ThreadId tid) const
    {
        checkThread(tid);
        return threadVc_[tid];
    }

  private:
    using ObjectClocks = std::unordered_map<LockAddr, VClock>;

    /**
     * Synchronization clocks of one rwlock: writeVc carries the
     * history released by write-unlocks, readVc the history released
     * by read-unlocks. A write acquire joins both (the writer is
     * ordered after every prior holder); a read acquire joins writeVc
     * only, so concurrent readers stay unordered with each other.
     */
    struct RwClocks
    {
        VClock writeVc;
        VClock readVc;
    };

    /** Join the clock of object @p ev.lock in @p objs, if it has one,
     * into the clock of @p ev.tid. */
    void acquire(const ObjectClocks &objs, const SyncEvent &ev);
    /** Join the clock of @p tid into @p obj, then advance @p tid into
     * a new epoch so its later accesses are not ordered before the
     * release. */
    void release(VClock &obj, ThreadId tid);

    std::array<VClock, kMaxThreads> threadVc_{};
    ObjectClocks lockVc_;
    ObjectClocks semaVc_;
    ObjectClocks condVc_;
    ObjectClocks atomVc_;
    std::unordered_map<LockAddr, RwClocks> rwVc_;
};

} // namespace hard

#endif // HARD_DETECTORS_SYNC_CLOCKS_HH
