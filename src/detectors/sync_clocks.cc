#include "detectors/sync_clocks.hh"

namespace hard
{

ClockedDetector::ClockedDetector(const std::string &name)
    : RaceDetector(name)
{
    for (unsigned t = 0; t < kMaxThreads; ++t)
        threadVc_[t][t] = 1;
}

void
ClockedDetector::acquire(const ObjectClocks &objs, const SyncEvent &ev)
{
    checkThread(ev.tid);
    auto it = objs.find(ev.lock);
    if (it != objs.end())
        threadVc_[ev.tid].join(it->second);
}

void
ClockedDetector::release(VClock &obj, ThreadId tid)
{
    checkThread(tid);
    obj.join(threadVc_[tid]);
    ++threadVc_[tid][tid];
}

void
ClockedDetector::onLockAcquire(const SyncEvent &ev)
{
    acquire(lockVc_, ev);
}

void
ClockedDetector::onLockRelease(const SyncEvent &ev)
{
    release(lockVc_[ev.lock], ev.tid);
}

void
ClockedDetector::onSemaPost(const SyncEvent &ev)
{
    // Hand-crafted synchronization is where happens-before generates
    // fewer false alarms than lockset: a post releases the poster's
    // history into the semaphore and a completed wait acquires it.
    release(semaVc_[ev.lock], ev.tid);
}

void
ClockedDetector::onSemaWait(const SyncEvent &ev)
{
    acquire(semaVc_, ev);
}

void
ClockedDetector::onRwLockAcquire(const SyncEvent &ev, bool writer)
{
    checkThread(ev.tid);
    auto it = rwVc_.find(ev.lock);
    if (it == rwVc_.end())
        return;
    // Writers are ordered after every prior holder; readers only after
    // prior writers (two readers in the same read-side epoch stay
    // concurrent).
    threadVc_[ev.tid].join(it->second.writeVc);
    if (writer)
        threadVc_[ev.tid].join(it->second.readVc);
}

void
ClockedDetector::onRwLockRelease(const SyncEvent &ev, bool writer)
{
    RwClocks &rw = rwVc_[ev.lock];
    release(writer ? rw.writeVc : rw.readVc, ev.tid);
}

void
ClockedDetector::onCondSignal(const SyncEvent &ev)
{
    // Signal/broadcast releases the signaller's history into the
    // condvar; a completed wait acquires it (same shape as semaphores).
    release(condVc_[ev.lock], ev.tid);
}

void
ClockedDetector::onCondBroadcast(const SyncEvent &ev)
{
    onCondSignal(ev);
}

void
ClockedDetector::onCondWait(const SyncEvent &ev)
{
    acquire(condVc_, ev);
}

void
ClockedDetector::onAtomicStore(const SyncEvent &ev)
{
    // Store-release publishes the storer's history at the location;
    // load-acquire picks it up. Sound for the recorded global
    // completion order (each load observes the latest prior store).
    release(atomVc_[ev.lock], ev.tid);
}

void
ClockedDetector::onAtomicLoad(const SyncEvent &ev)
{
    acquire(atomVc_, ev);
}

void
ClockedDetector::onBarrier(const BarrierEvent &ev)
{
    (void)ev;
    // All participants synchronize: join everything, then advance each
    // thread into a fresh epoch.
    VClock all;
    for (unsigned t = 0; t < kMaxThreads; ++t)
        all.join(threadVc_[t]);
    for (unsigned t = 0; t < kMaxThreads; ++t) {
        threadVc_[t] = all;
        ++threadVc_[t][t];
    }
}

} // namespace hard
