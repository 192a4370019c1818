/**
 * @file
 * The held-set contract of the exact-lockset detectors, as one table:
 * each column is a detector built on exact per-thread held sets (the
 * ideal lockset and RaceTrack), each row an unbalanced lock sequence.
 * In strict mode every row must panic with its message; with
 * tolerateUnbalanced the same sequence is a no-op on the held sets
 * (a re-acquire keeps the lock held once, a release of an unheld lock
 * changes nothing). A last test checks that barrierReset = false keeps
 * pre-barrier candidate evidence, which the §3.5 flash-reset discards.
 */

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "detectors/ideal_lockset.hh"
#include "detectors/racetrack.hh"

namespace hard
{
namespace
{

constexpr ThreadId kTid = 1;
constexpr LockAddr kLock = 0x8000;

/** The exact-lockset surface shared by both columns. */
struct Subject
{
    std::unique_ptr<RaceDetector> det;
    std::function<const std::set<LockAddr> &(ThreadId)> writeHeld;
    std::function<const std::set<LockAddr> &(ThreadId)> readHeld;
};

struct Column
{
    const char *name;
    std::function<Subject(bool tolerate, bool barrier_reset)> make;
};

template <class Det, class Cfg>
Subject
makeSubject(const char *name, bool tolerate, bool barrier_reset)
{
    Cfg cfg;
    cfg.tolerateUnbalanced = tolerate;
    cfg.barrierReset = barrier_reset;
    auto det = std::make_unique<Det>(name, cfg);
    Det *raw = det.get();
    return Subject{
        std::move(det),
        [raw](ThreadId t) -> const std::set<LockAddr> & {
            return raw->lockset(t);
        },
        [raw](ThreadId t) -> const std::set<LockAddr> & {
            return raw->readLockset(t);
        }};
}

const std::vector<Column> &
columns()
{
    static const std::vector<Column> cols = {
        {"ideal",
         [](bool tolerate, bool barrier_reset) {
             return makeSubject<IdealLocksetDetector, IdealLocksetConfig>(
                 "ideal-lockset", tolerate, barrier_reset);
         }},
        {"racetrack",
         [](bool tolerate, bool barrier_reset) {
             return makeSubject<RaceTrackDetector, RaceTrackConfig>(
                 "racetrack", tolerate, barrier_reset);
         }},
    };
    return cols;
}

SyncEvent
syncEv()
{
    SyncEvent ev;
    ev.tid = kTid;
    ev.lock = kLock;
    return ev;
}

struct Row
{
    const char *sequence;
    std::function<void(RaceDetector &)> run;
    /** Strict-mode panic message (regex). */
    std::string death;
    /** Tolerant mode: is kLock write-held / read-held afterwards? */
    bool writeHeldAfter;
    bool readHeldAfter;
};

const std::vector<Row> &
rows()
{
    static const std::vector<Row> table = {
        {"mutex re-acquire",
         [](RaceDetector &d) {
             d.onLockAcquire(syncEv());
             d.onLockAcquire(syncEv());
         },
         "thread 1 re-acquired lock 8000", true, false},
        {"mutex release-unheld",
         [](RaceDetector &d) { d.onLockRelease(syncEv()); },
         "thread 1 released unheld lock 8000", false, false},
        {"rwlock writer re-acquire",
         [](RaceDetector &d) {
             d.onRwLockAcquire(syncEv(), true);
             d.onRwLockAcquire(syncEv(), true);
         },
         "thread 1 re-acquired rwlock 8000", true, false},
        {"rwlock reader re-acquire",
         [](RaceDetector &d) {
             d.onRwLockAcquire(syncEv(), false);
             d.onRwLockAcquire(syncEv(), false);
         },
         "thread 1 re-acquired rwlock 8000", false, true},
        {"rwlock writer release-unheld",
         [](RaceDetector &d) { d.onRwLockRelease(syncEv(), true); },
         "thread 1 released unheld rwlock 8000", false, false},
        {"rwlock reader release-unheld",
         [](RaceDetector &d) { d.onRwLockRelease(syncEv(), false); },
         "thread 1 released unheld rwlock 8000", false, false},
    };
    return table;
}

TEST(HeldSetsDeathTest, StrictModePanicsOnUnbalancedSequences)
{
    for (const Column &col : columns()) {
        for (const Row &row : rows()) {
            SCOPED_TRACE(std::string(col.name) + " " + row.sequence);
            EXPECT_DEATH(
                {
                    Subject s = col.make(false, true);
                    row.run(*s.det);
                },
                row.death);
        }
    }
}

TEST(HeldSets, TolerantModeIsANoOp)
{
    for (const Column &col : columns()) {
        for (const Row &row : rows()) {
            SCOPED_TRACE(std::string(col.name) + " " + row.sequence);
            Subject s = col.make(true, true);
            row.run(*s.det);
            EXPECT_EQ(s.writeHeld(kTid).count(kLock) > 0,
                      row.writeHeldAfter);
            EXPECT_EQ(s.readHeld(kTid).count(kLock) > 0,
                      row.readHeldAfter);
            EXPECT_EQ(s.writeHeld(kTid).size() + s.readHeld(kTid).size(),
                      row.writeHeldAfter || row.readHeldAfter ? 1u : 0u);
        }
    }
}

TEST(HeldSets, TolerantReleaseAfterReAcquireDropsTheLock)
{
    for (const Column &col : columns()) {
        SCOPED_TRACE(col.name);
        Subject s = col.make(true, true);
        s.det->onLockAcquire(syncEv());
        s.det->onLockAcquire(syncEv());
        s.det->onLockRelease(syncEv());
        EXPECT_TRUE(s.writeHeld(kTid).empty());
        s.det->onRwLockAcquire(syncEv(), false);
        s.det->onRwLockAcquire(syncEv(), false);
        s.det->onRwLockRelease(syncEv(), false);
        EXPECT_TRUE(s.readHeld(kTid).empty());
    }
}

/**
 * Phase 1: both threads write x under lock L (candidate {L}). Barrier.
 * Phase 2: thread 1 writes x under M, then thread 0 under N, with no
 * ordering between the two. With the flash-reset, phase 2 starts from
 * Virgin and the candidate is {N}: silent. Without it, the pre-barrier
 * {L} survives, the candidate empties, and thread 0's write is
 * reported (RaceTrack too: thread 1's post-barrier write is unordered
 * with it).
 */
bool
phaseTwoReports(const Column &col, bool barrier_reset)
{
    Subject s = col.make(false, barrier_reset);
    RaceDetector &d = *s.det;
    constexpr Addr kX = 0x1000;
    constexpr LockAddr kL = 0x8000, kM = 0x8040, kN = 0x8080;
    constexpr SiteId kPhase2 = 7;
    Cycle now = 0;
    auto lockedWrite = [&](ThreadId tid, LockAddr lock, SiteId site) {
        SyncEvent se;
        se.tid = tid;
        se.lock = lock;
        se.at = ++now;
        d.onLockAcquire(se);
        MemEvent w;
        w.tid = tid;
        w.addr = kX;
        w.size = 4;
        w.write = true;
        w.site = site;
        w.at = ++now;
        d.onWrite(w);
        se.at = ++now;
        d.onLockRelease(se);
    };
    lockedWrite(0, kL, 1);
    lockedWrite(1, kL, 2);
    BarrierEvent b;
    b.barrier = 0x9000;
    b.participants = 2;
    b.at = ++now;
    d.onBarrier(b);
    lockedWrite(1, kM, 3);
    lockedWrite(0, kN, kPhase2);
    return d.sink().sites().count(kPhase2) > 0;
}

TEST(HeldSets, NoBarrierResetKeepsCandidateEvidence)
{
    for (const Column &col : columns()) {
        SCOPED_TRACE(col.name);
        EXPECT_FALSE(phaseTwoReports(col, true));
        EXPECT_TRUE(phaseTwoReports(col, false));
    }
}

} // namespace
} // namespace hard
