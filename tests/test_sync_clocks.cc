/**
 * @file
 * Edge semantics of the shared vector-clock sync engine, as one table:
 * each row is a synchronization family, each column a clocked
 * detector. A cell runs a two-thread hand-off (thread 0 writes x, then
 * performs the row's release side; thread 1 performs the acquire side,
 * then writes x) and checks whether the second write is reported. The
 * same two writes with the synchronization removed must always report.
 *
 * Lock and rwlock edges are the exception for the hybrid: it keeps them
 * out of its clock domain (paper §7), so the Figure 1 hand-off ordered
 * only through a lock's release->acquire, with no lock held at either
 * write, is still reported.
 */

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybrid.hh"
#include "detectors/djit_plus.hh"
#include "detectors/fasttrack.hh"
#include "detectors/happens_before.hh"
#include "detectors/racetrack.hh"

namespace hard
{
namespace
{

constexpr Addr kX = 0x1000;
constexpr LockAddr kSync = 0x8000;
constexpr SiteId kSite0 = 1;
constexpr SiteId kSite1 = 2;

struct Column
{
    const char *name;
    std::function<std::unique_ptr<RaceDetector>()> make;
};

const std::vector<Column> &
columns()
{
    static const std::vector<Column> cols = {
        {"hb",
         [] {
             return std::make_unique<HappensBeforeDetector>("hb",
                                                            HbConfig{});
         }},
        {"hb-ideal",
         [] {
             return std::make_unique<HappensBeforeDetector>(
                 "hb-ideal", HbConfig::ideal());
         }},
        {"fasttrack",
         [] { return std::make_unique<FastTrackDetector>("fasttrack", 4); }},
        {"djit",
         [] { return std::make_unique<DjitPlusDetector>("djit", 4); }},
        {"racetrack",
         [] {
             return std::make_unique<RaceTrackDetector>("racetrack",
                                                        RaceTrackConfig{});
         }},
        {"hybrid",
         [] {
             return std::make_unique<HybridDetector>("hybrid",
                                                     HardConfig{});
         }},
    };
    return cols;
}

SyncEvent
syncEv(ThreadId tid)
{
    SyncEvent ev;
    ev.tid = tid;
    ev.lock = kSync;
    return ev;
}

using Side = std::function<void(RaceDetector &, const SyncEvent &)>;

struct Row
{
    const char *family;
    /** Thread 0's synchronization after its write. */
    Side release;
    /** Thread 1's synchronization before its write. */
    Side acquire;
    /** Columns whose hand-off is still reported with the sync. */
    std::set<std::string> reportsWithSync;
};

const std::vector<Row> &
rows()
{
    static const std::vector<Row> table = {
        {"lock (Figure 1)",
         [](RaceDetector &d, const SyncEvent &ev) {
             d.onLockAcquire(ev);
             d.onLockRelease(ev);
         },
         [](RaceDetector &d, const SyncEvent &ev) {
             d.onLockAcquire(ev);
             d.onLockRelease(ev);
         },
         {"hybrid"}},
        {"rwlock writer->reader",
         [](RaceDetector &d, const SyncEvent &ev) {
             d.onRwLockAcquire(ev, true);
             d.onRwLockRelease(ev, true);
         },
         [](RaceDetector &d, const SyncEvent &ev) {
             d.onRwLockAcquire(ev, false);
             d.onRwLockRelease(ev, false);
         },
         {"hybrid"}},
        {"rwlock reader||reader",
         [](RaceDetector &d, const SyncEvent &ev) {
             d.onRwLockAcquire(ev, false);
             d.onRwLockRelease(ev, false);
         },
         [](RaceDetector &d, const SyncEvent &ev) {
             d.onRwLockAcquire(ev, false);
             d.onRwLockRelease(ev, false);
         },
         {"hb", "hb-ideal", "fasttrack", "djit", "racetrack", "hybrid"}},
        {"sema",
         [](RaceDetector &d, const SyncEvent &ev) { d.onSemaPost(ev); },
         [](RaceDetector &d, const SyncEvent &ev) { d.onSemaWait(ev); },
         {}},
        {"cond signal",
         [](RaceDetector &d, const SyncEvent &ev) { d.onCondSignal(ev); },
         [](RaceDetector &d, const SyncEvent &ev) { d.onCondWait(ev); },
         {}},
        {"cond broadcast",
         [](RaceDetector &d, const SyncEvent &ev) {
             d.onCondBroadcast(ev);
         },
         [](RaceDetector &d, const SyncEvent &ev) { d.onCondWait(ev); },
         {}},
        {"atomic",
         [](RaceDetector &d, const SyncEvent &ev) { d.onAtomicStore(ev); },
         [](RaceDetector &d, const SyncEvent &ev) { d.onAtomicLoad(ev); },
         {}},
        {"barrier",
         [](RaceDetector &d, const SyncEvent &) {
             BarrierEvent b;
             b.barrier = kSync;
             b.participants = 2;
             d.onBarrier(b);
         },
         [](RaceDetector &, const SyncEvent &) {},
         {}},
    };
    return table;
}

/** Run the hand-off; @return true if thread 1's write is reported. */
bool
handOffReports(const Column &col, const Row &row, bool with_sync)
{
    std::unique_ptr<RaceDetector> d = col.make();
    MemEvent w;
    w.addr = kX;
    w.size = 4;
    w.write = true;

    w.tid = 0;
    w.site = kSite0;
    w.at = 1;
    d->onWrite(w);
    if (with_sync) {
        row.release(*d, syncEv(0));
        row.acquire(*d, syncEv(1));
    }
    w.tid = 1;
    w.site = kSite1;
    w.at = 2;
    d->onWrite(w);
    return d->sink().sites().count(kSite1) > 0;
}

TEST(SyncClocks, EdgeTable)
{
    for (const Row &row : rows()) {
        for (const Column &col : columns()) {
            SCOPED_TRACE(std::string(row.family) + " x " + col.name);
            EXPECT_EQ(handOffReports(col, row, true),
                      row.reportsWithSync.count(col.name) > 0);
            EXPECT_TRUE(handOffReports(col, row, false));
        }
    }
}

TEST(SyncClocksDeathTest, OutOfRangeThreadPanicsInEverySyncHook)
{
    const std::vector<std::pair<const char *, Side>> hooks = {
        {"lock acquire",
         [](RaceDetector &d, const SyncEvent &e) { d.onLockAcquire(e); }},
        {"lock release",
         [](RaceDetector &d, const SyncEvent &e) { d.onLockRelease(e); }},
        {"sema post",
         [](RaceDetector &d, const SyncEvent &e) { d.onSemaPost(e); }},
        {"sema wait",
         [](RaceDetector &d, const SyncEvent &e) { d.onSemaWait(e); }},
        {"rwlock write acquire",
         [](RaceDetector &d, const SyncEvent &e) {
             d.onRwLockAcquire(e, true);
         }},
        {"rwlock read release",
         [](RaceDetector &d, const SyncEvent &e) {
             d.onRwLockRelease(e, false);
         }},
        {"cond signal",
         [](RaceDetector &d, const SyncEvent &e) { d.onCondSignal(e); }},
        {"cond broadcast",
         [](RaceDetector &d, const SyncEvent &e) {
             d.onCondBroadcast(e);
         }},
        {"cond wait",
         [](RaceDetector &d, const SyncEvent &e) { d.onCondWait(e); }},
        {"atomic store",
         [](RaceDetector &d, const SyncEvent &e) { d.onAtomicStore(e); }},
        {"atomic load",
         [](RaceDetector &d, const SyncEvent &e) { d.onAtomicLoad(e); }},
    };
    // A replayed trace carries an unchecked 8-bit tid, so the bound
    // must hold in the sync hooks, not only in the access kernels.
    for (const Column &col : columns()) {
        if (std::string(col.name) == "hb-ideal")
            continue; // same class as "hb"
        for (const auto &[hook, call] : hooks) {
            SCOPED_TRACE(std::string(col.name) + " " + hook);
            EXPECT_DEATH(
                {
                    std::unique_ptr<RaceDetector> d = col.make();
                    call(*d, syncEv(kMaxThreads));
                },
                "thread id " + std::to_string(kMaxThreads) + " too large");
        }
    }
}

} // namespace
} // namespace hard
