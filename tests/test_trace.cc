/**
 * @file
 * Tests for the post-mortem trace infrastructure: pack/unpack
 * round-trips, file round-trips, format validation, and the central
 * guarantee that offline replay reproduces online detection exactly.
 */

#include <cstddef>
#include <cstdio>

#include <gtest/gtest.h>

#include "core/hard_detector.hh"
#include "detector_test_util.hh"
#include "detectors/happens_before.hh"
#include "detectors/ideal_lockset.hh"
#include "trace/recorder.hh"
#include "trace/replayer.hh"
#include "workloads/registry.hh"

namespace hard
{
namespace
{

std::string
tmpPath(const char *tag)
{
    return ::testing::TempDir() + "hard_trace_" + tag + ".trc";
}

TEST(TraceEventTest, MemoryEventPackRoundTrip)
{
    TraceEvent ev;
    ev.kind = TraceKind::Write;
    ev.tid = 3;
    ev.addr = 0x123456789abcull;
    ev.size = 8;
    ev.site = 77;
    ev.at = 987654321;
    ev.stateAfter = CState::Modified;
    ev.sharers = 4;

    TraceEvent back = TraceEvent::unpack(ev.pack());
    EXPECT_EQ(back.kind, ev.kind);
    EXPECT_EQ(back.tid, ev.tid);
    EXPECT_EQ(back.addr, ev.addr);
    EXPECT_EQ(back.size, ev.size);
    EXPECT_EQ(back.site, ev.site);
    EXPECT_EQ(back.at, ev.at);
    EXPECT_EQ(back.stateAfter, ev.stateAfter);
    EXPECT_EQ(back.sharers, ev.sharers);
}

TEST(TraceEventTest, BarrierEventPackRoundTrip)
{
    TraceEvent ev;
    ev.kind = TraceKind::Barrier;
    ev.addr = 0x4000;
    ev.at = 5555;
    ev.episode = 12;
    ev.participants = 4;

    TraceEvent back = TraceEvent::unpack(ev.pack());
    EXPECT_EQ(back.kind, TraceKind::Barrier);
    EXPECT_EQ(back.addr, ev.addr);
    EXPECT_EQ(back.episode, 12u);
    EXPECT_EQ(back.participants, 4u);
}

TEST(TraceEventTest, KindNamesCovered)
{
    for (int k = 0; k <= static_cast<int>(TraceKind::LineEvicted); ++k)
        EXPECT_STRNE(traceKindName(static_cast<TraceKind>(k)), "?");
}

TEST(TraceFile, WriteReadRoundTrip)
{
    Trace t;
    t.siteNames = {"a:one", "a:two"};
    TraceEvent ev;
    ev.kind = TraceKind::Read;
    ev.tid = 1;
    ev.addr = 0x1000;
    ev.size = 8;
    ev.site = 1;
    ev.at = 42;
    t.events.push_back(ev);
    ev.kind = TraceKind::ThreadEnd;
    t.events.push_back(ev);

    std::string path = tmpPath("roundtrip");
    writeTrace(path, t);
    Trace back = readTrace(path);
    std::remove(path.c_str());

    ASSERT_EQ(back.siteNames, t.siteNames);
    ASSERT_EQ(back.events.size(), 2u);
    EXPECT_EQ(back.events[0].addr, 0x1000u);
    EXPECT_EQ(back.events[1].kind, TraceKind::ThreadEnd);
    EXPECT_EQ(back.threadCount(), 1u);
}

TEST(TraceFileDeath, RejectsGarbageFiles)
{
    std::string path = tmpPath("garbage");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fputs("definitely not a trace", f);
        std::fclose(f);
    }
    EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                "not a HARD trace");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, RejectsTruncatedEvents)
{
    Trace t;
    t.siteNames = {"s"};
    TraceEvent ev;
    ev.kind = TraceKind::Read;
    t.events.assign(4, ev);
    std::string path = tmpPath("trunc");
    writeTrace(path, t);
    // Chop the last record in half.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        std::fseek(f, 0, SEEK_END);
        long sz = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(::truncate(path.c_str(), sz - 12), 0);
    }
    EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                "truncated at event");
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsThreadIdBeyondClockWidth)
{
    Trace t;
    t.siteNames = {"s"};
    TraceEvent ev;
    ev.kind = TraceKind::Write;
    ev.tid = 1;
    ev.size = 4;
    t.events.assign(3, ev);
    t.events[2].kind = TraceKind::Barrier;
    t.events[2].tid = invalidThread;
    std::string bytes = serializeTrace(t);

    // The 0xff "no thread" sentinel of the barrier record is legal.
    Trace back;
    std::string err;
    ASSERT_TRUE(deserializeTrace(bytes, &back, &err)) << err;
    EXPECT_EQ(back.events[2].tid, invalidThread);

    // Patch the second record's tid byte past the clock width.
    const std::size_t rec = bytes.size() - 2 * sizeof(TraceEvent::Packed);
    bytes[rec + offsetof(TraceEvent::Packed, tid)] = 9;
    EXPECT_FALSE(deserializeTrace(bytes, &back, &err));
    EXPECT_NE(err.find("thread id 9 out of range"), std::string::npos)
        << err;
}

TEST(TraceEventDeathTest, PackRejectsThreadIdBeyondClockWidth)
{
    TraceEvent ev;
    ev.kind = TraceKind::Read;
    ev.tid = kMaxThreads;
    EXPECT_DEATH(ev.pack(), "thread id 8 does not fit a record");
}

TEST(TraceFileDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(readTrace("/nonexistent/dir/x.trc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

/**
 * The central post-mortem guarantee: replaying a recorded run into a
 * fresh detector yields byte-identical reports to the online run.
 */
class TraceReplayFidelity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TraceReplayFidelity, OfflineAnalysisMatchesOnline)
{
    WorkloadParams params;
    params.scale = 0.05;

    // Online: record while detecting.
    Program prog = buildWorkload(GetParam(), params);
    TraceRecorder recorder(prog);
    HardDetector online_hard("hard", HardConfig{});
    HappensBeforeDetector online_hb("hb", HbConfig{});
    IdealLocksetDetector online_ls("ls", IdealLocksetConfig{});
    {
        System sys(SimConfig{}, prog);
        sys.addObserver(&recorder);
        sys.addObserver(&online_hard);
        sys.addObserver(&online_hb);
        sys.addObserver(&online_ls);
        sys.run();
    }

    // Round-trip through the file format.
    std::string path = tmpPath(GetParam());
    writeTrace(path, recorder.take());
    Trace trace = readTrace(path);
    std::remove(path.c_str());

    // Offline: fresh detectors over the replay.
    HardDetector off_hard("hard", HardConfig{});
    HappensBeforeDetector off_hb("hb", HbConfig{});
    IdealLocksetDetector off_ls("ls", IdealLocksetConfig{});
    std::size_t replayed =
        replayTrace(trace, {&off_hard, &off_hb, &off_ls});
    EXPECT_GT(replayed, 0u);

    EXPECT_EQ(off_hard.sink().sites(), online_hard.sink().sites());
    EXPECT_EQ(off_hard.sink().dynamicCount(),
              online_hard.sink().dynamicCount());
    EXPECT_EQ(off_hard.hardStats().metaBroadcasts,
              online_hard.hardStats().metaBroadcasts);
    EXPECT_EQ(off_hb.sink().sites(), online_hb.sink().sites());
    EXPECT_EQ(off_hb.sink().dynamicCount(),
              online_hb.sink().dynamicCount());
    EXPECT_EQ(off_ls.sink().sites(), online_ls.sink().sites());
    EXPECT_EQ(off_ls.sink().dynamicCount(),
              online_ls.sink().dynamicCount());
}

INSTANTIATE_TEST_SUITE_P(Apps, TraceReplayFidelity,
                         ::testing::Values("cholesky", "barnes", "fmm",
                                           "ocean", "water-nsquared",
                                           "raytrace", "server"));

} // namespace
} // namespace hard
