#include "ledger.hh"

#include <algorithm>
#include <filesystem>
#include <map>

#include "coherence/memsys.hh"
#include "common/logging.hh"
#include "harness/experiment.hh"
#include "sim/sampling.hh"
#include "telemetry/profile.hh"
#include "telemetry/stat_registry.hh"
#include "trace/record.hh"
#include "trace/trace_cache.hh"

using namespace hard;

namespace perfbench
{

namespace
{

/** Time @p fn under a span; @return seconds. */
template <typename Fn>
double
timed(SpanLog &spans, const std::string &name, const std::string &unit,
      Fn &&fn)
{
    ScopedSpan span(spans, name, unit);
    const Clock::time_point t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/**
 * Time @p fn like timed(); a call shorter than kShortS is repeated
 * (fresh state is @p fn's job) while the repeats stay short, and the
 * least time is returned, so small programs still give steady figures.
 */
template <typename Fn>
double
steady(SpanLog &spans, const std::string &name, const std::string &unit,
       Fn &&fn)
{
    constexpr double kShortS = 0.04;
    constexpr int kMaxReps = 5;
    double best = timed(spans, name, unit, fn);
    double total = best;
    for (int rep = 1; rep < kMaxReps && total < kMaxReps * kShortS &&
         best < kShortS;
         ++rep) {
        const double s = timed(spans, name, unit, fn);
        best = std::min(best, s);
        total += s;
    }
    return best;
}

/** Counts the data accesses that reach it. */
class AccessCounter : public AccessObserver
{
  public:
    void onRead(const MemEvent &) override { ++n; }
    void onWrite(const MemEvent &) override { ++n; }
    std::uint64_t n = 0;
};

/**
 * Forwards every event to one observer, timing every kStride-th data
 * access and every other event (sync and lifecycle) with the steady
 * clock. Run once around a no-op observer, it measures the timer's own
 * cost per timed event, which the detector runs subtract.
 */
class SplitTimer : public AccessObserver
{
  public:
    static constexpr unsigned kStride = 8;

    explicit SplitTimer(AccessObserver &inner) : inner_(inner) {}

    void
    onRead(const MemEvent &ev) override
    {
        data([&] { inner_.onRead(ev); });
    }
    void
    onWrite(const MemEvent &ev) override
    {
        data([&] { inner_.onWrite(ev); });
    }
    void
    onLockAcquire(const SyncEvent &ev) override
    {
        sync([&] { inner_.onLockAcquire(ev); });
    }
    void
    onLockRelease(const SyncEvent &ev) override
    {
        sync([&] { inner_.onLockRelease(ev); });
    }
    void
    onBarrier(const BarrierEvent &ev) override
    {
        sync([&] { inner_.onBarrier(ev); });
    }
    void
    onSemaPost(const SyncEvent &ev) override
    {
        sync([&] { inner_.onSemaPost(ev); });
    }
    void
    onSemaWait(const SyncEvent &ev) override
    {
        sync([&] { inner_.onSemaWait(ev); });
    }
    void
    onRwLockAcquire(const SyncEvent &ev, bool writer) override
    {
        sync([&] { inner_.onRwLockAcquire(ev, writer); });
    }
    void
    onRwLockRelease(const SyncEvent &ev, bool writer) override
    {
        sync([&] { inner_.onRwLockRelease(ev, writer); });
    }
    void
    onCondSignal(const SyncEvent &ev) override
    {
        sync([&] { inner_.onCondSignal(ev); });
    }
    void
    onCondBroadcast(const SyncEvent &ev) override
    {
        sync([&] { inner_.onCondBroadcast(ev); });
    }
    void
    onCondWait(const SyncEvent &ev) override
    {
        sync([&] { inner_.onCondWait(ev); });
    }
    void
    onAtomicStore(const SyncEvent &ev) override
    {
        sync([&] { inner_.onAtomicStore(ev); });
    }
    void
    onAtomicLoad(const SyncEvent &ev) override
    {
        sync([&] { inner_.onAtomicLoad(ev); });
    }
    void
    onThreadEnd(ThreadId tid, Cycle at) override
    {
        sync([&] { inner_.onThreadEnd(tid, at); });
    }
    void
    onLineEvicted(Addr line, Cycle at) override
    {
        sync([&] { inner_.onLineEvicted(line, at); });
    }
    void
    onContextSwitch(CoreId core, ThreadId from, ThreadId to,
                    Cycle at) override
    {
        sync([&] { inner_.onContextSwitch(core, from, to, at); });
    }

    double accessNs = 0.0, syncNs = 0.0;
    std::uint64_t accessTimed = 0, syncTimed = 0;

  private:
    template <typename Fn>
    void
    data(Fn &&fn)
    {
        if (++seen_ % kStride != 0) {
            fn();
            return;
        }
        accessNs += time(fn);
        ++accessTimed;
    }
    template <typename Fn>
    void
    sync(Fn &&fn)
    {
        syncNs += time(fn);
        ++syncTimed;
    }
    template <typename Fn>
    static double
    time(Fn &&fn)
    {
        const Clock::time_point t0 = Clock::now();
        fn();
        return std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count();
    }

    AccessObserver &inner_;
    std::uint64_t seen_ = 0;
};

/** Per-detector accumulators. */
struct DetectorAcc
{
    double soloS = 0.0;
    double accessNs = 0.0, syncNs = 0.0;
    std::uint64_t accessTimed = 0, syncTimed = 0;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

Json
runLedger(BenchWorkload &wl, SpanLog &spans)
{
    const std::vector<NamedDetector> &battery = batteryDetectors();
    const WorkloadParams wp = wl.workloadParams();
    const std::string cache_dir = wl.params().cacheDir + "/ledger";
    std::filesystem::remove_all(cache_dir);
    TraceCache cache(cache_dir, 0);
    const std::vector<std::pair<double, const char *>> rates{
        {0.5, "0.5"}, {0.25, "0.25"}, {0.125, "0.125"}};

    double t_build = 0, t_inject = 0, t_sim = 0, t_hard = 0, t_record = 0;
    double t_store = 0, t_decode = 0, t_dispatch = 0, t_noop = 0;
    double t_gate = 0, t_joint = 0, t_mem = 0, t_unit = 0, t_layers = 0;
    double t_prof = 0;
    std::uint64_t ops = 0, events = 0, accesses = 0, cache_bytes = 0;
    std::uint64_t l1_hits = 0, l1_refs = 0, bus_txns = 0, busy = 0;
    std::uint64_t hard_cycles = 0, broadcasts = 0, attempted = 0;
    std::vector<std::uint64_t> passed(rates.size(), 0);
    std::map<std::string, DetectorAcc> dets;

    for (const std::string &app : wl.apps()) {
        ScopedSpan app_span(spans, "bench.ledger", app);

        Program prog;
        const double build = timed(spans, "workloads.build", app, [&] {
            prog = buildWorkload(app, wp);
        });
        t_build += build;
        t_inject += timed(spans, "workloads.inject", app, [&] {
            const SharedMap shared(prog);
            Program injected = prog;
            injectRace(injected, wl.params().seed0, &shared);
        });

        SimConfig cfg = defaultSimConfig();
        cfg.maxCycles = defaultCycleBudget(prog);

        // Scheduler + memory system with nothing observing.
        std::uint64_t app_ops = 0;
        const double sim_s = steady(spans, "sim.run", app, [&] {
            System sys(cfg, prog);
            sys.run();
            app_ops = sys.retiredOps();
        });
        ops += app_ops;
        t_sim += sim_s;

        // The same run under HARD's timing model (Figure 8's HARD leg).
        Json stats;
        const double hard_s = steady(spans, "core.hard_timing_run", app, [&] {
            SimConfig hs = cfg;
            hs.hardTiming.enabled = true;
            hs.maxCycles = 2 * cfg.maxCycles;
            System sys(hs, prog);
            HardDetector hard("hard", HardConfig{}, &sys.memsys().bus());
            sys.addObserver(&hard);
            sys.run();
            stats = sys.statsJson();
        });
        for (CoreId c = 0; c < cfg.memsys.numCores; ++c) {
            const std::string g = "l1." + std::to_string(c);
            const std::uint64_t hits = statFromJson(stats, g, "readHits") +
                statFromJson(stats, g, "writeHits");
            l1_hits += hits;
            l1_refs += hits + statFromJson(stats, g, "readMisses") +
                statFromJson(stats, g, "writeMisses");
        }
        const Json &bus = stats["groups"]["bus"]["counters"];
        for (const auto &[name, v] : bus.members())
            if (name.rfind("txn.", 0) == 0)
                bus_txns += v.asUint();
        busy += statFromJson(stats, "bus", "busyCycles");
        hard_cycles += statFromJson(stats, "system", "cycles");
        broadcasts += statFromJson(stats, "detector.hard", "metaBroadcasts");
        t_hard += hard_s;

        // Trace write path: record, then store into the cache.
        Trace trace;
        t_record += steady(spans, "trace.record", app,
                          [&] { trace = recordRun(prog, cfg); }) -
            sim_s;
        const std::uint64_t n = trace.events.size();
        events += n;
        const TraceKey key = makeRunKey(app, wp, cfg, -1);
        t_store += timed(spans, "trace.store", app,
                         [&] { cache.store(key, trace); });
        cache_bytes += std::filesystem::file_size(cache.pathFor(key));

        auto replay = [&](const std::vector<AccessObserver *> &obs) {
            hard_panic_if(!cache.replayCached(key, obs),
                          "ledger: cache miss on %s", app.c_str());
        };

        // Decode alone, then observer dispatch.
        const double decode =
            steady(spans, "trace.decode", app, [&] { replay({}); });
        t_decode += decode;
        AccessObserver noop;
        t_noop += steady(spans, "trace.dispatch", app,
                         [&] { replay({&noop}); }) -
            decode;
        t_dispatch += steady(spans, "trace.dispatch", app, [&] {
                          replay({&noop, &noop, &noop, &noop});
                      }) -
            decode;

        // Sampling: the gate's cost, and what each rate lets through.
        SamplingSpec half;
        half.rate = 0.5;
        SamplingObserver gate(noop, half);
        t_gate += steady(spans, "sampling.gate", app,
                         [&] { replay({&gate}); }) -
            decode;
        {
            ScopedSpan span(spans, "sampling.pass", app);
            std::vector<AccessCounter> counters(rates.size() + 1);
            std::vector<std::unique_ptr<SamplingObserver>> taps;
            std::vector<AccessObserver *> obs;
            for (std::size_t r = 0; r < rates.size(); ++r) {
                SamplingSpec spec;
                spec.rate = rates[r].first;
                taps.push_back(
                    std::make_unique<SamplingObserver>(counters[r], spec));
                obs.push_back(taps.back().get());
            }
            obs.push_back(&counters.back());
            replay(obs);
            for (std::size_t r = 0; r < rates.size(); ++r)
                passed[r] += counters[r].n;
            attempted += counters.back().n;
        }

        // Each detector alone, all eight jointly, and the per-handler
        // split.
        std::vector<double> solo;
        for (const NamedDetector &d : battery) {
            solo.push_back(steady(spans, std::string("detector.") + d.metric,
                                  app, [&] { replay({d.make().get()}); }));
            dets[d.metric].soloS += solo.back() - decode;
        }
        const double joint = steady(spans, "trace.joint", app, [&] {
            std::vector<std::unique_ptr<RaceDetector>> all;
            std::vector<AccessObserver *> obs;
            for (const NamedDetector &d : battery) {
                all.push_back(d.make());
                obs.push_back(all.back().get());
            }
            replay(obs);
        });
        t_joint += joint - decode;
        SplitTimer bare(noop);
        replay({&bare});
        const double bare_access =
            ratio(bare.accessNs, static_cast<double>(bare.accessTimed));
        const double bare_sync =
            ratio(bare.syncNs, static_cast<double>(bare.syncTimed));
        for (const NamedDetector &d : battery) {
            auto det = d.make();
            SplitTimer split(*det);
            timed(spans, std::string("detector.") + d.metric + ".split", app,
                  [&] { replay({&split}); });
            DetectorAcc &acc = dets[d.metric];
            acc.accessNs += split.accessNs - bare_access * split.accessTimed;
            acc.accessTimed += split.accessTimed;
            acc.syncNs += split.syncNs - bare_sync * split.syncTimed;
            acc.syncTimed += split.syncTimed;
        }

        // The memory system driven with the app's recorded accesses.
        std::uint64_t app_accesses = 0;
        t_mem += steady(spans, "memsys.access", app, [&] {
            MemorySystem mem(cfg.memsys);
            app_accesses = 0;
            for (const TraceEvent &ev : trace.events) {
                if (ev.kind != TraceKind::Read && ev.kind != TraceKind::Write)
                    continue;
                mem.access(static_cast<CoreId>(ev.tid % cfg.memsys.numCores),
                           ev.addr, ev.size, ev.kind == TraceKind::Write,
                           ev.at);
                ++app_accesses;
            }
        });
        accesses += app_accesses;

        // The harness's own cost for the race-free unit: its wall time
        // minus the layer calls it is made of.
        const double unit = timed(spans, "harness.unit", app,
                                  [&] { wl.harnessUnit(app); });
        t_unit += unit;
        switch (wl.unitShape()) {
          case UnitShape::CycleTable2:
            t_layers += build +
                timed(spans, "sim.run_with_detectors", app, [&] {
                    auto quartet = table2Detectors()();
                    std::vector<RaceDetector *> raw;
                    for (auto &d : quartet)
                        raw.push_back(d.get());
                    runWithDetectors(prog, cfg, raw);
                });
            break;
          case UnitShape::WarmBattery:
            t_layers += build + joint;
            break;
          case UnitShape::Overhead:
            t_layers += 2 * build + sim_s + hard_s;
            break;
          case UnitShape::WarmHard:
            t_layers += build + solo[0];
            break;
        }

        // The same unit with the wall-clock profiler on.
        Profiler::enable();
        t_prof += timed(spans, "telemetry.profiled_unit", app,
                        [&] { wl.harnessUnit(app); });
        Profiler::disable();
    }
    std::filesystem::remove_all(cache_dir);

    const double napps = static_cast<double>(wl.apps().size());
    const double ev = static_cast<double>(events);
    Json m = Json::object();
    m.set("sim.run_ns_per_op", ratio(t_sim * 1e9, static_cast<double>(ops)));
    m.set("memsys.access_ns",
          ratio(t_mem * 1e9, static_cast<double>(accesses)));
    m.set("memsys.l1_hit_ratio", ratio(static_cast<double>(l1_hits),
                                       static_cast<double>(l1_refs)));
    m.set("coherence.bus_txns", bus_txns);
    m.set("coherence.bus_occupancy_pct",
          ratio(100.0 * static_cast<double>(busy),
                static_cast<double>(hard_cycles)));
    m.set("coherence.meta_broadcasts", broadcasts);
    m.set("core.hard_timing_extra_pct", ratio(100.0 * (t_hard - t_sim), t_sim));
    double solo_sum = 0.0;
    for (const NamedDetector &d : battery) {
        const DetectorAcc &acc = dets[d.metric];
        const std::string p = std::string("detector.") + d.metric;
        m.set(p + ".ns_per_event", ratio(acc.soloS * 1e9, ev));
        m.set(p + ".access_ns",
              ratio(acc.accessNs, static_cast<double>(acc.accessTimed)));
        m.set(p + ".sync_ns",
              ratio(acc.syncNs, static_cast<double>(acc.syncTimed)));
        solo_sum += acc.soloS;
    }
    m.set("trace.decode_ns_per_event", ratio(t_decode * 1e9, ev));
    m.set("trace.dispatch_ns_per_event", ratio(t_dispatch * 1e9, 4 * ev));
    m.set("trace.joint_over_solo", ratio(t_joint, solo_sum));
    m.set("trace.record_ns_per_event", ratio(t_record * 1e9, ev));
    m.set("trace.store_ms", t_store * 1e3);
    m.set("trace.cache_mb", static_cast<double>(cache_bytes) / (1 << 20));
    m.set("sampling.gate_ns_per_event", ratio((t_gate - t_noop) * 1e9, ev));
    for (std::size_t r = 0; r < rates.size(); ++r)
        m.set(std::string("sampling.pass_frac_r") + rates[r].second,
              ratio(static_cast<double>(passed[r]),
                    static_cast<double>(attempted)));
    m.set("workloads.build_ms", t_build * 1e3 / napps);
    m.set("workloads.inject_ms", t_inject * 1e3 / napps);
    m.set("harness.unit_overhead_ms", (t_unit - t_layers) * 1e3 / napps);
    m.set("telemetry.profile_overhead_pct",
          ratio(100.0 * (t_prof - t_unit), t_unit));
    return m;
}

} // namespace perfbench
