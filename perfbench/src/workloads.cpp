#include "workloads.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/error.hh"
#include "common/table.hh"
#include "core/hybrid.hh"
#include "detectors/djit_plus.hh"
#include "detectors/fasttrack.hh"
#include "detectors/racetrack.hh"
#include "harness/batch.hh"
#include "harness/frontier.hh"
#include "telemetry/stat_registry.hh"

using namespace hard;

namespace perfbench
{

const std::vector<NamedDetector> &
batteryDetectors()
{
    static const std::vector<NamedDetector> dets = {
        {"hard",
         [] { return std::make_unique<HardDetector>("hard.default",
                                                    HardConfig{}); }},
        {"ideal",
         [] {
             return std::make_unique<IdealLocksetDetector>(
                 "hard.ideal", IdealLocksetConfig{});
         }},
        {"hb",
         [] {
             return std::make_unique<HappensBeforeDetector>("hb.default",
                                                            HbConfig{});
         }},
        {"hb-ideal",
         [] {
             return std::make_unique<HappensBeforeDetector>(
                 "hb.ideal", HbConfig::ideal());
         }},
        {"hybrid",
         [] { return std::make_unique<HybridDetector>("hybrid",
                                                      HardConfig{}); }},
        {"fasttrack",
         [] { return std::make_unique<FastTrackDetector>("fasttrack", 4); }},
        {"djit",
         [] { return std::make_unique<DjitPlusDetector>("djit", 4); }},
        {"racetrack",
         [] {
             return std::make_unique<RaceTrackDetector>("racetrack",
                                                        RaceTrackConfig{});
         }},
    };
    return dets;
}

namespace
{

DetectorFactory
batteryFactory()
{
    return [] {
        std::vector<std::unique_ptr<RaceDetector>> out;
        for (const NamedDetector &d : batteryDetectors())
            out.push_back(d.make());
        return out;
    };
}

/** Factory of no detectors: a fast-mode unit then only records and
 * stores its trace (the cold cache-filling pass). */
DetectorFactory
noDetectors()
{
    return [] { return std::vector<std::unique_ptr<RaceDetector>>{}; };
}

/** Paper Table 2 (HPCA 2007): bugs detected out of 10 injected runs
 * and false-alarm sites, per app, in table2Detectors() order. */
struct PaperRow
{
    const char *app;
    int detected[4];
    int falseAlarms[4];
};
constexpr PaperRow kPaperTable2[] = {
    {"cholesky", {9, 10, 6, 10}, {91, 38, 37, 13}},
    {"barnes", {10, 10, 10, 10}, {54, 20, 41, 18}},
    {"fmm", {8, 10, 7, 8}, {73, 40, 70, 36}},
    {"ocean", {8, 10, 8, 10}, {62, 1, 62, 1}},
    {"water-nsquared", {9, 10, 5, 6}, {5, 0, 0, 0}},
    {"raytrace", {10, 10, 8, 8}, {48, 2, 36, 0}},
};
constexpr const char *kTable2Names[] = {"hard.default", "hard.ideal",
                                        "hb.default", "hb.ideal"};

/** Deterministic document of one effectiveness item. */
Json
effectivenessDoc(const BatchItemResult &r)
{
    Json runs = Json::array();
    std::uint64_t cycles = 0;
    for (const EffectivenessRun &run : r.runDetail) {
        Json j = Json::object();
        j.set("outcome", run.outcome);
        j.set("raceFree", run.raceFree);
        j.set("injectionValid", run.injectionValid);
        Json dets = Json::object();
        for (const auto &[name, o] : run.byDetector) {
            Json d = Json::object();
            d.set("detected", o.detected);
            d.set("sites", static_cast<std::uint64_t>(o.sites.size()));
            d.set("dynamicReports", o.dynamicReports);
            dets.set(name, std::move(d));
        }
        j.set("detectors", std::move(dets));
        runs.push(std::move(j));
        cycles += statFromJson(run.stats, "system", "cycles");
    }
    Json doc = Json::object();
    doc.set("scores", toJson(r.effectiveness));
    doc.set("runs", std::move(runs));
    if (cycles != 0)
        doc.set("simCycles", cycles);
    return doc;
}

ItemOutcome
outcomeOf(const std::vector<BatchItemResult> &results, Json doc)
{
    ItemOutcome out;
    for (const BatchItemResult &r : results) {
        for (const EffectivenessRun &run : r.runDetail) {
            ++out.units;
            out.okUnits += run.ok() ? 1 : 0;
        }
        if (!r.overheadOutcome.empty()) {
            ++out.units;
            out.okUnits += r.overheadOutcome == "ok" ? 1 : 0;
        }
    }
    out.doc = std::move(doc);
    return out;
}

BatchItem
effectivenessItem(const std::string &app, const WorkloadParams &wp,
                  const BenchParams &p, DetectorFactory factory,
                  unsigned runs)
{
    BatchItem item;
    item.workload = app;
    item.wp = wp;
    item.sim = defaultSimConfig();
    item.factory = std::move(factory);
    item.runs = runs;
    item.seed0 = p.seed0;
    return item;
}

/**
 * Detection metrics of a Table 2-shaped result and the comparison
 * with the paper, printed side by side.
 */
void
table2Metrics(const Json &result, Json &sim)
{
    const unsigned runs = kTable2Runs;
    std::uint64_t hard_det = 0, hb_det = 0, fa = 0;
    double abs_err = 0.0;
    Table t("Table 2: measured bugs detected / attempted (paper, "
            "scaled to " + std::to_string(runs) +
            " injected run(s) per app) and race-free false-alarm "
            "sites (paper)");
    std::vector<std::string> header{"App"};
    for (const char *n : kTable2Names)
        header.push_back(n);
    t.setHeader(header);
    for (const PaperRow &row : kPaperTable2) {
        const Json &scores = result[row.app]["scores"];
        std::vector<std::string> cells{row.app};
        for (int d = 0; d < 4; ++d) {
            const Json &s = scores[kTable2Names[d]];
            const std::uint64_t det = s["bugsDetected"].asUint();
            const std::uint64_t att = s["runsAttempted"].asUint();
            const double paper = row.detected[d] * att / 10.0;
            abs_err += std::fabs(static_cast<double>(det) - paper);
            char buf[96];
            std::snprintf(buf, sizeof buf, "%llu/%llu (%.1f) FA %llu (%d)",
                          static_cast<unsigned long long>(det),
                          static_cast<unsigned long long>(att), paper,
                          static_cast<unsigned long long>(
                              s["falseAlarms"].asUint()),
                          row.falseAlarms[d]);
            cells.push_back(buf);
        }
        t.addRow(cells);
        hard_det += scores["hard.default"]["bugsDetected"].asUint();
        hb_det += scores["hb.default"]["bugsDetected"].asUint();
        fa += scores["hard.default"]["falseAlarms"].asUint();
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("paper_table2_abs_err = %.2f bugs over 24 cells. The "
                "simulated CMP and its workload models are unvalidated "
                "against real hardware; the paper's numbers come from "
                "its own simulator and the SPLASH-2 binaries.\n",
                abs_err);
    sim.set("hard_detected", hard_det);
    sim.set("hb_detected", hb_det);
    sim.set("false_alarm_sites", fa);
    sim.set("paper_table2_abs_err", abs_err);
}

// ---------------------------------------------------------------------
class Table2Cycle : public BenchWorkload
{
  public:
    using BenchWorkload::BenchWorkload;

    void
    setup() override
    {
        // Generate and validate every unit's input: the programs, the
        // shared-data maps and the injections.
        for (const std::string &app : apps()) {
            Program prog = buildWorkload(app, workloadParams());
            const SharedMap shared(prog);
            for (unsigned r = 0; r < kTable2Runs; ++r) {
                Program inj_prog = prog;
                injectRace(inj_prog, p_.seed0 + r, &shared);
            }
        }
    }

    ItemOutcome
    run(std::size_t i) override
    {
        BatchItem item = effectivenessItem(apps()[i], workloadParams(), p_,
                                           table2Detectors(), kTable2Runs);
        item.collectStats = true;
        const auto res = runBatch({item}, pool_);
        return outcomeOf(res, effectivenessDoc(res[0]));
    }

    Json
    simMetrics(const Json &result, std::vector<std::string> &) override
    {
        Json sim = Json::object();
        std::uint64_t cycles = 0;
        for (const std::string &app : apps())
            cycles += result[app]["simCycles"].asUint();
        sim.set("sim_cycles", cycles);
        table2Metrics(result, sim);
        return sim;
    }

    UnitShape unitShape() const override { return UnitShape::CycleTable2; }

    void
    harnessUnit(const std::string &app) override
    {
        runBatch({effectivenessItem(app, workloadParams(), p_,
                                    table2Detectors(), 0)},
                 pool_);
    }
};

/** Probe recording the last thread-end cycle of a replayed trace. */
class EndCycleProbe : public AccessObserver
{
  public:
    void
    onThreadEnd(ThreadId, Cycle at) override
    {
        if (at > end)
            end = at;
    }
    Cycle end = 0;
};

// ---------------------------------------------------------------------
class BatteryFastWarm : public BenchWorkload
{
  public:
    using BenchWorkload::BenchWorkload;

    void
    setup() override
    {
        // Cold pass: record every unit once and store it, through the
        // harness's fast path with no detectors attached.
        const std::string dir = p_.cacheDir + "/battery";
        std::filesystem::remove_all(dir);
        cache_ = std::make_unique<TraceCache>(dir, 0);
        std::vector<BatchItem> items;
        for (const std::string &app : apps()) {
            BatchItem item = effectivenessItem(
                app, workloadParams(), p_, noDetectors(), kTable2Runs);
            item.mode = ExecMode::Fast;
            item.traceCache = cache_.get();
            items.push_back(std::move(item));
        }
        runBatch(items, pool_);
        stored_ = cache_->counters().stores;
    }

    ItemOutcome
    run(std::size_t i) override
    {
        BatchItem item = effectivenessItem(apps()[i], workloadParams(), p_,
                                           batteryFactory(), kTable2Runs);
        item.mode = ExecMode::Fast;
        item.traceCache = cache_.get();
        const auto res = runBatch({item}, pool_);
        return outcomeOf(res, effectivenessDoc(res[0]));
    }

    Json
    simMetrics(const Json &result, std::vector<std::string> &errors) override
    {
        // Every timed unit must have been a warm hit: the timed part
        // stores nothing and never misses.
        const TraceCache::Counters c = cache_->counters();
        if (c.misses != stored_ || c.stores != stored_)
            errors.push_back(
                "battery-fast-warm: the timed replays missed the warm "
                "cache (" + std::to_string(c.misses - stored_) +
                " misses)");
        // Simulated cycles of the recordings: each unit's last
        // thread-end cycle, read back from the cache.
        std::uint64_t cycles = 0;
        for (const std::string &app : apps()) {
            Program base = buildWorkload(app, workloadParams());
            const SharedMap shared(base);
            for (unsigned r = 0; r <= kTable2Runs; ++r) {
                Program prog = base;
                if (r < kTable2Runs &&
                    !injectRace(prog, p_.seed0 + r, &shared).valid)
                    continue;
                SimConfig cfg = defaultSimConfig();
                cfg.maxCycles = defaultCycleBudget(prog);
                const TraceKey key = makeRunKey(
                    app, workloadParams(), cfg,
                    r < kTable2Runs
                        ? static_cast<std::int64_t>(p_.seed0 + r)
                        : -1);
                EndCycleProbe probe;
                if (!cache_->replayCached(key, {&probe}))
                    errors.push_back("battery-fast-warm: no recording "
                                     "for a unit of " + app);
                cycles += probe.end;
            }
        }
        Json sim = Json::object();
        sim.set("sim_cycles", cycles);
        table2Metrics(result, sim);
        return sim;
    }

    UnitShape unitShape() const override { return UnitShape::WarmBattery; }

    void
    harnessUnit(const std::string &app) override
    {
        BatchItem item = effectivenessItem(app, workloadParams(), p_,
                                           batteryFactory(), 0);
        item.mode = ExecMode::Fast;
        item.traceCache = cache_.get();
        runBatch({item}, pool_);
    }

  private:
    std::unique_ptr<TraceCache> cache_;
    std::uint64_t stored_ = 0;
};

// ---------------------------------------------------------------------
class Fig8Overhead : public BenchWorkload
{
  public:
    using BenchWorkload::BenchWorkload;

    void
    setup() override
    {
        for (const std::string &app : apps())
            defaultCycleBudget(buildWorkload(app, workloadParams()));
    }

    ItemOutcome
    run(std::size_t i) override
    {
        const OverheadResult r =
            measureOverhead(apps()[i], workloadParams(), defaultSimConfig(),
                            HardConfig{});
        ItemOutcome out;
        out.units = 1;
        out.okUnits = 1;
        out.doc = toJson(r);
        return out;
    }

    Json
    simMetrics(const Json &result, std::vector<std::string> &errors) override
    {
        std::uint64_t cycles = 0;
        double pct = 0.0;
        Table t("Figure 8: HARD execution-time overhead (simulated)");
        t.setHeader({"App", "Base cycles", "HARD cycles", "Overhead %",
                     "Meta bytes"});
        for (const std::string &app : apps()) {
            const Json &r = result[app];
            const std::uint64_t base = r["baseCycles"].asUint();
            const std::uint64_t hard = r["hardCycles"].asUint();
            cycles += base + hard;
            pct += r["overheadPct"].asDouble();
            if (base == 0 || hard < base)
                errors.push_back("fig8-overhead: " + app +
                                 ": HARD timing made the run faster");
            t.addRow({app, std::to_string(base), std::to_string(hard),
                      fmtDouble(r["overheadPct"].asDouble(), 2),
                      std::to_string(r["metaBytes"].asUint())});
        }
        std::fputs(t.render().c_str(), stdout);
        Json sim = Json::object();
        sim.set("sim_cycles", cycles);
        sim.set("sim_overhead_pct", pct / static_cast<double>(apps().size()));
        return sim;
    }

    UnitShape unitShape() const override { return UnitShape::Overhead; }

    void
    harnessUnit(const std::string &app) override
    {
        measureOverhead(app, workloadParams(), defaultSimConfig(),
                        HardConfig{});
    }
};

// ---------------------------------------------------------------------
class ServerFrontier : public BenchWorkload
{
  public:
    using BenchWorkload::BenchWorkload;

    WorkloadParams
    workloadParams() const override
    {
        WorkloadParams wp = BenchWorkload::workloadParams();
        wp.openLoop = true;
        return wp;
    }

    std::vector<std::string> apps() const override { return {"server"}; }
    std::vector<std::string> items() const override { return {"frontier"}; }

    void
    setup() override
    {
        const std::string dir = p_.cacheDir + "/frontier";
        std::filesystem::remove_all(dir);
        cache_ = std::make_unique<TraceCache>(dir, 0);
        BatchItem item = effectivenessItem("server", workloadParams(), p_,
                                           noDetectors(), kFrontierRuns);
        item.mode = ExecMode::Fast;
        item.traceCache = cache_.get();
        runBatch({item}, pool_);
        stored_ = cache_->counters().stores;
    }

    ItemOutcome
    run(std::size_t) override
    {
        const FrontierOptions fo = options();
        const auto res = runBatch(frontierItems(fo), pool_);
        return outcomeOf(res, frontierJson(fo, res));
    }

    Json
    simMetrics(const Json &result, std::vector<std::string> &errors) override
    {
        const TraceCache::Counters c = cache_->counters();
        if (c.stores != stored_)
            errors.push_back("server-frontier: the timed sweeps "
                             "re-recorded a cached unit");
        const Json &points = result["frontier"]["points"];
        std::uint64_t cycles = 0;
        std::uint64_t prev_meta = ~std::uint64_t{0};
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Json &ov = points.at(i)["overhead"];
            cycles += ov["baseCycles"].asUint() + ov["hardCycles"].asUint();
            // Granule samples nest across rates, so metadata traffic
            // cannot grow as the rate falls.
            if (ov["metaBytes"].asUint() > prev_meta)
                errors.push_back("server-frontier: metaBytes grew as "
                                 "the sampling rate fell");
            prev_meta = ov["metaBytes"].asUint();
        }
        const Json &full = points.at(0);
        const Json &hard = full["detectors"]["hard"];
        Json sim = Json::object();
        sim.set("sim_cycles", cycles);
        sim.set("sim_overhead_pct", full["overhead"]["overheadPct"]);
        sim.set("hard_detected", hard["detected"]);
        sim.set("false_alarm_sites", hard["falseAlarms"]);
        return sim;
    }

    UnitShape unitShape() const override { return UnitShape::WarmHard; }

    void
    harnessUnit(const std::string &app) override
    {
        BatchItem item = effectivenessItem(
            app, workloadParams(), p_,
            [] {
                std::vector<std::unique_ptr<RaceDetector>> d;
                d.push_back(batteryDetectors()[0].make());
                return d;
            },
            0);
        item.mode = ExecMode::Fast;
        item.traceCache = cache_.get();
        runBatch({item}, pool_);
    }

  private:
    FrontierOptions
    options() const
    {
        FrontierOptions fo;
        fo.workload = "server";
        fo.wp = workloadParams();
        fo.sim = defaultSimConfig();
        fo.runs = kFrontierRuns;
        fo.seed0 = p_.seed0;
        fo.effMode = ExecMode::Fast;
        fo.traceCache = cache_.get();
        return fo;
    }

    std::unique_ptr<TraceCache> cache_;
    std::uint64_t stored_ = 0;
};

} // namespace

WorkloadParams
BenchWorkload::workloadParams() const
{
    WorkloadParams wp;
    wp.scale = 1.0;
    wp.seed = p_.wpSeed;
    return wp;
}

std::vector<std::string>
BenchWorkload::apps() const
{
    std::vector<std::string> out;
    for (const WorkloadInfo &w : allWorkloads())
        out.push_back(w.name);
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "table2-cycle", "battery-fast-warm", "fig8-overhead",
        "server-frontier"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const BenchParams &p)
{
    if (p.workload == "table2-cycle")
        return std::make_unique<Table2Cycle>(p);
    if (p.workload == "battery-fast-warm")
        return std::make_unique<BatteryFastWarm>(p);
    if (p.workload == "fig8-overhead")
        return std::make_unique<Fig8Overhead>(p);
    if (p.workload == "server-frontier")
        return std::make_unique<ServerFrontier>(p);
    throw ConfigError("unknown workload '" + p.workload + "'");
}

Json
table2CycleScores(const BenchParams &p)
{
    Table2Cycle wl(p);
    Json out = Json::object();
    const std::vector<std::string> apps = wl.apps();
    for (std::size_t i = 0; i < apps.size(); ++i)
        out.set(apps[i], wl.run(i).doc["scores"]);
    return out;
}

} // namespace perfbench
