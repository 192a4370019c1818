/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload=<name> --seed0=<n> --wp-seed=<n>
 *             --seconds=<s> --trace=<0|1> --out=<file> --cache=<dir>
 *             [--cycle-crosscheck]
 *
 * Runs the workload's set-up (at least three times untraced, once
 * traced), then repeats its items round-robin for --seconds and at
 * least two sweeps (untraced) or exactly one sweep (traced), checks
 * that every repetition reproduced the first sweep's result bit for
 * bit, and writes one `hard.perfbench.v1` document to --out: the result
 * document, the sim metrics, the end-to-end metrics and, traced, the
 * per-layer metrics and the span log. Every timed call is bracketed by
 * a host-speed probe and reported host-corrected, with the raw times
 * kept beside. perfbench/run.py drives it.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "ledger.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace hard;
using namespace perfbench;

namespace
{

/**
 * Untraced runs set up at least kSetupReps times, and again while the
 * set-ups so far took less than kSetupSeconds (at most kSetupMaxReps),
 * and report the median.
 */
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 9;
constexpr double kSetupSeconds = 1.0;
/** Untraced runs time every item at least this many times. */
constexpr unsigned kMinSweeps = 2;
/** Probe time that host-corrected times are scaled to (seconds). */
constexpr double kProbeRefSeconds = 0.005;

/**
 * Host-speed probe: a fixed pointer chase over 256 KiB that shares no
 * code with the simulator. Other load on a shared host (core and cache
 * contention, frequency) slows the probe along with the program, so a
 * time measured between two probes is corrected to the host speed at
 * which one probe takes kProbeRefSeconds.
 */
class HostProbe
{
  public:
    HostProbe() : next_(kWords)
    {
        // One random cycle through every word (Sattolo's algorithm), so
        // the chase defeats the prefetchers.
        for (std::size_t i = 0; i < kWords; ++i)
            next_[i] = i;
        std::uint64_t x = 88172645463325252ull;
        for (std::size_t i = kWords - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(next_[i], next_[x % i]);
        }
    }

    /**
     * Time @p fn and correct the time by the probes taken just before
     * and just after it. @return {raw seconds, corrected seconds}.
     */
    template <typename Fn>
    std::pair<double, double>
    time(Fn &&fn)
    {
        if (last_ < 0.0)
            last_ = probe();
        const Clock::time_point t0 = Clock::now();
        fn();
        const double raw = secondsSince(t0);
        const double before = last_;
        last_ = probe();
        probes_.push_back(last_);
        return {raw, raw * kProbeRefSeconds * 2.0 / (before + last_)};
    }

    const std::vector<double> &probes() const { return probes_; }

  private:
    static constexpr std::size_t kWords = (256 << 10) / 8;
    static constexpr int kSteps = 1000000;

    /** The faster of two timed chases after a warm-up chase. */
    double
    probe()
    {
        double best = 1e30;
        for (int rep = 0; rep < 3; ++rep) {
            const Clock::time_point t0 = Clock::now();
            std::uint64_t at = 0;
            for (int k = 0; k < kSteps; ++k)
                at = next_[at];
            asm volatile("" : : "r"(at));
            if (rep > 0)
                best = std::min(best, secondsSince(t0));
        }
        return best;
    }

    std::vector<std::uint64_t> next_;
    double last_ = -1.0;
    std::vector<double> probes_;
};

struct Options
{
    BenchParams bench;
    double seconds = 10.0;
    bool trace = false;
    bool cycleCrossCheck = false;
    std::string out;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto value = [](const std::string &arg, const char *flag,
                    std::string &out) {
        const std::size_t n = std::strlen(flag);
        if (arg.compare(0, n, flag) != 0)
            return false;
        out = arg.substr(n);
        return true;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        std::string v;
        if (value(a, "--workload=", v))
            o.bench.workload = v;
        else if (value(a, "--seed0=", v))
            o.bench.seed0 = std::stoull(v);
        else if (value(a, "--wp-seed=", v))
            o.bench.wpSeed = std::stoull(v);
        else if (value(a, "--seconds=", v))
            o.seconds = std::stod(v);
        else if (value(a, "--trace=", v))
            o.trace = v == "1";
        else if (value(a, "--out=", v))
            o.out = v;
        else if (value(a, "--cache=", v))
            o.bench.cacheDir = v;
        else if (a == "--cycle-crosscheck")
            o.cycleCrossCheck = true;
        else
            fatal("perfbench: unknown argument '%s'", a.c_str());
    }
    hard_fatal_if(o.out.empty() || o.bench.cacheDir.empty(),
                  "perfbench: --out and --cache are required");
    return o;
}

/** The lower median: the middle value, or the lower of the two. */
double
lowMedian(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
}

Json
toJsonArray(const std::vector<double> &v)
{
    Json a = Json::array();
    for (double x : v)
        a.push(x);
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    std::unique_ptr<BenchWorkload> wl = makeWorkload(o.bench);
    SpanLog spans(o.trace);
    const Clock::time_point run0 = Clock::now();

    // Set-up: repeated untraced so its median is steady; each pass
    // starts from nothing (an empty trace cache included).
    HostProbe host;
    std::vector<double> setup_raw, setup_s;
    double setup_total = 0.0;
    for (int rep = 0; rep < (o.trace ? 1 : kSetupMaxReps); ++rep) {
        if (rep >= kSetupReps && setup_total >= kSetupSeconds)
            break;
        ScopedSpan span(spans, "bench.setup");
        const auto [raw, corrected] = host.time([&] { wl->setup(); });
        setup_raw.push_back(raw);
        setup_s.push_back(corrected);
        setup_total += raw;
    }

    // Timed part: items round-robin until the time is up and every item
    // ran kMinSweeps times; one sweep exactly when traced.
    const std::vector<std::string> items = wl->items();
    std::vector<std::vector<double>> raw_samples(items.size());
    std::vector<std::vector<double>> samples(items.size());
    std::vector<unsigned> units(items.size(), 0);
    std::vector<std::string> errors;
    Json result = Json::object();
    std::uint64_t attempted = 0, ok = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t n = 0;; ++n) {
        const std::size_t i = n % items.size();
        if (o.trace && n == items.size())
            break;
        if (n >= kMinSweeps * items.size() && secondsSince(t0) >= o.seconds)
            break;
        ItemOutcome out;
        const auto [raw, corrected] = host.time([&] {
            ScopedSpan span(spans, "harness.item", items[i]);
            out = wl->run(i);
        });
        raw_samples[i].push_back(raw);
        samples[i].push_back(corrected);
        attempted += out.units;
        ok += out.okUnits;
        units[i] = out.units;
        if (n < items.size())
            result.set(items[i], std::move(out.doc));
        else if (out.doc != result[items[i]])
            errors.push_back(o.bench.workload + ": item " + items[i] +
                             " gave a different result on repetition " +
                             std::to_string(n / items.size()));
    }
    const double timed_s = secondsSince(t0);

    // Each item's fastest (host-corrected) repetition: other load on the
    // host only ever adds time to a deterministic item, so the fastest
    // repetition is the least disturbed one.
    auto fastest = [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    };
    double per_sweep = 0.0, raw_sweep = 0.0, sweep_units = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
        per_sweep += fastest(samples[i]);
        raw_sweep += fastest(raw_samples[i]);
        sweep_units += units[i];
    }
    const double units_per_s = sweep_units / per_sweep;

    // Verification (untimed): sim metrics and the workload's own
    // self-checks.
    Json sim = wl->simMetrics(result, errors);

    Json doc = Json::object();
    doc.set("schema", "hard.perfbench.v1");
    doc.set("workload", o.bench.workload);
    doc.set("seed0", o.bench.seed0);
    doc.set("wpSeed", o.bench.wpSeed);
    doc.set("result", result);
    doc.set("sim", sim);
    doc.set("attempted", attempted);
    doc.set("failed", attempted - ok);

    if (o.cycleCrossCheck)
        doc.set("table2CycleScores", table2CycleScores(o.bench));

    Json timing = Json::object();
    timing.set("setupSeconds", toJsonArray(setup_raw));
    timing.set("setupRawMedian", lowMedian(setup_raw));
    timing.set("timedSeconds", timed_s);
    timing.set("sweepSeconds", raw_sweep);
    timing.set("rawUnitsPerSecond", sweep_units / raw_sweep);
    timing.set("probeSeconds", toJsonArray(host.probes()));
    Json per_item = Json::object();
    for (std::size_t i = 0; i < items.size(); ++i)
        per_item.set(items[i], toJsonArray(raw_samples[i]));
    timing.set("itemSeconds", std::move(per_item));
    doc.set("timing", std::move(timing));

    if (o.trace) {
        Json layers = runLedger(*wl, spans);
        for (const auto &[layer, ms] : spans.selfMsByLayer())
            layers.set("span." + layer + ".self_ms", ms);
        // The traced run's own cost: spans recorded times the measured
        // cost of one span, against the run's wall time so far.
        layers.set("bench.trace_overhead_pct",
                   100.0 * static_cast<double>(spans.spans().size()) *
                       SpanLog::costPerSpanNs() / 1e9 /
                       secondsSince(run0));
        layers.set("bench.traced_units_per_s", units_per_s);
        doc.set("layers", std::move(layers));
        doc.set("spans", spans.toJson());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Json e2e = Json::object();
    e2e.set("units_per_s", units_per_s);
    e2e.set("setup_s", lowMedian(setup_s));
    e2e.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    e2e.set("unit_ok_frac",
            attempted ? static_cast<double>(ok) / attempted : 0.0);
    e2e.set("sim_cycles", sim["sim_cycles"]);
    doc.set("endToEnd", std::move(e2e));

    Json errs = Json::array();
    for (const std::string &e : errors)
        errs.push(e);
    doc.set("errors", std::move(errs));

    std::ofstream f(o.out);
    f << doc.dump(1) << "\n";
    hard_fatal_if(!f, "perfbench: cannot write %s", o.out.c_str());
    return 0;
}
