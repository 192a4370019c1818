/**
 * @file
 * The benchmark's four workloads. Each one is a set-up pass plus a
 * list of timed items; one pass over the items is a sweep. Every item
 * is one call into the public harness API (runBatch, measureOverhead,
 * the frontier items) and returns a deterministic result document, so
 * repeated sweeps must agree bit for bit.
 *
 *  - table2-cycle: the paper's Table 2 sweep in cycle mode, the four
 *    Table 2 detectors attached live.
 *  - battery-fast-warm: the same units replayed from a warm trace
 *    cache through all eight detectors (no simulation).
 *  - fig8-overhead: Figure 8 baseline vs HARD-timing cycle runs.
 *  - server-frontier: the sampling-rate frontier on the open-loop
 *    server, the only workload that goes through SamplingObserver.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "detectors/report.hh"
#include "harness/experiment.hh"
#include "harness/run_pool.hh"
#include "trace/trace_cache.hh"

namespace perfbench
{

/** Injected runs per application in the Table 2 units (plus one
 * race-free run each). */
constexpr unsigned kTable2Runs = 1;
/** Injected runs per rate point of the frontier. */
constexpr unsigned kFrontierRuns = 10;

/** Inputs every workload is built from. */
struct BenchParams
{
    std::string workload;
    /** Injection base seed: run r injects with seed0 + r. */
    std::uint64_t seed0 = 1000;
    /** WorkloadParams::seed (layout, arrivals). */
    std::uint64_t wpSeed = 1;
    /** Scratch directory for this process's trace caches. */
    std::string cacheDir;
};

/** One detector of the eight-detector battery. */
struct NamedDetector
{
    /** Short name used in metric names ("hard", "hb-ideal", ...). */
    const char *metric;
    std::function<std::unique_ptr<hard::RaceDetector>()> make;
};

/** The eight detectors, Table 2 quartet first (harness names). */
const std::vector<NamedDetector> &batteryDetectors();

/** Outcome of one timed item. */
struct ItemOutcome
{
    unsigned units = 0;
    unsigned okUnits = 0;
    /** Deterministic result document of the item. */
    hard::Json doc;
};

/** How the harness path of one race-free unit decomposes into layer
 * calls the ledger times separately. */
enum class UnitShape
{
    /** Build + live cycle run with the Table 2 quartet attached. */
    CycleTable2,
    /** Build + warm replay through the eight detectors. */
    WarmBattery,
    /** Two builds + baseline run + HARD-timing run. */
    Overhead,
    /** Build + warm replay through HARD alone. */
    WarmHard,
};

class BenchWorkload
{
  public:
    explicit BenchWorkload(BenchParams p) : p_(std::move(p)) {}
    virtual ~BenchWorkload() = default;

    const BenchParams &params() const { return p_; }
    /** Sizing of every program the workload builds. */
    virtual hard::WorkloadParams workloadParams() const;
    /** Programs the workload runs (the ledger's inputs). */
    virtual std::vector<std::string> apps() const;
    /** Items of one sweep, in order. */
    virtual std::vector<std::string> items() const { return apps(); }

    /** One complete set-up pass, starting from nothing. */
    virtual void setup() = 0;
    /** Run item @p i once: the timed call. */
    virtual ItemOutcome run(std::size_t i) = 0;
    /**
     * Sim metrics of one sweep's result ({item: doc}), after timing.
     * Self-check failures are appended to @p errors.
     */
    virtual hard::Json simMetrics(const hard::Json &result,
                                  std::vector<std::string> &errors) = 0;

    /** @name Ledger hooks
     * @{ */
    virtual UnitShape unitShape() const = 0;
    /** Run app @p app's race-free unit through the harness. */
    virtual void harnessUnit(const std::string &app) = 0;
    /** @} */

  protected:
    BenchParams p_;
    hard::RunPool pool_{1};
};

/** @return the workload called @p name; throws ConfigError if none. */
std::unique_ptr<BenchWorkload> makeWorkload(const BenchParams &p);

/** Names of the four workloads. */
const std::vector<std::string> &workloadNames();

/**
 * Cycle-mode Table 2 scores of @p p's units ({app: scores}) — the
 * reference battery-fast-warm is checked against when no stored
 * table2-cycle result exists for the seed.
 */
hard::Json table2CycleScores(const BenchParams &p);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
