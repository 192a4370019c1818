/**
 * @file
 * The per-layer ledger of the traced run: each layer of the simulator
 * driven on its own, from outside, with the workload's own programs
 * (each app's race-free unit), so a layer's cost shows apart from the
 * layers it is normally interleaved with.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include "common/json.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{

/**
 * Measure every layer on @p wl's programs (after wl.setup()), with a
 * span around each call. @return {metric name: value}.
 */
hard::Json runLedger(BenchWorkload &wl, SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
