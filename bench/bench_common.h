// Shared harness for the figure/table benchmarks: strategy definitions,
// timed execution with FAIL capture (simulated worker memory saturation),
// dataset preparation for all compilation routes, and table rendering.
//
// Reported quantities per run:
//   wall   — actual wall-clock of the in-process execution;
//   sim    — simulated cluster time (sum over stages of straggler-bound
//            work + shuffle cost; see runtime/stats.h), the number whose
//            *shape* reproduces the paper's figures;
//   shuffle / max-stage shuffle / peak partition — data-movement stats.
// A run that exhausts a worker's memory reports FAIL, like the paper's
// missing bars.
#ifndef TRANCE_BENCH_BENCH_COMMON_H_
#define TRANCE_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "exec/pipeline.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "tpch/generator.h"

namespace trance {
namespace bench {

struct RunResult {
  std::string name;
  bool ok = false;
  std::string fail_reason;
  /// Resolved thread budget of the run's cluster (partition-parallel
  /// operator execution; see ClusterConfig::num_threads).
  int num_threads = 1;
  double wall_s = 0;
  size_t out_rows = 0;
  /// Full telemetry of the run: simulated time, shuffle bytes, max-stage
  /// shuffle and peak partition bytes, the fusion, fault and counter-table
  /// totals (stats.counters()), partition histograms, movement decisions and
  /// the straggler summary.
  runtime::JobStats stats;
  /// Snapshot of the cluster's metric registry at the end of the run.
  /// Serialized generically into the report's per-run `metrics` object, so
  /// a metric registered anywhere in the runtime appears in BENCH_*.json
  /// with no bench-side edits.
  std::vector<obs::MetricSample> metrics;
};

/// The evaluation strategies of Section 6.
enum class Strategy {
  kStandard,      // standard compilation (Section 3)
  kStandardSkew,  // + skew-aware operators
  kShred,         // shredded compilation, output left shredded
  kShredSkew,
  kUnshred,       // shredded compilation + unshredding to nested output
  kUnshredSkew,
  kSparkSql,      // competitor mode: standard route without cogroup fusion
};

const char* StrategyName(Strategy s);
bool IsShredded(Strategy s);
bool IsSkewAware(Strategy s);
bool WantsUnshred(Strategy s);
exec::PipelineOptions OptionsFor(Strategy s);

/// Cluster configuration with the benchmark cost model: small per-stage
/// overhead and shuffle-dominated costs, so the simulated time tracks data
/// movement (the quantity the paper's figures vary with).
runtime::ClusterConfig BenchClusterConfig(int num_partitions,
                                          uint64_t partition_memory_cap,
                                          uint64_t broadcast_threshold);

/// Registers a TPC-H table as an input dataset (untimed; the paper reports
/// runtime "after caching all inputs").
Status RegisterTable(exec::Executor* executor, const tpch::Table& table,
                     const std::string& name);

/// Registers a previously computed shredded run as shredded input `name`
/// (name_F + name_D_<path>).
Status RegisterShreddedRun(exec::Executor* executor, const std::string& name,
                           const exec::ShreddedRun& run);

/// Times `body` on a fresh stats scope of `cluster`; captures FAIL.
RunResult TimedRun(const std::string& name, runtime::Cluster* cluster,
                   const std::function<Status()>& body);

/// Renders results as an aligned table.
void PrintHeader(const std::string& title);
void PrintResult(const RunResult& r);

/// Ratio of one JobStats quantity between two runs, for the
/// shuffle-comparison tables ("n/a" on zero/FAIL).
std::string Ratio(const RunResult& num, const RunResult& den,
                  uint64_t (runtime::JobStats::*stat)() const);

// --- Observability hooks -------------------------------------------------

/// Turns on obs::Tracer::Global() so TimedRun records one span per run and
/// the per-stage trace events land on the runtime track. Benchmarks call
/// this at the top of main(); it is honor-the-env cheap otherwise.
void EnableBenchObservability();

/// Writes BENCH_<name>.json (machine-readable run metrics: per-run scalars
/// plus per-stage partition-load percentile summaries) and, when tracing is
/// enabled, BENCH_<name>_trace.json (Chrome trace_event format, loadable in
/// chrome://tracing or Perfetto). Output directory comes from the
/// TRANCE_BENCH_OUT env var (default: current directory).
/// `baseline`, when non-null, holds the same runs executed with
/// num_threads = 1 (matched per index); each run then additionally reports
/// wall_seconds_1thread and speedup_vs_1thread, and the report gains a
/// top-level "scaling" summary (total wall at 1 thread vs. this run's
/// thread count). Simulated metrics are thread-count-invariant, so only the
/// wall numbers scale.
Status WriteBenchReport(const std::string& bench_name,
                        const std::vector<RunResult>& results,
                        const std::vector<RunResult>* baseline = nullptr);

}  // namespace bench
}  // namespace trance

#endif  // TRANCE_BENCH_BENCH_COMMON_H_
