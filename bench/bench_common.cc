#include "bench_common.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace trance {
namespace bench {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kStandard:
      return "STANDARD";
    case Strategy::kStandardSkew:
      return "STANDARD_SKEW";
    case Strategy::kShred:
      return "SHRED";
    case Strategy::kShredSkew:
      return "SHRED_SKEW";
    case Strategy::kUnshred:
      return "SHRED+UNSHRED";
    case Strategy::kUnshredSkew:
      return "SHRED+UNSHRED_SKEW";
    case Strategy::kSparkSql:
      return "SPARKSQL";
  }
  return "?";
}

bool IsShredded(Strategy s) {
  return s == Strategy::kShred || s == Strategy::kShredSkew ||
         s == Strategy::kUnshred || s == Strategy::kUnshredSkew;
}

bool IsSkewAware(Strategy s) {
  return s == Strategy::kStandardSkew || s == Strategy::kShredSkew ||
         s == Strategy::kUnshredSkew;
}

bool WantsUnshred(Strategy s) {
  return s == Strategy::kUnshred || s == Strategy::kUnshredSkew;
}

exec::PipelineOptions OptionsFor(Strategy s) {
  exec::PipelineOptions o;
  if (s == Strategy::kSparkSql) {
    // Section 6: SparkSQL does not perform the cogroup optimization.
    o.optimizer.enable_cogroup = false;
  }
  if (IsSkewAware(s)) {
    o.exec.skew_aware = true;
  }
  return o;
}

runtime::ClusterConfig BenchClusterConfig(int num_partitions,
                                          uint64_t partition_memory_cap,
                                          uint64_t broadcast_threshold) {
  runtime::ClusterConfig c;
  c.num_partitions = num_partitions;
  c.partition_memory_cap = partition_memory_cap;
  c.broadcast_threshold = broadcast_threshold;
  c.stage_overhead_seconds = 0.005;
  c.seconds_per_net_byte = 4e-8;   // ~25 MB/s shuffle path
  c.seconds_per_cpu_byte = 1e-8;   // ~100 MB/s per-worker processing
  return c;
}

Status RegisterTable(exec::Executor* executor, const tpch::Table& table,
                     const std::string& name) {
  TRANCE_ASSIGN_OR_RETURN(
      runtime::Dataset ds,
      runtime::Source(executor->cluster(), table.schema, table.rows, name));
  executor->Register(name, std::move(ds));
  return Status::OK();
}

Status RegisterShreddedRun(exec::Executor* executor, const std::string& name,
                           const exec::ShreddedRun& run) {
  executor->Register(shred::FlatInputName(name), run.top);
  for (const auto& [path, ds] : run.dicts) {
    executor->Register(shred::DictInputName(name, path), ds);
  }
  return Status::OK();
}

RunResult TimedRun(const std::string& name, runtime::Cluster* cluster,
                   const std::function<Status()>& body) {
  RunResult r;
  r.name = name;
  r.num_threads = cluster->num_threads();
  cluster->stats().Reset();
  cluster->metrics().Reset();
  obs::Tracer* tracer = &obs::Tracer::Global();
  Status st;
  {
    obs::Tracer::Span run_span(tracer, "run:" + name);
    Stopwatch watch;
    st = body();
    r.wall_s = watch.ElapsedSeconds();
  }
  const auto& stats = cluster->stats();
  r.stats = stats;
  r.metrics = cluster->metrics().Snapshot();
  r.ok = st.ok();
  if (!st.ok()) r.fail_reason = st.ToString();
  obs::AppendJobStagesToTrace(stats, tracer, name);
  return r;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-44s %9s %9s %12s %12s %12s %8s\n", "run", "wall(s)",
              "sim(s)", "shuffle", "maxstage", "peakpart", "rows");
}

void PrintResult(const RunResult& r) {
  if (!r.ok) {
    std::printf("%-44s %9s %9s %12s %12s %12s %8s   [%s]\n", r.name.c_str(),
                "FAIL", "FAIL", "-", "-", "-", "-",
                r.fail_reason.substr(0, 100).c_str());
    return;
  }
  const runtime::JobStats& s = r.stats;
  std::printf("%-44s %9.3f %9.2f %12s %12s %12s %8zu\n", r.name.c_str(),
              r.wall_s, s.sim_seconds(),
              FormatBytes(s.total_shuffle_bytes()).c_str(),
              FormatBytes(s.max_stage_shuffle_bytes()).c_str(),
              FormatBytes(s.peak_partition_bytes()).c_str(), r.out_rows);
}

std::string Ratio(const RunResult& num, const RunResult& den,
                  uint64_t (runtime::JobStats::*stat)() const) {
  if (!num.ok || !den.ok || (den.stats.*stat)() == 0) return "n/a";
  double v = static_cast<double>((num.stats.*stat)()) /
             static_cast<double>((den.stats.*stat)());
  return FormatDouble(v, 1) + "x";
}

void EnableBenchObservability() {
  obs::Tracer::Global().set_enabled(true);
  obs::Tracer::Global().Clear();
  obs::GlobalEventLog().Enable(true);
  obs::GlobalEventLog().Clear();
}

namespace {

std::string BenchOutPath(const std::string& file) {
  const char* dir = std::getenv("TRANCE_BENCH_OUT");
  std::string d = (dir != nullptr && *dir != '\0') ? dir : ".";
  if (d.back() != '/') d += '/';
  return d + file;
}

}  // namespace

Status WriteBenchReport(const std::string& bench_name,
                        const std::vector<RunResult>& results,
                        const std::vector<RunResult>* baseline) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String(bench_name);
  double wall_total = 0;
  double wall_total_1thread = 0;
  w.Key("runs");
  w.BeginArray();
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    w.BeginObject();
    w.Key("name");
    w.String(r.name);
    w.Key("ok");
    w.Bool(r.ok);
    if (!r.ok) {
      w.Key("fail_reason");
      w.String(r.fail_reason);
    }
    w.Key("num_threads");
    w.Int(r.num_threads);
    w.Key("wall_seconds");
    w.Number(r.wall_s);
    if (baseline != nullptr && i < baseline->size()) {
      const RunResult& b = (*baseline)[i];
      w.Key("wall_seconds_1thread");
      w.Number(b.wall_s);
      if (r.ok && b.ok && r.wall_s > 0) {
        w.Key("speedup_vs_1thread");
        w.Number(b.wall_s / r.wall_s);
        wall_total += r.wall_s;
        wall_total_1thread += b.wall_s;
      }
    }
    w.Key("sim_seconds");
    w.Number(r.stats.sim_seconds());
    w.Key("shuffle_bytes");
    w.Uint(r.stats.total_shuffle_bytes());
    w.Key("max_stage_shuffle_bytes");
    w.Uint(r.stats.max_stage_shuffle_bytes());
    w.Key("peak_partition_bytes");
    w.Uint(r.stats.peak_partition_bytes());
    w.Key("fused_stages");
    w.Uint(r.stats.fused_stages());
    w.Key("intermediate_bytes_avoided");
    w.Uint(r.stats.intermediate_bytes_avoided());
    // Counter-table totals; the fault rows lead, next to the recovery time.
    auto write_counters = [&](bool faults) {
      for (const runtime::CounterDesc& d : runtime::kStageCounters) {
        if ((d.group == runtime::CounterGroup::kFault) != faults) continue;
        w.Key(d.name);
        w.Uint(r.stats.counters().*d.field);
      }
    };
    write_counters(true);
    w.Key("recovery_sim_seconds");
    w.Number(r.stats.recovery_sim_seconds());
    write_counters(false);
    w.Key("out_rows");
    w.Uint(r.out_rows);
    w.Key("job");
    obs::WriteJobStats(r.stats, &w);
    // Generic registry dump: one loop, any registered metric — the bench
    // report never needs a per-metric edit.
    w.Key("metrics");
    obs::MetricRegistry::WriteSamplesJson(r.metrics, &w);
    w.EndObject();
  }
  w.EndArray();
  if (baseline != nullptr) {
    w.Key("scaling");
    w.BeginObject();
    w.Key("num_threads");
    w.Int(results.empty() ? 1 : results.front().num_threads);
    w.Key("wall_seconds_total");
    w.Number(wall_total);
    w.Key("wall_seconds_total_1thread");
    w.Number(wall_total_1thread);
    if (wall_total > 0) {
      w.Key("speedup_vs_1thread");
      w.Number(wall_total_1thread / wall_total);
    }
    w.EndObject();
  }
  w.EndObject();
  std::string metrics_path = BenchOutPath("BENCH_" + bench_name + ".json");
  TRANCE_RETURN_NOT_OK(obs::WriteFile(metrics_path, w.str()));
  std::printf("wrote %s\n", metrics_path.c_str());

  obs::Tracer& tracer = obs::Tracer::Global();
  if (tracer.enabled()) {
    std::string trace_path =
        BenchOutPath("BENCH_" + bench_name + "_trace.json");
    TRANCE_RETURN_NOT_OK(
        obs::WriteFile(trace_path, tracer.ToChromeTraceJson()));
    std::printf("wrote %s\n", trace_path.c_str());
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace trance
