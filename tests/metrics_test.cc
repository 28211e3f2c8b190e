// MetricRegistry: typed handles, thread-sharded counter exactness, snapshot
// ordering, Prometheus/JSON exposition, reset semantics — and the contract
// that the registry's values agree with JobStats on real query runs and are
// bit-identical at any thread count.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/pipeline.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/stage_counters.h"
#include "shred/shredded_type.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace trance {
namespace {

using obs::MetricKind;
using obs::MetricRegistry;
using obs::MetricSample;

// --- Registry semantics --------------------------------------------------

TEST(MetricRegistryTest, FindOrCreateReturnsStableHandles) {
  MetricRegistry reg;
  obs::Counter* a = reg.GetCounter("requests_total", "requests");
  obs::Counter* b = reg.GetCounter("requests_total", "requests");
  EXPECT_EQ(a, b);
  a->Add(3);
  b->Increment();
  EXPECT_EQ(a->Value(), 4u);

  // Distinct label sets are distinct series of the same family.
  obs::Counter* red = reg.GetCounter("colored_total", "colored", {{"c", "red"}});
  obs::Counter* blue =
      reg.GetCounter("colored_total", "colored", {{"c", "blue"}});
  EXPECT_NE(red, blue);
  red->Add(1);
  blue->Add(2);
  EXPECT_EQ(red->Value(), 1u);
  EXPECT_EQ(blue->Value(), 2u);
}

TEST(MetricRegistryTest, ConcurrentShardedAddsAreExact) {
  MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("hot_total", "concurrently bumped");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (int i = 0; i < kAddsPerThread; ++i) c->Add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(MetricRegistryTest, GaugeSetAddMax) {
  MetricRegistry reg;
  obs::Gauge* g = reg.GetGauge("level", "a gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(g->Value(), 4.0);
  g->SetMax(3.0);  // below current: no-op
  EXPECT_DOUBLE_EQ(g->Value(), 4.0);
  g->SetMax(7.0);
  EXPECT_DOUBLE_EQ(g->Value(), 7.0);
}

TEST(MetricRegistryTest, HistogramBucketsSumCount) {
  MetricRegistry reg;
  obs::Histogram* h =
      reg.GetHistogram("latency", "a histogram", {1.0, 2.0, 5.0});
  h->Observe(0.5);   // bucket <=1
  h->Observe(1.0);   // bucket <=1 (bounds are inclusive)
  h->Observe(1.5);   // bucket <=2
  h->Observe(10.0);  // +Inf bucket
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const MetricSample& s = snap[0];
  EXPECT_EQ(s.kind, MetricKind::kHistogram);
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.bucket_counts.size(), 4u);
  EXPECT_EQ(s.bucket_counts[0], 2u);
  EXPECT_EQ(s.bucket_counts[1], 1u);
  EXPECT_EQ(s.bucket_counts[2], 0u);
  EXPECT_EQ(s.bucket_counts[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 13.0);
}

TEST(MetricRegistryTest, SnapshotSortedByNameAndLabels) {
  MetricRegistry reg;
  reg.GetCounter("zzz_total", "z")->Add(1);
  reg.GetCounter("aaa_total", "a")->Add(1);
  reg.GetCounter("mmm_total", "m", {{"k", "b"}})->Add(1);
  reg.GetCounter("mmm_total", "m", {{"k", "a"}})->Add(1);
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].ExpositionName(), "aaa_total");
  EXPECT_EQ(snap[1].ExpositionName(), "mmm_total{k=\"a\"}");
  EXPECT_EQ(snap[2].ExpositionName(), "mmm_total{k=\"b\"}");
  EXPECT_EQ(snap[3].ExpositionName(), "zzz_total");
}

TEST(MetricRegistryTest, ResetZeroesValuesKeepsRegistrations) {
  MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("c_total", "c");
  obs::Gauge* g = reg.GetGauge("g", "g");
  obs::Histogram* h = reg.GetHistogram("h", "h", {1.0});
  c->Add(5);
  g->Set(9.0);
  h->Observe(0.5);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);  // registrations survive
  for (const MetricSample& s : snap) {
    EXPECT_EQ(s.counter_value, 0u);
    EXPECT_EQ(s.count, 0u);
  }
  // The old handle is still live after Reset.
  c->Add(2);
  EXPECT_EQ(c->Value(), 2u);
}

// --- Exposition formats --------------------------------------------------

TEST(MetricRegistryTest, PrometheusTextExposition) {
  MetricRegistry reg;
  reg.GetCounter("trance_rows_total", "rows processed")->Add(12);
  reg.GetCounter("trance_stages_total", "stages", {{"movement", "shuffle"}})
      ->Add(3);
  reg.GetGauge("trance_peak", "peak bytes")->Set(1024);
  reg.GetHistogram("trance_imbalance", "straggler factor", {1.0, 2.0})
      ->Observe(1.5);
  std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# HELP trance_rows_total rows processed\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE trance_rows_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("trance_rows_total 12\n"), std::string::npos);
  EXPECT_NE(text.find("trance_stages_total{movement=\"shuffle\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE trance_peak gauge\n"), std::string::npos);
  EXPECT_NE(text.find("trance_peak 1024\n"), std::string::npos);
  // Histogram exposition: cumulative buckets, +Inf, _sum and _count.
  EXPECT_NE(text.find("# TYPE trance_imbalance histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_bucket{le=\"1\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_sum 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("trance_imbalance_count 1\n"), std::string::npos);
}

TEST(MetricRegistryTest, JsonExpositionParses) {
  MetricRegistry reg;
  reg.GetCounter("c_total", "c")->Add(7);
  reg.GetCounter("lab_total", "l", {{"k", "v"}})->Add(2);
  reg.GetGauge("g", "g")->Set(2.25);
  reg.GetHistogram("h", "h", {1.0, 4.0})->Observe(3.0);
  auto parsed = obs::ParseJson(reg.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.Find("c_total"), nullptr);
  EXPECT_DOUBLE_EQ(v.Find("c_total")->num, 7.0);
  ASSERT_NE(v.Find("lab_total{k=\"v\"}"), nullptr);
  EXPECT_DOUBLE_EQ(v.Find("lab_total{k=\"v\"}")->num, 2.0);
  EXPECT_DOUBLE_EQ(v.Find("g")->num, 2.25);
  const obs::JsonValue* h = v.Find("h");
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->is_object());
  EXPECT_DOUBLE_EQ(h->Find("count")->num, 1.0);
  EXPECT_DOUBLE_EQ(h->Find("sum")->num, 3.0);
  const obs::JsonValue* buckets = h->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_DOUBLE_EQ(buckets->Find("le_1")->num, 0.0);
  EXPECT_DOUBLE_EQ(buckets->Find("le_4")->num, 1.0);   // cumulative
  EXPECT_DOUBLE_EQ(buckets->Find("le_inf")->num, 1.0);
}

// --- Registry vs. JobStats on real runs ----------------------------------

Status RegisterTables(exec::Executor* executor, const tpch::TpchData& d) {
  struct E {
    const tpch::Table* t;
    const char* n;
  };
  for (const E& e : {E{&d.region, "Region"}, E{&d.nation, "Nation"},
                     E{&d.customer, "Customer"}, E{&d.orders, "Orders"},
                     E{&d.lineitem, "Lineitem"}, E{&d.part, "Part"}}) {
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset ds,
        runtime::Source(executor->cluster(), e.t->schema, e.t->rows, e.n));
    executor->Register(e.n, ds);
    executor->Register(shred::FlatInputName(e.n), std::move(ds));
  }
  return Status::OK();
}

/// Runs the small Figure-7 standard query on a fresh cluster and returns the
/// cluster's registry snapshot plus its JobStats-derived expectations.
struct QueryRun {
  std::vector<MetricSample> samples;
  runtime::JobStats job;
  std::map<std::string, uint64_t> counters;
  std::string prometheus;
  uint64_t shuffle_bytes = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t hash_build_rows = 0;
  uint64_t hash_probe_hits = 0;
  uint64_t stages = 0;
};

/// `stressed` runs it under a 4 KiB partition cap with spilling on and
/// seeded fault injection, so the spill and fault counters move too.
QueryRun RunSmallQuery(int num_threads, bool stressed = false) {
  tpch::TpchConfig tcfg;
  tcfg.scale = 0.002;
  tpch::TpchData data = tpch::Generate(tcfg);
  runtime::ClusterConfig ccfg;
  ccfg.num_partitions = 4;
  ccfg.num_threads = num_threads;
  exec::PipelineOptions opts;
  if (stressed) {
    ccfg.partition_memory_cap = 4ull << 10;
    ccfg.faults.enabled = true;
    ccfg.faults.fault_rate = 0.5;
    ccfg.faults.max_faults_per_task = 2;
    ccfg.faults.max_task_retries = 4;
    opts.exec.enable_spill = true;
  }
  runtime::Cluster cluster(ccfg);
  exec::Executor executor(&cluster, opts.exec);
  EXPECT_TRUE(RegisterTables(&executor, data).ok());
  auto program = tpch::FlatToNested(2, tpch::Width::kNarrow);
  EXPECT_TRUE(program.ok());
  auto out = exec::RunStandard(program.value(), &executor, opts);
  EXPECT_TRUE(out.ok()) << out.status().ToString();

  QueryRun r;
  r.samples = cluster.metrics().Snapshot();
  r.job = cluster.stats();
  for (const MetricSample& s : r.samples) {
    if (s.kind == MetricKind::kCounter) {
      r.counters[s.ExpositionName()] = s.counter_value;
    }
  }
  r.prometheus = cluster.metrics().ToPrometheusText();
  const runtime::JobStats& stats = cluster.stats();
  r.shuffle_bytes = stats.total_shuffle_bytes();
  for (const auto& st : stats.stages()) {
    r.rows_in += st.rows_in;
    r.rows_out += st.rows_out;
  }
  r.hash_build_rows = stats.hash_build_rows();
  r.hash_probe_hits = stats.hash_probe_hits();
  r.stages = stats.stages().size();
  return r;
}

TEST(MetricRegistryIntegrationTest, RegistryAgreesWithJobStats) {
  // Keyed operators, a forced spill and injected faults: every counter-table
  // row moves (except column_to_row_conversions, 0 by construction).
  QueryRun r = RunSmallQuery(1, /*stressed=*/true);
  ASSERT_GT(r.stages, 0u);
  for (const runtime::CounterDesc& d : runtime::kStageCounters) {
    SCOPED_TRACE(d.series);
    const uint64_t total = r.job.counters().*d.field;
    if (d.field != &runtime::StageCounters::column_to_row_conversions) {
      EXPECT_GT(total, 0u) << d.name;
    }
    // Sum rows are counters (summed over their label sets); max rows are
    // SetMax gauges holding the worst stage's value.
    const MetricKind kind = d.fold == runtime::CounterFold::kSum
                                ? MetricKind::kCounter
                                : MetricKind::kGauge;
    uint64_t series_total = 0;
    size_t series = 0;
    for (const MetricSample& s : r.samples) {
      if (s.name != d.series) continue;
      ++series;
      EXPECT_EQ(s.kind, kind);
      series_total += s.kind == MetricKind::kCounter
                          ? s.counter_value
                          : static_cast<uint64_t>(s.gauge_value);
    }
    EXPECT_GT(series, 0u);
    EXPECT_EQ(series_total, total) << d.name;
    if (d.fold == runtime::CounterFold::kMax) {
      // Several stages report the quantity, so an Add gauge would overshoot.
      uint64_t stage_sum = 0;
      for (const auto& st : r.job.stages()) stage_sum += st.*d.field;
      EXPECT_LT(total, stage_sum) << d.name;
    }
  }
  EXPECT_EQ(r.counters.at("trance_shuffle_bytes_total"), r.shuffle_bytes);
  EXPECT_EQ(r.counters.at("trance_rows_in_total"), r.rows_in);
  EXPECT_EQ(r.counters.at("trance_rows_out_total"), r.rows_out);
  EXPECT_EQ(r.counters.at("trance_hash_build_rows_total"), r.hash_build_rows);
  EXPECT_EQ(r.counters.at("trance_hash_probe_hits_total"), r.hash_probe_hits);
  // Every stage is counted in exactly one movement label.
  uint64_t stages_total = 0;
  for (const auto& [name, value] : r.counters) {
    if (name.rfind("trance_stages_total{", 0) == 0) stages_total += value;
  }
  EXPECT_EQ(stages_total, r.stages);
  EXPECT_EQ(r.counters.at("trance_jobs_total"), 1u);
  // And the same numbers surface in the Prometheus text with no extra
  // plumbing (spot check one).
  EXPECT_NE(r.prometheus.find("trance_shuffle_bytes_total " +
                              std::to_string(r.shuffle_bytes) + "\n"),
            std::string::npos)
      << r.prometheus;
}

TEST(MetricRegistryIntegrationTest, MetricsIdenticalAcrossThreadCounts) {
  QueryRun base = RunSmallQuery(1);
  for (int threads : {4, 8}) {
    QueryRun r = RunSmallQuery(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Registry content is deterministic: the whole exposition (counters,
    // gauges, histograms) is byte-identical to the sequential run.
    EXPECT_EQ(r.prometheus, base.prometheus);
    EXPECT_EQ(r.counters, base.counters);
  }
}

}  // namespace
}  // namespace trance
