// Out-of-core spill tests (ctest label `spill`).
//
// The acceptance contract of runtime/spill.h: a Fig-7 query that hard-fails
// with ResourceExhausted under a reduced partition_memory_cap completes when
// ExecOptions::enable_spill is on, with rows, placement, and every
// pre-existing JobStats counter bit-identical to an uncapped run — at 1, 4,
// and 8 threads, on both compilation routes. Spill cost appears only in the
// spill-only counters (and EXPLAIN ANALYZE / JSON export), which are exactly
// 0 when nothing spills. Plus SpillManager unit coverage: deterministic run
// naming, order-preserving spill-and-restore, and the spill byte budget —
// and the block round-trip property: the column-wise spill writes run files
// byte-identical to the historical chunk-block path and restores blocks
// equal to the per-row restore in every cell, RowBytesAt and ByteFootprint.
#include "runtime/spill.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "nrc/interp.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "runtime/cluster.h"
#include "runtime/serde.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "stats_test_util.h"

namespace trance {
namespace {

using nrc::Value;
using runtime::CounterGroup;
using runtime::Dataset;
using runtime::JobStats;
using runtime::Row;
using runtime::Field;
using testing_util::ExpectSameStats;

// The forced cap: far below the working set of every suite query at scale
// 0.0005 (partitions run tens of KB), so a spill-off capped run FAILs and a
// spill-on capped run must actually hit the disk.
constexpr uint64_t kTinyCap = 4ull << 10;

runtime::ClusterConfig Config(int num_threads, uint64_t cap) {
  runtime::ClusterConfig c;
  c.num_partitions = 8;
  c.num_threads = num_threads;
  if (cap > 0) c.partition_memory_cap = cap;
  return c;
}

void ExpectSameRows(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.NumPartitions(), b.NumPartitions());
  for (size_t p = 0; p < a.NumPartitions(); ++p) {
    ASSERT_EQ(a.PartitionRowCount(p), b.PartitionRowCount(p))
        << "partition " << p;
    for (size_t i = 0; i < a.PartitionRowCount(p); ++i) {
      const Row ra = a.RowAt(p, i);
      const Row rb = b.RowAt(p, i);
      ASSERT_EQ(ra.fields.size(), rb.fields.size())
          << "partition " << p << " row " << i;
      for (size_t f = 0; f < ra.fields.size(); ++f) {
        EXPECT_EQ(ra.fields[f], rb.fields[f])
            << "partition " << p << " row " << i << " field " << f;
      }
    }
  }
}

std::map<std::string, Value> TpchValues(const tpch::TpchData& d) {
  auto conv = [](const tpch::Table& t) {
    auto v = exec::RowsToValue(t.rows, t.schema);
    TRANCE_CHECK(v.ok(), "table conversion");
    return std::move(v).value();
  };
  return {{"Region", conv(d.region)},     {"Nation", conv(d.nation)},
          {"Customer", conv(d.customer)}, {"Orders", conv(d.orders)},
          {"Lineitem", conv(d.lineitem)}, {"Part", conv(d.part)},
          {"Supplier", conv(d.supplier)}, {"Partsupp", conv(d.partsupp)}};
}

struct ModeRun {
  bool ok = false;
  Status status = Status::OK();
  Dataset out;
  JobStats stats;
  std::string explain;
};

/// Runs the standard route with a configurable cap and spill flag, without
/// aborting on failure (capped spill-off runs are SUPPOSED to fail).
ModeRun RunStandardMode(const nrc::Program& q,
                        const std::map<std::string, Value>& values,
                        int threads, uint64_t cap, bool spill) {
  runtime::Cluster cluster(Config(threads, cap));
  exec::PipelineOptions opts;
  opts.exec.enable_spill = spill;
  exec::Executor executor(&cluster, opts.exec);
  ModeRun r;
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    auto schema = runtime::Schema::FromBagType(in.type).ValueOrDie();
    auto rows = exec::ValueToRows(v->second, schema).ValueOrDie();
    auto ds = runtime::Source(&cluster, schema, std::move(rows), in.name);
    if (!ds.ok()) {
      r.status = ds.status();
      r.stats = cluster.stats();
      return r;
    }
    executor.Register(in.name, std::move(ds).value());
  }
  plan::PlanProgram compiled;
  auto out = exec::RunStandard(q, &executor, opts, &compiled);
  r.stats = cluster.stats();
  if (!out.ok()) {
    r.status = out.status();
    return r;
  }
  r.ok = true;
  r.out = std::move(out).value();
  r.explain = obs::ExplainAnalyze(compiled, r.stats);
  return r;
}

struct ShreddedModeRun {
  bool ok = false;
  Status status = Status::OK();
  exec::ShreddedRun run;
  JobStats stats;
};

ShreddedModeRun RunShreddedMode(const nrc::Program& q,
                                const std::map<std::string, Value>& values,
                                int threads, uint64_t cap, bool spill) {
  runtime::Cluster cluster(Config(threads, cap));
  exec::PipelineOptions opts;
  opts.exec.enable_spill = spill;
  exec::Executor executor(&cluster, opts.exec);
  ShreddedModeRun r;
  int64_t seed = 0;
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    Status reg = exec::RegisterShreddedInput(&executor, in.name, in.type,
                                             v->second, seed);
    if (!reg.ok()) {
      r.status = reg;
      r.stats = cluster.stats();
      return r;
    }
    seed += 1000000;
  }
  auto run = exec::RunShredded(q, &executor, opts);
  r.stats = cluster.stats();
  if (!run.ok()) {
    r.status = run.status();
    return r;
  }
  r.ok = true;
  r.run = std::move(run).value();
  return r;
}

void ExpectSameShreddedRows(const exec::ShreddedRun& a,
                            const exec::ShreddedRun& b) {
  ExpectSameRows(a.top, b.top);
  ASSERT_EQ(a.dicts.size(), b.dicts.size());
  for (size_t i = 0; i < a.dicts.size(); ++i) {
    SCOPED_TRACE("dict " + a.dicts[i].first);
    EXPECT_EQ(a.dicts[i].first, b.dicts[i].first);
    ExpectSameRows(a.dicts[i].second, b.dicts[i].second);
  }
}

void ExpectZeroSpill(const JobStats& s) {
  EXPECT_EQ(s.spill_bytes_written(), 0u);
  EXPECT_EQ(s.spill_bytes_read(), 0u);
  EXPECT_EQ(s.spill_runs(), 0u);
  EXPECT_EQ(s.spill_merge_passes(), 0u);
}

class SpillSuiteTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  enum Kind { kFlatToNested = 0, kNestedToNested = 1, kNestedToFlat = 2 };

  StatusOr<nrc::Program> Query(Kind kind, int depth) {
    switch (kind) {
      case kFlatToNested:
        return tpch::FlatToNested(depth, tpch::Width::kNarrow);
      case kNestedToNested:
        return tpch::NestedToNested(depth, tpch::Width::kNarrow);
      case kNestedToFlat:
        return tpch::NestedToFlat(depth, tpch::Width::kNarrow);
    }
    return Status::Internal("bad kind");
  }

  std::map<std::string, Value> Inputs(Kind kind, int depth) {
    tpch::TpchConfig cfg;
    cfg.scale = 0.0005;
    auto values = TpchValues(tpch::Generate(cfg));
    if (kind == kFlatToNested) return values;
    auto prep = tpch::FlatToNested(depth, tpch::Width::kNarrow).ValueOrDie();
    nrc::Interpreter interp;
    auto nested = interp.EvalProgram(prep, values);
    TRANCE_CHECK(nested.ok(), "nested input prep");
    return {{"COP", nested->at("Q")}, {"Part", values.at("Part")}};
  }
};

TEST_P(SpillSuiteTest, CappedStandardRunMatchesUncapped) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  // The paper's FAIL cell: the tiny cap hard-fails without spilling.
  ModeRun fail = RunStandardMode(*q, values, 1, kTinyCap, false);
  ASSERT_FALSE(fail.ok);
  EXPECT_TRUE(fail.status.IsResourceExhausted()) << fail.status.ToString();
  EXPECT_NE(fail.status.ToString().find("worker memory saturated"),
            std::string::npos)
      << fail.status.ToString();

  // The same cap with spilling on completes...
  ModeRun uncapped = RunStandardMode(*q, values, 1, 0, true);
  ASSERT_TRUE(uncapped.ok) << uncapped.status.ToString();
  ModeRun spill1 = RunStandardMode(*q, values, 1, kTinyCap, true);
  ASSERT_TRUE(spill1.ok) << spill1.status.ToString();

  // ...with identical rows in identical partitions and identical
  // pre-existing stats, and real spill traffic.
  ExpectSameRows(uncapped.out, spill1.out);
  ExpectSameStats(uncapped.stats, spill1.stats, {CounterGroup::kSpill});
  EXPECT_GT(spill1.stats.spill_runs(), 0u);
  EXPECT_GT(spill1.stats.spill_bytes_written(), 0u);
  EXPECT_EQ(spill1.stats.spill_bytes_read(),
            spill1.stats.spill_bytes_written());
  EXPECT_GT(spill1.stats.spill_merge_passes(), 0u);
  // The uncapped run (256 MiB default cap) never touches the disk.
  ExpectZeroSpill(uncapped.stats);

  // Thread-count invariance covers the spill counters too: spill decisions
  // are byte-threshold-driven and folded in partition order.
  ModeRun spill4 = RunStandardMode(*q, values, 4, kTinyCap, true);
  ModeRun spill8 = RunStandardMode(*q, values, 8, kTinyCap, true);
  ASSERT_TRUE(spill4.ok) << spill4.status.ToString();
  ASSERT_TRUE(spill8.ok) << spill8.status.ToString();
  ExpectSameRows(spill1.out, spill4.out);
  ExpectSameRows(spill1.out, spill8.out);
  ExpectSameStats(spill1.stats, spill4.stats);
  ExpectSameStats(spill1.stats, spill8.stats);
  EXPECT_EQ(spill1.stats.spill_bytes_written(),
            spill4.stats.spill_bytes_written());
  EXPECT_EQ(spill1.stats.spill_bytes_written(),
            spill8.stats.spill_bytes_written());
  EXPECT_EQ(spill1.stats.spill_runs(), spill4.stats.spill_runs());
  EXPECT_EQ(spill1.stats.spill_runs(), spill8.stats.spill_runs());
  EXPECT_EQ(spill1.stats.spill_merge_passes(),
            spill4.stats.spill_merge_passes());
  EXPECT_EQ(spill1.stats.spill_merge_passes(),
            spill8.stats.spill_merge_passes());
}

TEST_P(SpillSuiteTest, CappedShreddedRunMatchesUncapped) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  ShreddedModeRun uncapped = RunShreddedMode(*q, values, 1, 0, true);
  ASSERT_TRUE(uncapped.ok) << uncapped.status.ToString();
  ShreddedModeRun spill1 = RunShreddedMode(*q, values, 1, kTinyCap, true);
  ASSERT_TRUE(spill1.ok) << spill1.status.ToString();
  ShreddedModeRun spill4 = RunShreddedMode(*q, values, 4, kTinyCap, true);
  ASSERT_TRUE(spill4.ok) << spill4.status.ToString();
  ShreddedModeRun spill8 = RunShreddedMode(*q, values, 8, kTinyCap, true);
  ASSERT_TRUE(spill8.ok) << spill8.status.ToString();

  ExpectSameShreddedRows(uncapped.run, spill1.run);
  ExpectSameStats(uncapped.stats, spill1.stats, {CounterGroup::kSpill});
  EXPECT_GT(spill1.stats.spill_runs(), 0u);
  ExpectZeroSpill(uncapped.stats);

  ExpectSameShreddedRows(spill1.run, spill4.run);
  ExpectSameShreddedRows(spill1.run, spill8.run);
  ExpectSameStats(spill1.stats, spill4.stats);
  ExpectSameStats(spill1.stats, spill8.stats);
  EXPECT_EQ(spill1.stats.spill_bytes_written(),
            spill4.stats.spill_bytes_written());
  EXPECT_EQ(spill1.stats.spill_bytes_written(),
            spill8.stats.spill_bytes_written());
}

std::string SpillParamName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"flat_to_nested", "nested_to_nested",
                                 "nested_to_flat"};
  return std::string(kKinds[std::get<0>(info.param)]) + "_depth" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Fig7NarrowSuite, SpillSuiteTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 2)),
                         SpillParamName);

// --- observability plumbing ----------------------------------------------

TEST(SpillRuntimeTest, CountersVisibleInJsonAndExplain) {
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = TpchValues(tpch::Generate(cfg));

  ModeRun forced = RunStandardMode(*q, values, 1, kTinyCap, true);
  ASSERT_TRUE(forced.ok) << forced.status.ToString();
  EXPECT_GT(forced.stats.spill_bytes_written(), 0u);

  std::string json = obs::JobStatsToJson(forced.stats);
  EXPECT_NE(json.find("\"spill_bytes_written\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"spill_bytes_read\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"spill_runs\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"spill_merge_passes\""), std::string::npos) << json;

  EXPECT_NE(forced.explain.find(" spill("), std::string::npos)
      << forced.explain;

  // Unforced: no spill clause in EXPLAIN, but the JSON totals still carry
  // the (zero) keys so bench_diff can gate on them.
  ModeRun easy = RunStandardMode(*q, values, 1, 0, true);
  ASSERT_TRUE(easy.ok) << easy.status.ToString();
  ExpectZeroSpill(easy.stats);
  EXPECT_EQ(easy.explain.find(" spill("), std::string::npos) << easy.explain;
  std::string easy_json = obs::JobStatsToJson(easy.stats);
  EXPECT_NE(easy_json.find("\"spill_bytes_written\""), std::string::npos)
      << easy_json;
}

TEST(SpillRuntimeTest, BlockResidentSpillAvoidsRowification) {
  // Block-resident partitions spill as columnar block records and restore
  // column by column; every run is a block record, so no counter tracks
  // "rows not rowified". Each run written is streamed back exactly once,
  // and the spill counters are visible in the JSON export and the EXPLAIN
  // spill clause without a rowify term.
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = TpchValues(tpch::Generate(cfg));

  ModeRun col = RunStandardMode(*q, values, 1, kTinyCap, true);
  ASSERT_TRUE(col.ok) << col.status.ToString();
  EXPECT_GT(col.stats.spill_runs(), 0u);
  EXPECT_EQ(col.stats.spill_bytes_read(), col.stats.spill_bytes_written());
  std::string json = obs::JobStatsToJson(col.stats);
  EXPECT_NE(json.find("\"spill_runs\""), std::string::npos) << json;
  EXPECT_EQ(json.find("rowify_avoided"), std::string::npos) << json;
  EXPECT_NE(col.explain.find(" spill("), std::string::npos) << col.explain;
  EXPECT_EQ(col.explain.find("rowify_avoided="), std::string::npos)
      << col.explain;

  // Thread-count invariance, like every other spill counter.
  ModeRun col4 = RunStandardMode(*q, values, 4, kTinyCap, true);
  ASSERT_TRUE(col4.ok) << col4.status.ToString();
  EXPECT_EQ(col.stats.spill_runs(), col4.stats.spill_runs());
  EXPECT_EQ(col.stats.spill_bytes_written(), col4.stats.spill_bytes_written());
  EXPECT_EQ(col.stats.spill_bytes_read(), col4.stats.spill_bytes_read());
}

TEST(SpillRuntimeTest, DisabledSpillKeepsHistoricalFailureShape) {
  // enable_spill=false must reproduce the pre-spill world exactly: the
  // ResourceExhausted message names the stage, the partition, the observed
  // bytes, and the configured cap.
  auto q = tpch::FlatToNested(1, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = TpchValues(tpch::Generate(cfg));
  ModeRun fail = RunStandardMode(*q, values, 1, kTinyCap, false);
  ASSERT_FALSE(fail.ok);
  std::string msg = fail.status.ToString();
  EXPECT_TRUE(fail.status.IsResourceExhausted()) << msg;
  EXPECT_NE(msg.find("worker memory saturated in"), std::string::npos) << msg;
  EXPECT_NE(msg.find("partition"), std::string::npos) << msg;
  EXPECT_NE(msg.find("holds"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bytes) > cap"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(" + std::to_string(kTinyCap) + " bytes)"),
            std::string::npos)
      << msg;
  ExpectZeroSpill(fail.stats);
}

// --- SpillManager unit tests ----------------------------------------------

std::vector<Row> MakeRows(size_t n, const std::string& salt) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Row{{Field::Int(static_cast<int64_t>(i)),
                        Field::Str(salt + std::to_string(i)),
                        Field::Real(i * 0.5)}});
  }
  return rows;
}

TEST(SpillManagerTest, RunNamingIsDeterministicAndSanitized) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  runtime::spill::SpillManager m(cfg);
  std::string p = m.RunPath(7, "shuffle(join/x y)", 3, 2);
  // Same inputs, same path; hostile characters flattened to '_'.
  EXPECT_EQ(p, m.RunPath(7, "shuffle(join/x y)", 3, 2));
  EXPECT_NE(p.find("job7/"), std::string::npos) << p;
  EXPECT_NE(p.find("shuffle_join_x_y_-p3-r2.trs"), std::string::npos) << p;
  EXPECT_EQ(p.find(' ', m.root_dir().size()), std::string::npos) << p;
}

/// The three-column (int, string, real) schema of MakeRows.
runtime::Schema MakeRowsSchema() {
  return runtime::Schema({{"i", nrc::Type::Int()},
                          {"s", nrc::Type::String()},
                          {"r", nrc::Type::Real()}});
}

TEST(SpillManagerTest, SpillAndRestorePreservesOrderAndReleasesDisk) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  cfg.max_run_bytes = 1024;  // force several runs
  runtime::spill::SpillManager m(cfg);
  const runtime::Schema schema = MakeRowsSchema();
  std::vector<Row> expected = MakeRows(500, "value-");
  runtime::column::PartitionBlock block =
      runtime::column::PartitionBlock::FromRows(schema, expected);
  runtime::spill::SpillCounters c;
  Status s = m.SpillAndRestoreBlock(1, "stage(x)", 0, schema, &block, &c);
  ASSERT_TRUE(s.ok()) << s.ToString();

  std::vector<Row> rows = block.ToRows();
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].fields.size(), expected[i].fields.size()) << i;
    for (size_t f = 0; f < rows[i].fields.size(); ++f) {
      EXPECT_EQ(rows[i].fields[f], expected[i].fields[f])
          << "row " << i << " field " << f;
    }
  }
  EXPECT_GT(c.runs, 1u);  // max_run_bytes forced a split
  EXPECT_EQ(c.merge_passes, 1u);
  EXPECT_GT(c.bytes_written, 0u);
  EXPECT_EQ(c.bytes_read, c.bytes_written);
  // Runs are removed after restore: nothing left on disk or in the budget.
  EXPECT_EQ(m.on_disk_bytes(), 0u);
  EXPECT_EQ(m.total_runs(), c.runs);
}

TEST(SpillManagerTest, ByteBudgetExhaustionNamesBudgetAndUsage) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  cfg.max_spill_bytes = 64;  // smaller than any real run
  runtime::spill::SpillManager m(cfg);
  const runtime::Schema schema = MakeRowsSchema();
  runtime::column::PartitionBlock block =
      runtime::column::PartitionBlock::FromRows(schema, MakeRows(100, "big-"));
  runtime::spill::SpillCounters c;
  Status s = m.SpillAndRestoreBlock(2, "stage(y)", 0, schema, &block, &c);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_NE(s.ToString().find("spill byte budget exhausted"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("budget"), std::string::npos) << s.ToString();
}

TEST(SpillManagerTest, RemoveRunReleasesBudget) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  cfg.max_spill_bytes = 16ull << 10;
  runtime::spill::SpillManager m(cfg);
  runtime::column::PartitionBlock block =
      runtime::column::PartitionBlock::FromRows(MakeRowsSchema(),
                                                MakeRows(50, "r-"));
  runtime::spill::SpillCounters c;
  std::string path = m.RunPath(3, "budget", 0, 0);
  ASSERT_TRUE(m.WriteBlockRun(path, block, &c).ok());
  EXPECT_GT(m.on_disk_bytes(), 0u);
  // A second identical run would fit or not — irrelevant; removing the first
  // must return the budget to zero either way.
  m.RemoveRun(path);
  EXPECT_EQ(m.on_disk_bytes(), 0u);
  // With the budget released the same run can be written again.
  ASSERT_TRUE(m.WriteBlockRun(path, block, &c).ok());
  m.RemoveRun(path);
}

TEST(SpillManagerTest, BlockRunsRoundTripThroughReadRun) {
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  runtime::spill::SpillManager m(cfg);
  runtime::Schema schema(
      {{"k", nrc::Type::Int()}, {"s", nrc::Type::String()}});
  std::vector<Row> rows = MakeRows(64, "blk-");
  for (auto& r : rows) r.fields.pop_back();  // match the two-column schema
  runtime::column::PartitionBlock block =
      runtime::column::PartitionBlock::FromRows(schema, rows);
  ASSERT_EQ(block.NumCols(), 2u);

  runtime::spill::SpillCounters c;
  std::string path = m.RunPath(4, "blocks", 1, 0);
  ASSERT_TRUE(m.WriteBlockRun(path, block, &c).ok());
  std::vector<Row> back;
  uint64_t block_rows = 0;
  ASSERT_TRUE(m.ReadRun(path, &back, &block_rows, &c).ok());
  m.RemoveRun(path);

  EXPECT_EQ(block_rows, rows.size());
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < back.size(); ++i) {
    for (size_t f = 0; f < back[i].fields.size(); ++f) {
      EXPECT_EQ(back[i].fields[f], rows[i].fields[f])
          << "row " << i << " field " << f;
    }
  }
  EXPECT_EQ(c.bytes_read, c.bytes_written);
}

// --- block round-trip property --------------------------------------------

namespace column = runtime::column;
namespace serde = runtime::serde;
using runtime::Schema;

/// Random schema column types, one per storage kind plus two variant-backed
/// types (label, bag).
nrc::TypePtr RandomColumnType(std::mt19937_64* rng) {
  switch ((*rng)() % 6) {
    case 0: return nrc::Type::Int();
    case 1: return nrc::Type::Real();
    case 2: return nrc::Type::Bool();
    case 3: return nrc::Type::String();
    case 4: return nrc::Type::Label();
    default:
      return nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}));
  }
}

/// A value of the declared type, or (kind_mismatch) of another kind, which
/// demotes a typed column to variant mid-block.
Field RandomValue(std::mt19937_64* rng, const nrc::TypePtr& type,
                  bool kind_mismatch) {
  int64_t v = static_cast<int64_t>((*rng)() % 100000) - 50000;
  if (kind_mismatch) {
    return type->is_scalar() && type->scalar_kind() == nrc::ScalarKind::kString
               ? Field::Int(v)
               : Field::Str("m" + std::to_string(v));
  }
  if (!type->is_scalar()) {
    if ((*rng)() % 2 == 0) {
      return runtime::MakeLabel({{"k", Field::Int(v)}, {"s", Field::Str("l")}});
    }
    return Field::Bag({Row{{Field::Int(v)}}, Row{{Field::Real(v * 0.5)}}});
  }
  switch (type->scalar_kind()) {
    case nrc::ScalarKind::kInt: return Field::Int(v);
    case nrc::ScalarKind::kReal: return Field::Real(v == 0 ? -0.0 : v * 0.25);
    case nrc::ScalarKind::kBool: return Field::Bool(v % 2 == 0);
    case nrc::ScalarKind::kString:
      return Field::Str(std::string(static_cast<size_t>((*rng)() % 12), 'a' +
                                    static_cast<char>((*rng)() % 26)));
    default: return Field::Int(v);
  }
}

/// Random block over `schema`: per-column NULL rates of 0 or 1/4, and an
/// optional mid-block kind mismatch per column.
column::PartitionBlock RandomBlock(std::mt19937_64* rng, const Schema& schema,
                                   size_t rows) {
  const size_t ncols = schema.size();
  std::vector<bool> nulls(ncols), mismatch(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    nulls[c] = (*rng)() % 2 == 0;
    mismatch[c] = (*rng)() % 4 == 0;
  }
  column::PartitionBlock block(schema);
  for (size_t i = 0; i < rows; ++i) {
    Row r;
    for (size_t c = 0; c < ncols; ++c) {
      if (nulls[c] && (*rng)() % 4 == 0) {
        r.fields.push_back(Field::Null());
      } else {
        r.fields.push_back(RandomValue(rng, schema.col(c).type,
                                       mismatch[c] && (*rng)() % 16 == 0));
      }
    }
    block.AppendRow(r);
  }
  return block;
}

bool FieldsBitEqual(const Field& a, const Field& b) {
  if (a.is_real() && b.is_real()) {
    double x = a.AsReal(), y = b.AsReal();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a == b;
}

/// The restored block must equal the reference in every cell (bit-exact),
/// in RowBytesAt, and in ByteFootprint.
void ExpectBlocksIdentical(const column::PartitionBlock& got,
                           const column::PartitionBlock& want,
                           const std::string& at) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << at;
  ASSERT_EQ(got.NumCols(), want.NumCols()) << at;
  for (size_t i = 0; i < got.NumRows(); ++i) {
    Row g = got.RowAt(i), w = want.RowAt(i);
    ASSERT_EQ(g.fields.size(), w.fields.size()) << at << " row " << i;
    for (size_t f = 0; f < g.fields.size(); ++f) {
      ASSERT_TRUE(FieldsBitEqual(g.fields[f], w.fields[f]))
          << at << " row " << i << " field " << f;
    }
    ASSERT_EQ(got.RowBytesAt(i), want.RowBytesAt(i)) << at << " row " << i;
  }
  EXPECT_EQ(got.ByteFootprint(), want.ByteFootprint()) << at;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The historical block-run writer: a chunk block of rows [begin, end)
/// built through AppendRowFrom, written through WriteBlock.
std::string ChunkRunBytes(const column::PartitionBlock& block,
                          const Schema& schema, size_t begin, size_t end,
                          const std::string& path) {
  column::PartitionBlock chunk(schema);
  for (size_t i = begin; i < end; ++i) chunk.AppendRowFrom(block, i);
  serde::BlockFileWriter writer;
  EXPECT_TRUE(writer.Open(path).ok());
  EXPECT_TRUE(writer.WriteBlock(chunk).ok());
  EXPECT_TRUE(writer.Close().ok());
  return FileBytes(path);
}

TEST(SpillBlockPropertyTest, SliceEncoderMatchesChunkPayload) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<runtime::Column> cols;
    size_t ncols = 1 + rng() % 5;
    for (size_t c = 0; c < ncols; ++c) {
      cols.push_back({"c" + std::to_string(c), RandomColumnType(&rng)});
    }
    Schema schema(cols);
    column::PartitionBlock block = RandomBlock(&rng, schema, rng() % 300);
    // The spill schema usually is the block's own; sometimes it retypes a
    // column, which exercises the kind-mismatch encodings.
    Schema spill_schema = schema;
    if (seed % 7 == 0) {
      cols[rng() % ncols].type = RandomColumnType(&rng);
      spill_schema = Schema(cols);
    }
    const size_t n = block.NumRows();
    for (int trial = 0; trial < 20; ++trial) {
      size_t a = n == 0 ? 0 : rng() % (n + 1);
      size_t b = n == 0 ? 0 : rng() % (n + 1);
      if (a > b) std::swap(a, b);
      column::PartitionBlock chunk(spill_schema);
      for (size_t i = a; i < b; ++i) chunk.AppendRowFrom(block, i);
      std::string want, got;
      serde::AppendBlockPayload(chunk, &want);
      serde::AppendBlockSlicePayload(block, spill_schema, a, b, &got);
      ASSERT_EQ(got, want) << "seed " << seed << " range [" << a << ", " << b
                           << ")";
    }
  }
}

TEST(SpillBlockPropertyTest, SpillAndRestoreBlockEqualsRowPath) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed * 7919);
    std::vector<runtime::Column> cols;
    size_t ncols = 1 + rng() % 5;
    for (size_t c = 0; c < ncols; ++c) {
      cols.push_back({"c" + std::to_string(c), RandomColumnType(&rng)});
    }
    Schema schema(cols);
    const column::PartitionBlock original =
        RandomBlock(&rng, schema, 1 + rng() % 400);
    runtime::spill::SpillConfig cfg;
    cfg.dir = ::testing::TempDir();
    cfg.max_run_bytes = 64 + rng() % 2048;  // several runs per block
    cfg.keep_files = true;
    runtime::spill::SpillManager m(cfg);

    // Expected run files: the historical chunk-block writer over the same
    // RowBytesAt boundaries.
    std::vector<std::string> want_runs;
    const std::string scratch = ::testing::TempDir() + "/trance_spill_chunk.trs";
    size_t begin = 0;
    uint64_t bytes = 0;
    for (size_t i = 0; i < original.NumRows(); ++i) {
      bytes += original.RowBytesAt(i);
      if (bytes >= cfg.max_run_bytes) {
        want_runs.push_back(ChunkRunBytes(original, schema, begin, i + 1,
                                          scratch));
        begin = i + 1;
        bytes = 0;
      }
    }
    if (begin < original.NumRows() || want_runs.empty()) {
      want_runs.push_back(
          ChunkRunBytes(original, schema, begin, original.NumRows(), scratch));
    }
    std::remove(scratch.c_str());

    column::PartitionBlock block = original;
    runtime::spill::SpillCounters c;
    Status s = m.SpillAndRestoreBlock(9, "prop", 0, schema, &block, &c);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(c.runs, want_runs.size()) << "seed " << seed;
    for (size_t r = 0; r < want_runs.size(); ++r) {
      std::string path = m.RunPath(9, "prop", 0, r);
      ASSERT_EQ(FileBytes(path), want_runs[r])
          << "seed " << seed << " run " << r;
      std::remove(path.c_str());
    }
    EXPECT_EQ(c.bytes_read, c.bytes_written);

    // The row path: the same rows appended one by one into a fresh block.
    column::PartitionBlock want =
        column::PartitionBlock::FromRows(schema, original.ToRows());
    ExpectBlocksIdentical(block, want, "seed " + std::to_string(seed));
  }
}

TEST(SpillBlockPropertyTest, MultiRunRestoreIntoNonEmptyBlockEqualsRowPath) {
  // The shuffle-fetch case: several block runs (some retyped) restored into
  // a destination that already holds rows — possibly demoted columns.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed * 104729);
    std::vector<runtime::Column> cols;
    size_t ncols = 1 + rng() % 4;
    for (size_t c = 0; c < ncols; ++c) {
      cols.push_back({"c" + std::to_string(c), RandomColumnType(&rng)});
    }
    Schema schema(cols);
    // Both sides grow through the same append sequence (a copy would not
    // preserve vector capacities, and so not ByteFootprint).
    const std::vector<Row> prefix =
        RandomBlock(&rng, schema, rng() % 100).ToRows();
    column::PartitionBlock dest = column::PartitionBlock::FromRows(schema, prefix);
    column::PartitionBlock want = column::PartitionBlock::FromRows(schema, prefix);

    runtime::spill::SpillConfig cfg;
    cfg.dir = ::testing::TempDir();
    runtime::spill::SpillManager m(cfg);
    runtime::spill::SpillCounters c;
    size_t runs = 1 + rng() % 4;
    for (size_t r = 0; r < runs; ++r) {
      Schema run_schema = schema;
      if (rng() % 5 == 0) {
        std::vector<runtime::Column> retyped = cols;
        retyped[rng() % ncols].type = RandomColumnType(&rng);
        run_schema = Schema(retyped);
      }
      column::PartitionBlock src = RandomBlock(&rng, run_schema, rng() % 150);
      std::string path = m.RunPath(11, "fetch", 0, r);
      ASSERT_TRUE(m.WriteBlockRun(path, src, &c).ok());
      Status s = m.ReadRunIntoBlock(path, &dest, &c);
      ASSERT_TRUE(s.ok()) << s.ToString();
      m.RemoveRun(path);
      for (size_t i = 0; i < src.NumRows(); ++i) want.AppendRow(src.RowAt(i));
      ExpectBlocksIdentical(dest, want,
                            "seed " + std::to_string(seed) + " run " +
                                std::to_string(r));
    }
    EXPECT_EQ(c.bytes_read, c.bytes_written);
  }
}

/// Rewrites the block flag byte of a one-record file's payload to `flag`,
/// keeping the frame and checksum valid, so only the flag check can reject
/// it. Layout (docs/STORAGE.md): 8-byte file header, u8 kind, u64 length,
/// payload (u32 columns, u64 rows, u8 flag, ...), u64 FNV-1a checksum.
void SetBlockFlag(const std::string& path, uint8_t flag) {
  std::string bytes = FileBytes(path);
  const size_t payload = 8 + 1 + 8;
  const size_t len = bytes.size() - payload - 8;
  bytes[payload + 12] = static_cast<char>(flag);
  const uint64_t sum = runtime::serde::Fnv1a64(bytes.data() + payload, len);
  std::memcpy(bytes.data() + payload + len, &sum, sizeof(sum));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SpillManagerTest, ReadRunIntoBlockRejectsFlagAndWidthMismatch) {
  // A restore destination only takes schema-width records: a run whose
  // block flag byte is set, a block run of another width, or a row-batch
  // run holding a row of another width fails with a named Invalid and
  // leaves the destination exactly as it was.
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  runtime::spill::SpillManager m(cfg);
  const Schema two({{"a", nrc::Type::Int()}, {"b", nrc::Type::String()}});
  const Schema three({{"a", nrc::Type::Int()},
                      {"b", nrc::Type::String()},
                      {"c", nrc::Type::Real()}});
  const std::vector<Row> two_rows = {Row({Field::Int(1), Field::Str("x")}),
                                     Row({Field::Int(2), Field::Null()})};
  const std::vector<Row> three_rows = {
      Row({Field::Int(3), Field::Str("y"), Field::Real(0.5)})};

  auto expect_rejected = [&](const std::string& path,
                             const std::string& message) {
    column::PartitionBlock dest = column::PartitionBlock::FromRows(two, two_rows);
    const uint64_t footprint = dest.ByteFootprint();
    runtime::spill::SpillCounters c;
    Status s = m.ReadRunIntoBlock(path, &dest, &c);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find(message), std::string::npos) << s.ToString();
    EXPECT_EQ(dest.NumRows(), two_rows.size());
    EXPECT_EQ(dest.ByteFootprint(), footprint);
    m.RemoveRun(path);
  };
  runtime::spill::SpillCounters c;

  std::string path = m.RunPath(12, "reject", 0, 0);
  ASSERT_TRUE(
      m.WriteBlockRun(path, column::PartitionBlock::FromRows(two, two_rows), &c)
          .ok());
  SetBlockFlag(path, 1);
  expect_rejected(path, "flag byte 1");

  path = m.RunPath(12, "reject", 0, 1);
  ASSERT_TRUE(m.WriteBlockRun(
                   path, column::PartitionBlock::FromRows(three, three_rows), &c)
                  .ok());
  expect_rejected(path,
                  "block record has width 3, destination block has width 2");

  path = m.RunPath(12, "reject", 0, 2);
  {
    runtime::serde::BlockFileWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    std::vector<Row> batch = two_rows;
    batch.push_back(three_rows[0]);
    ASSERT_TRUE(writer.WriteRows(batch).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  expect_rejected(path, "row-batch record row 2 has width 3, destination "
                        "block has width 2");
}

}  // namespace
}  // namespace trance
