// End-to-end columnar-block tests (ctest label `columnar`).
//
// Every Fig-7 narrow-suite query, through both compilation routes, produces
// identical per-partition rows (hence identical placement), identical
// shuffle bytes, and identical JobStats — the keyed, flat-table and
// columnar counters included — at 1, 4, and 8 threads. Operators build
// typed blocks (columnar_bytes > 0) and never convert block rows back into
// retained rows (column_to_row_conversions == 0), and both counters flow
// into EXPLAIN ANALYZE ("col(blocks=") and the JSON export.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "nrc/interp.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "runtime/cluster.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "stats_test_util.h"

namespace trance {
namespace {

using nrc::Value;
using runtime::Dataset;
using runtime::JobStats;
using runtime::Row;
using testing_util::ExpectSameStats;

runtime::ClusterConfig Config(int num_threads) {
  runtime::ClusterConfig c;
  c.num_partitions = 8;
  c.num_threads = num_threads;
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

struct StandardModeRun {
  Dataset out;
  JobStats stats;
  std::string explain;
};

StandardModeRun RunStandardMode(const nrc::Program& q,
                                const std::map<std::string, Value>& values,
                                int threads) {
  runtime::Cluster cluster(Config(threads));
  exec::PipelineOptions opts;
  exec::Executor executor(&cluster, opts.exec);
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    auto schema = runtime::Schema::FromBagType(in.type).ValueOrDie();
    auto rows = exec::ValueToRows(v->second, schema).ValueOrDie();
    auto ds = runtime::Source(&cluster, schema, std::move(rows), in.name)
                  .ValueOrDie();
    executor.Register(in.name, std::move(ds));
  }
  plan::PlanProgram compiled;
  StandardModeRun r;
  auto out = exec::RunStandard(q, &executor, opts, &compiled);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (out.ok()) r.out = std::move(out).value();
  r.stats = cluster.stats();
  r.explain = obs::ExplainAnalyze(compiled, r.stats);
  return r;
}

struct ShreddedModeRun {
  exec::ShreddedRun run;
  JobStats stats;
};

ShreddedModeRun RunShreddedMode(const nrc::Program& q,
                                const std::map<std::string, Value>& values,
                                int threads) {
  runtime::Cluster cluster(Config(threads));
  exec::PipelineOptions opts;
  exec::Executor executor(&cluster, opts.exec);
  int64_t seed = 0;
  for (const auto& in : q.inputs) {
    auto v = values.find(in.name);
    TRANCE_CHECK(v != values.end(), "missing input");
    TRANCE_CHECK(
        exec::RegisterShreddedInput(&executor, in.name, in.type, v->second,
                                    seed)
            .ok(),
        "register shredded input");
    seed += 1000000;
  }
  plan::PlanProgram compiled;
  ShreddedModeRun r;
  auto run = exec::RunShredded(q, &executor, opts,
                               shred::MaterializeMode::kDomainElimination,
                               &compiled);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (run.ok()) r.run = std::move(run).value();
  r.stats = cluster.stats();
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

class ColumnarSuiteTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
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

// The test names predate block residence as the only storage; each route is
// checked for thread-count invariance (the columnar counters included:
// per-partition slots are folded in partition order, not completion order),
// built blocks and zero conversions.
TEST_P(ColumnarSuiteTest, StandardRouteOnOffIdentical) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  StandardModeRun on1 = RunStandardMode(*q, values, 1);
  StandardModeRun on4 = RunStandardMode(*q, values, 4);
  StandardModeRun on8 = RunStandardMode(*q, values, 8);

  ExpectSameRows(on1.out, on4.out);
  ExpectSameRows(on1.out, on8.out);
  ExpectSameStats(on1.stats, on4.stats);
  ExpectSameStats(on1.stats, on8.stats);
  EXPECT_EQ(on1.stats.columnar_bytes(), on4.stats.columnar_bytes());
  EXPECT_EQ(on1.stats.columnar_bytes(), on8.stats.columnar_bytes());
  EXPECT_GT(on1.stats.columnar_bytes(), 0u);
  EXPECT_EQ(on1.stats.column_to_row_conversions(), 0u);
  EXPECT_EQ(on4.stats.column_to_row_conversions(), 0u);
  EXPECT_EQ(on8.stats.column_to_row_conversions(), 0u);
}

TEST_P(ColumnarSuiteTest, ShreddedRouteOnOffIdentical) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  ShreddedModeRun on1 = RunShreddedMode(*q, values, 1);
  ShreddedModeRun on4 = RunShreddedMode(*q, values, 4);
  ShreddedModeRun on8 = RunShreddedMode(*q, values, 8);

  ExpectSameShreddedRows(on1.run, on4.run);
  ExpectSameShreddedRows(on1.run, on8.run);
  ExpectSameStats(on1.stats, on4.stats);
  ExpectSameStats(on1.stats, on8.stats);
  EXPECT_EQ(on1.stats.columnar_bytes(), on4.stats.columnar_bytes());
  EXPECT_EQ(on1.stats.columnar_bytes(), on8.stats.columnar_bytes());
  EXPECT_GT(on1.stats.columnar_bytes(), 0u);
  EXPECT_EQ(on1.stats.column_to_row_conversions(), 0u);
}

std::string ColumnarParamName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"flat_to_nested", "nested_to_nested",
                                 "nested_to_flat"};
  return std::string(kKinds[std::get<0>(info.param)]) + "_depth" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, ColumnarSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 2, 4)),
    ColumnarParamName);

// --- Counter plumbing -----------------------------------------------------

TEST(ColumnarRuntimeTest, BlockResidentRouteConvertsNothing) {
  // With partitions block-resident end to end, no operator materializes a
  // block-backed input into retained rows — column_to_row_conversions is
  // exactly zero across the whole Fig-7 narrow suite.
  for (int kind = 0; kind <= 2; ++kind) {
    for (int depth : {0, 2}) {
      SCOPED_TRACE("kind " + std::to_string(kind) + " depth " +
                   std::to_string(depth));
      auto q = kind == 0   ? tpch::FlatToNested(depth, tpch::Width::kNarrow)
               : kind == 1 ? tpch::NestedToNested(depth, tpch::Width::kNarrow)
                           : tpch::NestedToFlat(depth, tpch::Width::kNarrow);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      tpch::TpchConfig cfg;
      cfg.scale = 0.0005;
      auto values = TpchValues(tpch::Generate(cfg));
      if (kind != 0) {
        auto prep = tpch::FlatToNested(depth, tpch::Width::kNarrow).ValueOrDie();
        nrc::Interpreter interp;
        auto nested = interp.EvalProgram(prep, values);
        ASSERT_TRUE(nested.ok());
        values = {{"COP", nested->at("Q")}, {"Part", values.at("Part")}};
      }
      StandardModeRun on = RunStandardMode(*q, values, 1);
      EXPECT_GT(on.stats.columnar_bytes(), 0u);
      EXPECT_EQ(on.stats.column_to_row_conversions(), 0u);
    }
  }
}

TEST(ColumnarRuntimeTest, CountersVisibleInJsonAndExplain) {
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = TpchValues(tpch::Generate(cfg));
  StandardModeRun r = RunStandardMode(*q, values, 1);
  EXPECT_GT(r.stats.columnar_bytes(), 0u);

  std::string json = obs::JobStatsToJson(r.stats);
  EXPECT_NE(json.find("\"columnar_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"column_to_row_conversions\""), std::string::npos)
      << json;

  EXPECT_NE(r.explain.find("col(blocks="), std::string::npos) << r.explain;
}

}  // namespace
}  // namespace trance
