// Stage-fusion equivalence: every Fig-7 narrow-suite query, through both
// compilation routes, must produce identical per-partition rows, identical
// shuffle bytes, and identical EXPLAIN ANALYZE per-operator row counts with
// fusion on and off, at 1 and 4 threads. Fusion is purely an execution
// strategy — it changes how many stages run, never what they compute.
//
// The cell-runner parity property (CellRunnerParityTest) checks the fused
// runner itself: random narrow chains over random nested partitions give
// the same rows, byte accounting and stage stats whether the chain runs as
// structured transforms over cell references or as opaque Row closures.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "exec/scalar_compiler.h"
#include "nrc/builder.h"
#include "nrc/interp.h"
#include "obs/explain.h"
#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "runtime/stage_pipeline.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace trance {
namespace {

using nrc::Value;
using runtime::Dataset;
using runtime::JobStats;
using runtime::Row;
using runtime::StageStats;

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

/// Full JobStats equality except wall-clock fields: used to check that each
/// fusion mode independently keeps the PR-2 contract (stats are a function
/// of the data, not the thread count).
void ExpectSameStats(const JobStats& a, const JobStats& b) {
  EXPECT_EQ(a.total_shuffle_bytes(), b.total_shuffle_bytes());
  EXPECT_EQ(a.max_stage_shuffle_bytes(), b.max_stage_shuffle_bytes());
  EXPECT_EQ(a.peak_partition_bytes(), b.peak_partition_bytes());
  EXPECT_EQ(a.fused_stages(), b.fused_stages());
  EXPECT_EQ(a.intermediate_bytes_avoided(), b.intermediate_bytes_avoided());
  EXPECT_EQ(a.sim_seconds(), b.sim_seconds());
  ASSERT_EQ(a.stages().size(), b.stages().size());
  for (size_t i = 0; i < a.stages().size(); ++i) {
    const StageStats& sa = a.stages()[i];
    const StageStats& sb = b.stages()[i];
    SCOPED_TRACE("stage " + std::to_string(i) + " (" + sa.op + ")");
    EXPECT_EQ(sa.op, sb.op);
    EXPECT_EQ(sa.scope, sb.scope);
    EXPECT_EQ(sa.rows_in, sb.rows_in);
    EXPECT_EQ(sa.rows_out, sb.rows_out);
    EXPECT_EQ(sa.shuffle_bytes, sb.shuffle_bytes);
    EXPECT_EQ(sa.total_work_bytes, sb.total_work_bytes);
    EXPECT_EQ(sa.mem_high_water_bytes, sb.mem_high_water_bytes);
    EXPECT_EQ(sa.partition_work_bytes, sb.partition_work_bytes);
    EXPECT_EQ(sa.intermediate_bytes_avoided, sb.intermediate_bytes_avoided);
    ASSERT_EQ(sa.fused_transforms.size(), sb.fused_transforms.size());
    for (size_t t = 0; t < sa.fused_transforms.size(); ++t) {
      EXPECT_EQ(sa.fused_transforms[t].op, sb.fused_transforms[t].op);
      EXPECT_EQ(sa.fused_transforms[t].scope, sb.fused_transforms[t].scope);
      EXPECT_EQ(sa.fused_transforms[t].rows_out,
                sb.fused_transforms[t].rows_out);
    }
    EXPECT_EQ(sa.sim_seconds, sb.sim_seconds);
  }
}

/// (operator label, rows) pairs extracted from EXPLAIN ANALYZE, in tree
/// order. The per-operator row counts must not depend on the fusion mode.
std::vector<std::pair<std::string, long long>> ExplainRowCounts(
    const std::string& explain) {
  std::vector<std::pair<std::string, long long>> out;
  std::istringstream is(explain);
  std::string line;
  while (std::getline(is, line)) {
    size_t bracket = line.find("  [rows=");
    if (bracket == std::string::npos) continue;
    std::string label = line.substr(0, bracket);
    size_t start = label.find_first_not_of(' ');
    label = start == std::string::npos ? "" : label.substr(start);
    long long rows = std::strtoll(line.c_str() + bracket + 8, nullptr, 10);
    out.emplace_back(std::move(label), rows);
  }
  return out;
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
                                bool fusion, int threads) {
  runtime::Cluster cluster(Config(threads));
  exec::PipelineOptions opts;
  opts.exec.enable_stage_fusion = fusion;
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
  std::string explain;
};

ShreddedModeRun RunShreddedMode(const nrc::Program& q,
                                const std::map<std::string, Value>& values,
                                bool fusion, int threads) {
  runtime::Cluster cluster(Config(threads));
  exec::PipelineOptions opts;
  opts.exec.enable_stage_fusion = fusion;
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
  r.explain = obs::ExplainAnalyze(compiled, r.stats);
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

class FusionSuiteTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  /// The three Fig-7 narrow-suite query kinds; nested-input kinds prepare
  /// COP by interpreting the flat-to-nested query of the same depth.
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

TEST_P(FusionSuiteTest, StandardRouteOnOffIdentical) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  StandardModeRun on1 = RunStandardMode(*q, values, true, 1);
  StandardModeRun on4 = RunStandardMode(*q, values, true, 4);
  StandardModeRun off1 = RunStandardMode(*q, values, false, 1);
  StandardModeRun off4 = RunStandardMode(*q, values, false, 4);

  // Each mode keeps the thread-count-independence contract in full.
  ExpectSameRows(on1.out, on4.out);
  ExpectSameStats(on1.stats, on4.stats);
  ExpectSameRows(off1.out, off4.out);
  ExpectSameStats(off1.stats, off4.stats);

  // Across modes: same rows in the same partitions, same shuffle volume,
  // same per-operator row counts in EXPLAIN ANALYZE.
  ExpectSameRows(on1.out, off1.out);
  EXPECT_EQ(on1.stats.total_shuffle_bytes(), off1.stats.total_shuffle_bytes());
  EXPECT_EQ(on1.stats.max_stage_shuffle_bytes(),
            off1.stats.max_stage_shuffle_bytes());
  EXPECT_EQ(ExplainRowCounts(on1.explain), ExplainRowCounts(off1.explain))
      << "fusion ON:\n" << on1.explain << "fusion OFF:\n" << off1.explain;

  EXPECT_EQ(off1.stats.fused_stages(), 0u);
  EXPECT_EQ(off1.stats.intermediate_bytes_avoided(), 0u);
  if (depth >= 1) {
    EXPECT_GT(on1.stats.fused_stages(), 0u) << on1.explain;
    EXPECT_GT(on1.stats.intermediate_bytes_avoided(), 0u);
  }
}

TEST_P(FusionSuiteTest, ShreddedRouteOnOffIdentical) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  ShreddedModeRun on1 = RunShreddedMode(*q, values, true, 1);
  ShreddedModeRun on4 = RunShreddedMode(*q, values, true, 4);
  ShreddedModeRun off1 = RunShreddedMode(*q, values, false, 1);
  ShreddedModeRun off4 = RunShreddedMode(*q, values, false, 4);

  ExpectSameShreddedRows(on1.run, on4.run);
  ExpectSameStats(on1.stats, on4.stats);
  ExpectSameShreddedRows(off1.run, off4.run);
  ExpectSameStats(off1.stats, off4.stats);

  ExpectSameShreddedRows(on1.run, off1.run);
  EXPECT_EQ(on1.stats.total_shuffle_bytes(), off1.stats.total_shuffle_bytes());
  EXPECT_EQ(on1.stats.max_stage_shuffle_bytes(),
            off1.stats.max_stage_shuffle_bytes());
  EXPECT_EQ(ExplainRowCounts(on1.explain), ExplainRowCounts(off1.explain))
      << "fusion ON:\n" << on1.explain << "fusion OFF:\n" << off1.explain;

  EXPECT_EQ(off1.stats.fused_stages(), 0u);
  EXPECT_EQ(off1.stats.intermediate_bytes_avoided(), 0u);
}

std::string FusionParamName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"flat_to_nested", "nested_to_nested",
                                 "nested_to_flat"};
  return std::string(kKinds[std::get<0>(info.param)]) + "_depth" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, FusionSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3, 4)),
    FusionParamName);


// ---------------------------------------------------------------------------
// Cell-runner parity property.

using nrc::Expr;
using nrc::ExprPtr;
using nrc::Type;
using runtime::Field;
using runtime::RowTransform;
using runtime::Schema;

constexpr size_t kParityPartitions = 8;

/// (x: int, y: string, z: {(w: int)}) — a bag whose elements carry a bag.
nrc::TypePtr ParityBagType() {
  return nrc::dsl::BagTu({{"x", Type::Int()},
                          {"y", Type::String()},
                          {"z", nrc::dsl::BagTu({{"w", Type::Int()}})}});
}

Schema ParitySchema() {
  return Schema({{"i", Type::Int()},
                 {"r", Type::Real()},
                 {"s", Type::String()},
                 {"b", Type::Bool()},
                 {"l", Type::Label()},
                 {"g", ParityBagType()}});
}

/// A random cell for column `c` of ParitySchema: ~10% NULL, ~3% a value of
/// another kind (which demotes a typed block column to variant mid-block).
Field RandomParityCell(std::mt19937_64& rng, size_t c) {
  if (rng() % 10 == 0) return Field::Null();
  if (c < 4 && rng() % 32 == 0) {
    return c == 0 ? Field::Real(0.5 * static_cast<double>(rng() % 9))
                  : Field::Int(static_cast<int64_t>(rng() % 9));
  }
  switch (c) {
    case 0: return Field::Int(static_cast<int64_t>(rng() % 20) - 5);
    case 1: return Field::Real(static_cast<double>(rng() % 100) / 64.0);
    case 2: return Field::Str("s" + std::to_string(rng() % 7));
    case 3: return Field::Bool(rng() % 2 == 0);
    case 4:
      return runtime::MakeLabel({{"k", Field::Int(static_cast<int64_t>(
                                           rng() % 5))},
                                 {"t", Field::Str("t")}});
    default: {
      if (rng() % 8 == 0) return Field::Bag(runtime::BagPtr());
      std::vector<Row> elems;
      for (size_t e = rng() % 4; e > 0; --e) {
        std::vector<Row> inner;
        for (size_t w = rng() % 3; w > 0; --w) {
          inner.push_back(Row({Field::Int(static_cast<int64_t>(rng() % 9))}));
        }
        elems.push_back(Row({Field::Int(static_cast<int64_t>(rng() % 9)),
                             Field::Str("y" + std::to_string(rng() % 5)),
                             Field::Bag(std::move(inner))}));
      }
      return Field::Bag(std::move(elems));
    }
  }
}

/// Random partitions over ParitySchema; about a quarter of the partitions
/// carry one ragged row (an extra trailing column), which demotes that
/// partition's block to the ragged fallback.
std::vector<std::vector<Row>> RandomParityPartitions(std::mt19937_64& rng) {
  std::vector<std::vector<Row>> parts(kParityPartitions);
  for (auto& part : parts) {
    const size_t n = rng() % 24;
    const size_t ragged_at = rng() % 4 == 0 ? rng() % (n + 1) : n + 1;
    for (size_t i = 0; i < n; ++i) {
      Row r;
      for (size_t c = 0; c < 6; ++c) r.fields.push_back(RandomParityCell(rng, c));
      if (i == ragged_at) r.fields.push_back(Field::Int(-1));
      part.push_back(std::move(r));
    }
  }
  return parts;
}

Dataset ParityInput(const Schema& schema,
                    const std::vector<std::vector<Row>>& parts) {
  Dataset ds;
  ds.schema = schema;
  std::vector<runtime::column::PartitionBlock> bs;
  for (const auto& part : parts) {
    bs.push_back(runtime::column::PartitionBlock::FromRows(schema, part));
  }
  ds.store = runtime::PartitionStore::OfBlocks(schema, std::move(bs));
  return ds;
}

/// One random chain in both forms: `structured` uses cell predicates,
/// pass-through columns and compiled computed columns; `opaque` carries the
/// same logic as Row closures (MapFn/PredFn/FlatMapFn). Outer-unnest with
/// an id column and add-index number rows per partition, which no closure
/// can see, so both forms share those steps.
struct ParityChain {
  std::vector<RowTransform> structured;
  std::vector<RowTransform> opaque;
  Schema out_schema;
  std::string description;
};

std::vector<size_t> ColumnsOfKind(const Schema& schema,
                                  bool (*pred)(const nrc::TypePtr&)) {
  std::vector<size_t> out;
  for (size_t c = 0; c < schema.size(); ++c) {
    if (pred(schema.col(c).type)) out.push_back(c);
  }
  return out;
}

bool IsScalarType(const nrc::TypePtr& t) { return t->is_scalar(); }
bool IsBagType(const nrc::TypePtr& t) { return t->is_bag(); }
bool IsIntType(const nrc::TypePtr& t) {
  return t->is_scalar() && t->scalar_kind() == nrc::ScalarKind::kInt;
}

/// A random predicate over the scalar columns of `schema`.
ExprPtr RandomPredicate(std::mt19937_64& rng, const Schema& schema) {
  std::vector<size_t> scalars = ColumnsOfKind(schema, IsScalarType);
  if (scalars.empty()) return nrc::dsl::B(rng() % 2 == 0);
  auto atom = [&]() -> ExprPtr {
    const auto& col = schema.col(scalars[rng() % scalars.size()]);
    ExprPtr v = Expr::Var(col.name);
    switch (col.type->scalar_kind()) {
      case nrc::ScalarKind::kInt:
      case nrc::ScalarKind::kDate:
        return nrc::dsl::Lt(v, nrc::dsl::I(static_cast<int64_t>(rng() % 10)));
      case nrc::ScalarKind::kReal:
        return nrc::dsl::Gt(v, nrc::dsl::R(0.5));
      case nrc::ScalarKind::kString:
        return nrc::dsl::Ne(v, nrc::dsl::S("s" + std::to_string(rng() % 7)));
      case nrc::ScalarKind::kBool:
        return v;
    }
    return v;
  };
  ExprPtr e = atom();
  if (rng() % 3 == 0) e = nrc::dsl::Or(e, atom());
  if (rng() % 4 == 0) e = Expr::Not(e);
  return e;
}

/// A random computed column over `schema`: arithmetic on an int column, a
/// label over any scalar column, or a constant.
ExprPtr RandomComputed(std::mt19937_64& rng, const Schema& schema) {
  std::vector<size_t> ints = ColumnsOfKind(schema, IsIntType);
  std::vector<size_t> scalars = ColumnsOfKind(schema, IsScalarType);
  switch (rng() % 3) {
    case 0:
      if (!ints.empty()) {
        return nrc::dsl::Add(Expr::Var(schema.col(ints[rng() % ints.size()]).name),
                             nrc::dsl::I(1));
      }
      break;
    case 1:
      if (!scalars.empty()) {
        return Expr::NewLabel(
            {{"p", Expr::Var(schema.col(scalars[rng() % scalars.size()]).name)}});
      }
      break;
    default:
      break;
  }
  return nrc::dsl::S("const");
}

/// Row-closure form of a select's predicate.
runtime::PredFn OpaquePredicate(const ExprPtr& e, const Schema& schema) {
  return exec::CompilePredicate(e, schema).ValueOrDie();
}

/// Row-level bag step shared by the opaque unnest / outer-unnest closures.
void OpaqueUnnest(const Row& r, int bag_col, bool outer, size_t inner_width,
                  std::vector<Row>* out) {
  Row prefix;
  for (size_t c = 0; c < r.fields.size(); ++c) {
    if (static_cast<int>(c) != bag_col) prefix.fields.push_back(r.fields[c]);
  }
  const Field& bag = r.fields[static_cast<size_t>(bag_col)];
  const bool has_rows =
      bag.is_bag() && bag.AsBag() != nullptr && !bag.AsBag()->empty();
  if (!has_rows) {
    if (!outer) return;
    Row padded = prefix;
    for (size_t k = 0; k < inner_width; ++k) {
      padded.fields.push_back(Field::Null());
    }
    out->push_back(std::move(padded));
    return;
  }
  for (const Row& inner : *bag.AsBag()) {
    Row e = prefix;
    for (const Field& f : inner.fields) e.fields.push_back(f);
    out->push_back(std::move(e));
  }
}

ParityChain RandomParityChain(std::mt19937_64& rng) {
  ParityChain ch;
  Schema schema = ParitySchema();
  const size_t len = 1 + rng() % 5;
  int fresh = 0;
  for (size_t step = 0; step < len; ++step) {
    const std::vector<size_t> bags = ColumnsOfKind(schema, IsBagType);
    size_t kind = rng() % 7;
    if ((kind == 4 || kind == 5) && bags.empty()) kind = 2;
    switch (kind) {
      case 0: {  // select
        ExprPtr e = RandomPredicate(rng, schema);
        ch.structured.push_back(RowTransform::Select(
            "select", exec::CompileCellPredicate(e, schema).ValueOrDie()));
        ch.opaque.push_back(
            RowTransform::Filter("select", OpaquePredicate(e, schema)));
        ch.description += "select ";
        break;
      }
      case 1: {  // outer-select
        ExprPtr e = RandomPredicate(rng, schema);
        std::vector<bool> keep(schema.size());
        for (size_t c = 0; c < keep.size(); ++c) keep[c] = rng() % 2 == 0;
        runtime::PredFn pred = OpaquePredicate(e, schema);
        ch.structured.push_back(RowTransform::OuterSelect(
            "outer_select", exec::CompileCellPredicate(e, schema).ValueOrDie(),
            keep));
        ch.opaque.push_back(RowTransform::Map(
            "outer_select", [pred, keep](const Row& r) {
              if (pred(r)) return r;
              Row out = r;
              for (size_t c = 0; c < out.fields.size(); ++c) {
                if (c >= keep.size() || !keep[c]) out.fields[c] = Field::Null();
              }
              return out;
            }));
        ch.description += "outer_select ";
        break;
      }
      case 2:
      case 3: {  // project / extend
        const bool extend = kind == 3;
        std::vector<runtime::ProjectColumn> cols;
        std::vector<std::pair<int, exec::ScalarFn>> row_cols;
        Schema out = extend ? schema : Schema();
        if (!extend) {
          std::vector<size_t> order(schema.size());
          for (size_t c = 0; c < order.size(); ++c) order[c] = c;
          std::shuffle(order.begin(), order.end(), rng);
          order.resize(1 + rng() % order.size());
          for (size_t c : order) {
            runtime::ProjectColumn pc;
            pc.src = static_cast<int>(c);
            cols.push_back(pc);
            row_cols.emplace_back(pc.src, nullptr);
            out.Append(schema.col(c));
          }
        }
        for (size_t k = 0; k < 1 + rng() % 2; ++k) {
          ExprPtr e = RandomComputed(rng, schema);
          runtime::ProjectColumn pc;
          pc.fn = exec::CompileCellScalar(e, schema).ValueOrDie();
          cols.push_back(pc);
          row_cols.emplace_back(-1,
                                exec::CompileScalar(e, schema).ValueOrDie());
          out.Append({"c" + std::to_string(fresh++),
                      exec::ScalarResultType(e, schema).ValueOrDie()});
        }
        const char* op = extend ? "extend" : "project";
        ch.structured.push_back(
            RowTransform::Project(op, extend, std::move(cols)));
        ch.opaque.push_back(RowTransform::Map(
            op, [extend, row_cols](const Row& r) {
              Row o;
              if (extend) o.fields = r.fields;
              for (const auto& [src, fn] : row_cols) {
                o.fields.push_back(src >= 0 ? r.fields[static_cast<size_t>(src)]
                                            : fn(r));
              }
              return o;
            }));
        ch.description += std::string(op) + " ";
        schema = std::move(out);
        break;
      }
      case 4:
      case 5: {  // unnest / outer-unnest
        const bool outer = kind == 5;
        const int bag = static_cast<int>(bags[rng() % bags.size()]);
        const bool with_id = outer && rng() % 2 == 0;
        const std::string id = with_id ? "id" + std::to_string(fresh++) : "";
        Schema out = runtime::UnnestedSchema(schema, bag, id).ValueOrDie();
        const size_t inner_width =
            out.size() - (with_id ? 1 : 0) - (schema.size() - 1);
        if (!outer) {
          ch.structured.push_back(RowTransform::Unnest("unnest", bag));
        } else {
          ch.structured.push_back(
              RowTransform::OuterUnnest("unnest", bag, with_id, inner_width));
        }
        if (with_id) {
          ch.opaque.push_back(ch.structured.back());
        } else {
          ch.opaque.push_back(RowTransform::FlatMap(
              "unnest", [bag, outer, inner_width](const Row& r,
                                                  std::vector<Row>* o) {
                OpaqueUnnest(r, bag, outer, inner_width, o);
              }));
        }
        ch.description += outer ? (with_id ? "outer_unnest_id " : "outer_unnest ")
                                : "unnest ";
        schema = std::move(out);
        break;
      }
      default: {  // add-index
        ch.structured.push_back(RowTransform::AddIndex("add_index"));
        ch.opaque.push_back(ch.structured.back());
        schema.Append({"idx" + std::to_string(fresh++), Type::Int()});
        ch.description += "add_index ";
        break;
      }
    }
  }
  ch.out_schema = std::move(schema);
  return ch;
}

struct ParityRun {
  Dataset out;
  StageStats stage;
};

ParityRun RunParityChain(const Dataset& in, const ParityChain& ch,
                         bool structured, int threads) {
  runtime::ClusterConfig cfg = Config(threads);
  cfg.num_partitions = static_cast<int>(kParityPartitions);
  runtime::Cluster cluster(cfg);
  auto out = runtime::RunStagePipeline(
      &cluster, in, ch.out_schema, structured ? ch.structured : ch.opaque,
      runtime::Partitioning::None(), "parity");
  TRANCE_CHECK(out.ok(), "parity chain failed");
  TRANCE_CHECK(cluster.stats().stages().size() == 1, "one stage per chain");
  return {std::move(out).value(), cluster.stats().stages().back()};
}

/// Rows, per-row bytes, block footprints and every StageStats field.
void ExpectParity(const ParityRun& a, const ParityRun& b) {
  ASSERT_EQ(a.out.NumPartitions(), b.out.NumPartitions());
  for (size_t p = 0; p < a.out.NumPartitions(); ++p) {
    ASSERT_EQ(a.out.PartitionRowCount(p), b.out.PartitionRowCount(p))
        << "partition " << p;
    for (size_t i = 0; i < a.out.PartitionRowCount(p); ++i) {
      const Row ra = a.out.RowAt(p, i);
      const Row rb = b.out.RowAt(p, i);
      EXPECT_TRUE(RowEquals(ra, rb)) << "partition " << p << " row " << i;
      EXPECT_EQ(RowToString(ra), RowToString(rb));
      EXPECT_EQ(a.out.store.block(p).RowBytesAt(i),
                b.out.store.block(p).RowBytesAt(i));
      EXPECT_EQ(a.out.store.block(p).RowBytesAt(i), RowDeepSize(ra));
    }
    EXPECT_EQ(a.out.store.block(p).ragged(), b.out.store.block(p).ragged());
    EXPECT_EQ(a.out.store.block(p).ByteFootprint(),
              b.out.store.block(p).ByteFootprint())
        << "partition " << p;
  }
  const StageStats& sa = a.stage;
  const StageStats& sb = b.stage;
  EXPECT_EQ(sa.op, sb.op);
  EXPECT_EQ(sa.rows_in, sb.rows_in);
  EXPECT_EQ(sa.rows_out, sb.rows_out);
  EXPECT_EQ(sa.total_work_bytes, sb.total_work_bytes);
  EXPECT_EQ(sa.max_partition_work_bytes, sb.max_partition_work_bytes);
  EXPECT_EQ(sa.partition_work_bytes, sb.partition_work_bytes);
  EXPECT_EQ(sa.mem_high_water_bytes, sb.mem_high_water_bytes);
  EXPECT_EQ(sa.intermediate_bytes_avoided, sb.intermediate_bytes_avoided);
  EXPECT_EQ(sa.sim_seconds, sb.sim_seconds);
  EXPECT_EQ(sa.columnar_bytes, sb.columnar_bytes);
  ASSERT_EQ(sa.fused_transforms.size(), sb.fused_transforms.size());
  for (size_t t = 0; t < sa.fused_transforms.size(); ++t) {
    EXPECT_EQ(sa.fused_transforms[t].op, sb.fused_transforms[t].op);
    EXPECT_EQ(sa.fused_transforms[t].rows_out,
              sb.fused_transforms[t].rows_out);
  }
}

TEST(CellRunnerParityTest, StructuredChainsMatchRowClosures) {
  size_t ragged_outputs = 0, nonempty_outputs = 0, multi_step = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed);
    const std::vector<std::vector<Row>> parts = RandomParityPartitions(rng);
    const ParityChain ch = RandomParityChain(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + ch.description);
    if (ch.structured.size() > 1) ++multi_step;
    const Dataset in = ParityInput(ParitySchema(), parts);
    ParityRun ref = RunParityChain(in, ch, true, 1);
    for (int threads : {1, 4}) {
      ExpectParity(ref, RunParityChain(in, ch, false, threads));
      if (threads > 1) ExpectParity(ref, RunParityChain(in, ch, true, threads));
    }
    if (ref.out.NumRows() > 0) ++nonempty_outputs;
    for (size_t p = 0; p < kParityPartitions; ++p) {
      if (ref.out.store.block(p).ragged()) {
        ++ragged_outputs;
        break;
      }
    }
  }
  // The generator must actually reach the interesting shapes (one run per
  // seed: at least half of the 60 chains produce rows).
  EXPECT_GT(multi_step, 30u);
  EXPECT_GT(nonempty_outputs, 30u);
  EXPECT_GT(ragged_outputs, 3u);
}

}  // namespace
}  // namespace trance
