// Tests for the exec layer: the scalar expression compiler (NULL
// propagation, label construction, block cells against borrowed cells), the
// value<->row bridge round-trips, and
// executor-level behaviours (broadcast threshold, program registry).
#include <gtest/gtest.h>

#include "exec/bridge.h"
#include "exec/lowering.h"
#include "exec/scalar_compiler.h"
#include "nrc/builder.h"
#include "plan/plan.h"
#include "runtime/column.h"
#include "runtime/stage_pipeline.h"
#include "util/random.h"

namespace trance {
namespace {

using namespace nrc::dsl;
using exec::CompileCellScalar;
using exec::ScalarResultType;
using nrc::Expr;
using nrc::Type;
using nrc::Value;
using runtime::Field;
using runtime::Row;
using runtime::Schema;

Schema TestSchema() {
  return Schema({{"a", Type::Int()},
                 {"b", Type::Real()},
                 {"s", Type::String()},
                 {"flag", Type::Bool()}});
}

/// Evaluates a compiled cell closure over cells borrowing `row`'s Fields.
Field Eval(const runtime::CellScalarFn& fn, const Row& row) {
  std::vector<runtime::Cell> cells;
  for (const Field& f : row.fields) cells.push_back(runtime::Cell::Borrow(&f));
  return fn(runtime::CellRow(cells.data(), cells.size()));
}

TEST(ScalarCompilerTest, ArithmeticAndTypes) {
  Schema schema = TestSchema();
  auto f = CompileCellScalar(Mul(Add(V("a"), I(1)), V("b")), schema);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  Row r({Field::Int(3), Field::Real(2.5), Field::Str("x"),
         Field::Bool(true)});
  EXPECT_DOUBLE_EQ(Eval(*f, r).AsReal(), 10.0);
  auto t = ScalarResultType(Mul(Add(V("a"), I(1)), V("b")), schema);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->scalar_kind(), nrc::ScalarKind::kReal);
  // Int-only arithmetic stays integral; division always real.
  auto g = CompileCellScalar(Add(V("a"), I(2)), schema);
  EXPECT_TRUE(Eval(*g, r).is_int());
  auto d = CompileCellScalar(Div(V("a"), I(2)), schema);
  EXPECT_TRUE(Eval(*d, r).is_real());
}

TEST(ScalarCompilerTest, NullPropagation) {
  Schema schema = TestSchema();
  Row null_row({Field::Null(), Field::Null(), Field::Null(), Field::Null()});
  // Arithmetic with NULL is NULL; comparisons with NULL are false.
  auto f = CompileCellScalar(Add(V("a"), I(1)), schema);
  EXPECT_TRUE(Eval(*f, null_row).is_null());
  auto c = CompileCellScalar(Eq(V("a"), I(0)), schema);
  EXPECT_FALSE(Eval(*c, null_row).AsBool());
  auto lt = CompileCellScalar(Lt(V("b"), R(1.0)), schema);
  EXPECT_FALSE(Eval(*lt, null_row).AsBool());
  // Division by zero yields NULL, not a crash.
  Row r({Field::Int(1), Field::Real(0.0), Field::Str(""), Field::Bool(false)});
  auto dz = CompileCellScalar(Div(V("a"), V("b")), schema);
  EXPECT_TRUE(Eval(*dz, r).is_null());
}

TEST(ScalarCompilerTest, MissingColumnFails) {
  auto f = CompileCellScalar(V("nope"), TestSchema());
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kKeyError);
}

TEST(ScalarCompilerTest, NewLabelBuildsRuntimeLabels) {
  Schema schema = TestSchema();
  auto f = CompileCellScalar(
      Expr::NewLabel({{"k", V("a")}, {"t", V("s")}}), schema);
  ASSERT_TRUE(f.ok());
  Row r1({Field::Int(7), Field::Real(0), Field::Str("x"), Field::Bool(true)});
  Row r2({Field::Int(7), Field::Real(9), Field::Str("x"), Field::Bool(false)});
  // Labels with equal captured values compare equal regardless of other
  // columns.
  EXPECT_EQ(Eval(*f, r1), Eval(*f, r2));
  Row r3({Field::Int(8), Field::Real(0), Field::Str("x"), Field::Bool(true)});
  EXPECT_NE(Eval(*f, r1), Eval(*f, r3));
}

TEST(ScalarCompilerTest, CellAccessorMatchesRowAdapter) {
  // The same compiled expressions evaluated on block cells and on borrowed
  // Fields must agree — including NULLs and a column demoted to variant
  // mid-block.
  Schema schema = TestSchema();
  std::vector<Row> rows{
      Row({Field::Int(3), Field::Real(2.5), Field::Str("x"), Field::Bool(true)}),
      Row({Field::Null(), Field::Real(0.0), Field::Null(), Field::Bool(false)}),
      Row({Field::Real(4.5), Field::Null(), Field::Str("yy"), Field::Null()})};
  auto block = runtime::column::PartitionBlock::FromRows(schema, rows);
  std::vector<nrc::ExprPtr> exprs = {
      Mul(Add(V("a"), I(1)), V("b")), Div(V("a"), V("b")), Eq(V("s"), S("x")),
      Lt(V("a"), R(4.0)), And(V("flag"), Lt(V("b"), R(1.0))),
      Expr::NewLabel({{"k", V("a")}, {"t", V("s")}}), V("s")};
  for (const auto& e : exprs) {
    auto fn = CompileCellScalar(e, schema);
    ASSERT_TRUE(fn.ok());
    for (size_t i = 0; i < rows.size(); ++i) {
      std::vector<runtime::Cell> block_cells;
      for (size_t c = 0; c < schema.size(); ++c) {
        block_cells.push_back(runtime::Cell::Block(&block.col(c), i));
      }
      Field from_block =
          (*fn)(runtime::CellRow(block_cells.data(), block_cells.size()));
      EXPECT_EQ(from_block.ToString(), Eval(*fn, rows[i]).ToString())
          << "row " << i;
    }
  }
}

TEST(BridgeTest, RowValueRoundTripFlat) {
  Schema schema = TestSchema();
  std::vector<Row> rows{
      Row({Field::Int(1), Field::Real(2.5), Field::Str("hi"),
           Field::Bool(true)}),
      Row({Field::Int(-3), Field::Real(0.0), Field::Str(""),
           Field::Bool(false)})};
  auto v = exec::RowsToValue(rows, schema);
  ASSERT_TRUE(v.ok());
  auto back = exec::ValueToRows(*v, schema);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(runtime::RowEquals(rows[i], (*back)[i]));
  }
}

TEST(BridgeTest, RowValueRoundTripNested) {
  Schema schema({{"k", Type::Int()},
                 {"bag", Type::Bag(Type::Tuple({{"x", Type::Int()},
                                                {"y", Type::String()}}))}});
  std::vector<Row> rows{
      Row({Field::Int(1),
           Field::Bag({Row({Field::Int(10), Field::Str("a")}),
                       Row({Field::Int(11), Field::Str("b")})})}),
      Row({Field::Int(2), Field::Bag(std::vector<Row>{})})};
  auto v = exec::RowsToValue(rows, schema);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  auto back = exec::ValueToRows(*v, schema);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(runtime::RowEquals(rows[i], (*back)[i]));
  }
}

TEST(BridgeTest, NullFieldsRejectedInConversion) {
  Schema schema({{"k", Type::Int()}});
  std::vector<Row> rows{Row({Field::Null()})};
  auto v = exec::RowsToValue(rows, schema);
  EXPECT_FALSE(v.ok());
}

TEST(ExecutorTest, BroadcastThresholdSelectsBroadcastJoin) {
  // With a generous threshold the executor lowers a join of a small right
  // side to a broadcast join (no left movement).
  runtime::ClusterConfig cfg{.num_partitions = 4};
  cfg.broadcast_threshold = 1ull << 20;
  runtime::Cluster cluster(cfg);
  exec::Executor ex(&cluster, {});
  Schema kv({{"k", Type::Int()}, {"v", Type::Int()}});
  std::vector<Row> lrows, rrows;
  for (int i = 0; i < 100; ++i) {
    lrows.push_back(Row({Field::Int(i % 10), Field::Int(i)}));
  }
  for (int i = 0; i < 10; ++i) {
    rrows.push_back(Row({Field::Int(i), Field::Int(i * 100)}));
  }
  ex.Register("L",
              runtime::Source(&cluster, kv, lrows, "L").ValueOrDie());
  ex.Register("R",
              runtime::Source(&cluster, kv, rrows, "R").ValueOrDie());
  auto plan = plan::PlanNode::Join(
      plan::PlanNode::Scan("L"), plan::PlanNode::Scan("R"), {"k"}, {"k"},
      false);
  cluster.stats().Reset();
  auto out = ex.ExecuteToDataset(plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumRows(), 100u);
  bool saw_broadcast = false;
  for (const auto& s : cluster.stats().stages()) {
    if (s.op.find("broadcast") != std::string::npos) saw_broadcast = true;
  }
  EXPECT_TRUE(saw_broadcast);
}

TEST(ExecutorTest, MissingRelationIsKeyError) {
  runtime::Cluster cluster(runtime::ClusterConfig{.num_partitions = 2});
  exec::Executor ex(&cluster, {});
  auto out = ex.ExecuteToDataset(plan::PlanNode::Scan("ghost"));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kKeyError);
}

}  // namespace
}  // namespace trance
