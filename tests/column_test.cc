// Columnar partition-block tests (ctest label `columnar`).
//
// Part 1 — randomized round-trip property: rows drawn over every Field kind
// (ints, reals including -0.0, bools, strings of odd lengths, NULLs,
// labels, nested bags, plus deliberate type-mismatches that demote a typed
// column to the variant fallback) survive FromRows -> RowAt / ToRows
// byte-identically, and the block's accounting mirrors the row path
// exactly: CellHash == Field::Hash, CellBytes == Field::DeepSize,
// RowBytesAt == RowDeepSize, HashRowsOn == RowHashOn. The column kernels
// match their row-level references: TotalRowBytes / RowBytesOfAll equal
// the RowDeepSize sums (after demotions, for string NULLs beside empty
// strings, and after a spill restore), and index gathers reproduce
// AppendRowFrom cell for cell and in ByteFootprint.
//
// Part 2 — the satellite APIs: KeyEncoder::EncodeAt / EncodeRowAt over the
// typed arrays produce byte- and hash-identical keys to Encode(RowAt(i))
// and reject bag cells alike; Schema::FromBagType rejects null and non-bag
// types with its documented TypeError and Schema::Require names the missing
// column and the schema; Partitioning::IsHashOn handles permutations and
// duplicate column lists on both the small (alloc-free) and large (sorted)
// paths; Dataset::Collect is thread-count invariant; PartitionStore serves
// rows and byte accounting from its blocks exactly as the input rows define
// them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/column.h"
#include "runtime/dataset.h"
#include "runtime/field.h"
#include "runtime/key_codec.h"
#include "runtime/schema.h"
#include "runtime/spill.h"
#include "util/random.h"

namespace trance {
namespace {

using runtime::Dataset;
using runtime::Field;
using runtime::Partitioning;
using runtime::Row;
using runtime::Schema;
using runtime::column::AnyColumn;
using runtime::column::PartitionBlock;
namespace key_codec = runtime::key_codec;

Schema MixedSchema() {
  return Schema({{"i", nrc::Type::Int()},
                 {"r", nrc::Type::Real()},
                 {"b", nrc::Type::Bool()},
                 {"s", nrc::Type::String()},
                 {"g", nrc::Type::Bag(nrc::Type::Tuple(
                           {{"x", nrc::Type::Int()}}))}});
}

/// A random field for column `col` of MixedSchema: mostly type-matching,
/// sometimes NULL, sometimes deliberately mismatched (forcing the variant
/// demotion path), including the hash edge cases (-0.0, empty strings).
Field RandomField(Rng* rng, size_t col) {
  if (rng->NextBool(0.15)) return Field::Null();
  if (rng->NextBool(0.1)) {
    // Type-unstable cell: legal in the row path, must demote losslessly.
    return Field::Str("stray-" + std::to_string(rng->Uniform(5)));
  }
  switch (col) {
    case 0:
      return Field::Int(static_cast<int64_t>(rng->NextU64()));
    case 1:
      if (rng->NextBool(0.1)) return Field::Real(-0.0);
      return Field::Real(rng->UniformReal(-1e6, 1e6));
    case 2:
      return Field::Bool(rng->NextBool());
    case 3:
      return Field::Str(rng->NextString(rng->Uniform(23)));
    default: {
      std::vector<Row> bag;
      for (uint64_t i = 0, n = rng->Uniform(3); i < n; ++i) {
        bag.push_back(Row({Field::Int(rng->UniformRange(0, 9))}));
      }
      return Field::Bag(std::move(bag));
    }
  }
}

std::vector<Row> RandomRows(Rng* rng, size_t n, size_t width) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Field> fields;
    for (size_t c = 0; c < width; ++c) fields.push_back(RandomField(rng, c));
    rows.push_back(Row(std::move(fields)));
  }
  return rows;
}

void ExpectRowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].fields.size(), b[i].fields.size()) << "row " << i;
    for (size_t f = 0; f < a[i].fields.size(); ++f) {
      EXPECT_EQ(a[i].fields[f], b[i].fields[f]) << "row " << i << " field "
                                                << f;
    }
  }
}

// --- Part 1: round-trip and accounting equivalence -----------------------

TEST(ColumnBlockTest, RandomizedRoundTripAndAccounting) {
  Schema schema = MixedSchema();
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<Row> rows = RandomRows(&rng, 500, schema.size());
    PartitionBlock block = PartitionBlock::FromRows(schema, rows);
    ASSERT_EQ(block.NumRows(), rows.size());
    EXPECT_EQ(block.NumCols(), schema.size());

    ExpectRowsEqual(block.ToRows(), rows);
    const std::vector<int> all_cols{0, 1, 2, 3, 4};
    const std::vector<uint64_t> all_hashes = block.HashRowsOn(all_cols);
    const std::vector<uint64_t> pair_hashes = block.HashRowsOn({3, 0});
    for (size_t i = 0; i < rows.size(); ++i) {
      Row back = block.RowAt(i);
      ASSERT_EQ(back.fields.size(), rows[i].fields.size()) << "row " << i;
      for (size_t c = 0; c < rows[i].fields.size(); ++c) {
        const Field& want = rows[i].fields[c];
        EXPECT_EQ(block.FieldAt(i, c), want) << "row " << i << " col " << c;
        EXPECT_EQ(block.IsNull(i, c), want.is_null());
        EXPECT_EQ(block.col(c).CellHash(i), want.Hash())
            << "row " << i << " col " << c;
        EXPECT_EQ(block.col(c).CellBytes(i), want.DeepSize())
            << "row " << i << " col " << c;
      }
      EXPECT_EQ(block.RowBytesAt(i), runtime::RowDeepSize(rows[i]));
      EXPECT_EQ(all_hashes[i], runtime::RowHashOn(rows[i], all_cols));
      EXPECT_EQ(pair_hashes[i], runtime::RowHashOn(rows[i], {3, 0}));
    }
  }
}

TEST(ColumnBlockTest, TypedColumnsUseFlatStorage) {
  Schema schema({{"k", nrc::Type::Int()}, {"v", nrc::Type::Real()}});
  PartitionBlock block(schema);
  for (int64_t i = 0; i < 100; ++i) {
    block.AppendRow(Row({Field::Int(i), Field::Real(i * 0.5)}));
  }
  ASSERT_EQ(block.col(0).kind(), AnyColumn::Kind::kInt64);
  ASSERT_EQ(block.col(1).kind(), AnyColumn::Kind::kReal);
  const int64_t* ks = block.col(0).ints();
  const double* vs = block.col(1).reals();
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ks[i], i);
    EXPECT_EQ(vs[i], i * 0.5);
  }
  EXPECT_GT(block.ByteFootprint(), 0u);
}

TEST(ColumnBlockTest, TypeMismatchDemotesToVariantLosslessly) {
  Schema schema({{"k", nrc::Type::Int()}});
  PartitionBlock block(schema);
  block.AppendRow(Row({Field::Int(1)}));
  block.AppendRow(Row({Field::Int(2)}));
  ASSERT_EQ(block.col(0).kind(), AnyColumn::Kind::kInt64);
  block.AppendRow(Row({Field::Str("not an int")}));
  EXPECT_EQ(block.col(0).kind(), AnyColumn::Kind::kVariant);
  EXPECT_EQ(block.FieldAt(0, 0), Field::Int(1));
  EXPECT_EQ(block.FieldAt(1, 0), Field::Int(2));
  EXPECT_EQ(block.FieldAt(2, 0), Field::Str("not an int"));
}

TEST(ColumnBlockTest, AppendRowFromMatchesAppendRow) {
  Schema schema = MixedSchema();
  Rng rng(77);
  std::vector<Row> rows = RandomRows(&rng, 200, schema.size());
  PartitionBlock src = PartitionBlock::FromRows(schema, rows);
  PartitionBlock via_copy(schema);
  PartitionBlock via_rows(schema);
  for (size_t i = 0; i < rows.size(); ++i) {
    via_copy.AppendRowFrom(src, i);
    via_rows.AppendRow(rows[i]);
  }
  ExpectRowsEqual(via_copy.ToRows(), rows);
  ExpectRowsEqual(via_rows.ToRows(), rows);
  EXPECT_EQ(via_copy.TotalRowBytes(), via_rows.TotalRowBytes());
}

TEST(ColumnBlockTest, NullBitmapTracksNulls) {
  Schema schema({{"s", nrc::Type::String()}});
  PartitionBlock block(schema);
  block.AppendRow(Row({Field::Str("x")}));
  block.AppendRow(Row({Field::Null()}));
  block.AppendRow(Row({Field::Str("")}));
  EXPECT_FALSE(block.IsNull(0, 0));
  EXPECT_TRUE(block.IsNull(1, 0));
  EXPECT_FALSE(block.IsNull(2, 0));
  EXPECT_EQ(block.FieldAt(1, 0), Field::Null());
  EXPECT_EQ(block.col(0).CellHash(1), Field::Null().Hash());
  EXPECT_EQ(block.col(0).CellBytes(1), Field::Null().DeepSize());
}

/// A schema with one column of every key-encodable kind plus a bag column
/// (which the codec must reject).
Schema KeySchema() {
  return Schema({{"i", nrc::Type::Int()},
                 {"r", nrc::Type::Real()},
                 {"b", nrc::Type::Bool()},
                 {"s", nrc::Type::String()},
                 {"l", nrc::Type::Label()},
                 {"g", nrc::Type::Bag(nrc::Type::Tuple(
                           {{"x", nrc::Type::Int()}}))}});
}

/// A random label: a null LabelPtr, a collapsed label (NewLabel over a
/// single label parameter), or a label over int/string/label parameters.
Field RandomLabel(Rng* rng, int depth) {
  switch (rng->Uniform(4)) {
    case 0:
      return Field::Label(nullptr);
    case 1:
      if (depth < 2) {
        return runtime::MakeLabel({{"inner", RandomLabel(rng, depth + 1)}});
      }
      [[fallthrough]];
    default: {
      std::vector<std::pair<std::string, Field>> params;
      for (uint64_t p = 0, n = rng->Uniform(3); p < n; ++p) {
        params.push_back({"p" + std::to_string(p),
                          p % 2 == 0 ? Field::Int(rng->UniformRange(0, 4))
                                     : Field::Str(rng->NextString(2))});
      }
      if (depth < 2 && rng->NextBool(0.3)) {
        params.push_back({"nested", RandomLabel(rng, depth + 1)});
      }
      return runtime::MakeLabel(std::move(params));
    }
  }
}

/// A random cell for column `col` of KeySchema over small domains (so keys
/// repeat); `stray` returns a value of another type, which demotes a typed
/// column to kVariant at that row.
Field RandomKeyField(Rng* rng, size_t col, bool stray) {
  if (stray) return col == 3 ? Field::Int(7) : Field::Str("stray");
  if (rng->NextBool(0.15)) return Field::Null();
  switch (col) {
    case 0:
      return Field::Int(rng->UniformRange(-3, 3));
    case 1: {
      const double picks[] = {-0.0, 0.0, 1.5, -2.25};
      return Field::Real(picks[rng->Uniform(4)]);
    }
    case 2:
      return Field::Bool(rng->NextBool());
    case 3:
      return Field::Str(rng->NextString(rng->Uniform(4)));
    case 4:
      return RandomLabel(rng, 0);
    default:
      return Field::Bag(std::vector<Row>{Row({Field::Int(1)})});
  }
}

/// A KeySchema block of n rows in which each column either stays typed or
/// demotes at a random row part-way through.
PartitionBlock RandomKeyBlock(Rng* rng, size_t n) {
  Schema schema = KeySchema();
  std::vector<size_t> demote_at(schema.size(), n);
  for (size_t c = 0; c < 4; ++c) {
    if (rng->NextBool(0.5)) demote_at[c] = n / 4 + rng->Uniform(n / 2);
  }
  PartitionBlock block(schema);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Field> fields;
    for (size_t c = 0; c < schema.size(); ++c) {
      fields.push_back(RandomKeyField(rng, c, i == demote_at[c]));
    }
    block.AppendRow(Row(std::move(fields)));
  }
  return block;
}

/// TotalRowBytes (O(columns)) == Σ RowBytesAt == Σ RowDeepSize(RowAt), and
/// RowBytesOfAll agrees with RowBytesAt row by row.
void ExpectTotalsMatchRows(const PartitionBlock& b, const std::string& what) {
  SCOPED_TRACE(what);
  const std::vector<uint64_t> each = b.RowBytesOfAll();
  ASSERT_EQ(each.size(), b.NumRows());
  uint64_t by_at = 0;
  uint64_t by_rows = 0;
  for (size_t i = 0; i < b.NumRows(); ++i) {
    EXPECT_EQ(each[i], b.RowBytesAt(i)) << "row " << i;
    by_at += b.RowBytesAt(i);
    by_rows += runtime::RowDeepSize(b.RowAt(i));
  }
  EXPECT_EQ(b.TotalRowBytes(), by_at);
  EXPECT_EQ(by_at, by_rows);
}

TEST(ColumnBlockTest, TotalRowBytesMatchesRowSum) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    // Mixed kinds with random mid-column demotions: the running total must
    // hold after every append, across each demotion.
    Schema schema = MixedSchema();
    PartitionBlock block(schema);
    uint64_t running = 0;
    for (const Row& r : RandomRows(&rng, 300, schema.size())) {
      block.AppendRow(r);
      running += runtime::RowDeepSize(r);
      ASSERT_EQ(block.TotalRowBytes(), running);
    }
    ExpectTotalsMatchRows(block, "mixed seed " + std::to_string(seed));
    ExpectTotalsMatchRows(RandomKeyBlock(&rng, 200),
                          "labels seed " + std::to_string(seed));
  }

  // String NULLs next to empty strings: 8 per NULL, 32 per (empty) value.
  Schema strs({{"s", nrc::Type::String()}, {"t", nrc::Type::String()}});
  PartitionBlock sb(strs);
  sb.AppendRow(Row({Field::Null(), Field::Str("")}));
  sb.AppendRow(Row({Field::Str(""), Field::Null()}));
  sb.AppendRow(Row({Field::Str("abc"), Field::Str("")}));
  sb.AppendRow(Row({Field::Null(), Field::Null()}));
  EXPECT_EQ(sb.col(0).TotalCellBytes(), 8u + 32u + 35u + 8u);
  EXPECT_EQ(sb.col(1).TotalCellBytes(), 32u + 8u + 32u + 8u);
  ExpectTotalsMatchRows(sb, "string nulls");
  ExpectTotalsMatchRows(PartitionBlock(strs), "empty block");

  // A block restored through a spill run keeps exact totals.
  Rng rng(9);
  Schema schema = MixedSchema();
  PartitionBlock src =
      PartitionBlock::FromRows(schema, RandomRows(&rng, 250, schema.size()));
  runtime::spill::SpillConfig cfg;
  cfg.dir = ::testing::TempDir();
  runtime::spill::SpillManager m(cfg);
  runtime::spill::SpillCounters c;
  const std::string path = m.RunPath(3, "totals", 0, 0);
  ASSERT_TRUE(m.WriteBlockRun(path, src, &c).ok());
  PartitionBlock restored(schema);
  Status s = m.ReadRunIntoBlock(path, &restored, &c);
  ASSERT_TRUE(s.ok()) << s.ToString();
  m.RemoveRun(path);
  ASSERT_EQ(restored.NumRows(), src.NumRows());
  EXPECT_EQ(restored.TotalRowBytes(), src.TotalRowBytes());
  ExpectTotalsMatchRows(restored, "restored");
}

/// Same cells (kinds included), per-row bytes, totals and footprint.
void ExpectBlocksSame(const PartitionBlock& got, const PartitionBlock& want) {
  ASSERT_EQ(got.NumRows(), want.NumRows());
  ASSERT_EQ(got.NumCols(), want.NumCols());
  for (size_t c = 0; c < got.NumCols(); ++c) {
    EXPECT_EQ(got.col(c).kind(), want.col(c).kind()) << "col " << c;
  }
  for (size_t i = 0; i < got.NumRows(); ++i) {
    for (size_t c = 0; c < got.NumCols(); ++c) {
      ASSERT_EQ(got.FieldAt(i, c), want.FieldAt(i, c))
          << "row " << i << " col " << c;
      ASSERT_EQ(got.IsNull(i, c), want.IsNull(i, c));
    }
    ASSERT_EQ(got.RowBytesAt(i), want.RowBytesAt(i)) << "row " << i;
  }
  EXPECT_EQ(got.TotalRowBytes(), want.TotalRowBytes());
  EXPECT_EQ(got.ByteFootprint(), want.ByteFootprint());
}

TEST(ColumnBlockTest, IndexGatherMatchesRowAppend) {
  // A column-wise gather must reproduce AppendRowFrom of the same rows,
  // footprint included: the columnar_bytes counter reads ByteFootprint, so
  // a gather that reserved (or otherwise grew storage differently) would
  // move it. Mixed-schema blocks demote most columns early (the per-cell
  // path); key blocks keep most columns typed (the typed copy loops).
  size_t typed_sources = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const bool mixed = seed % 2 == 1;
    const Schema schema = mixed ? MixedSchema() : KeySchema();
    PartitionBlock src =
        mixed ? PartitionBlock::FromRows(schema,
                                         RandomRows(&rng, 300, schema.size()))
              : RandomKeyBlock(&rng, 300);
    for (size_t c = 0; c < src.NumCols(); ++c) {
      typed_sources += src.col(c).kind() != AnyColumn::Kind::kVariant;
    }
    std::vector<uint32_t> idx;
    for (uint64_t k = 0, n = rng.Uniform(600); k < n; ++k) {
      idx.push_back(static_cast<uint32_t>(rng.Uniform(src.NumRows())));
    }
    // Both destinations start from the same prefix.
    const std::vector<Row> prefix =
        mixed ? RandomRows(&rng, rng.Uniform(20), schema.size())
              : RandomKeyBlock(&rng, 4 + rng.Uniform(16)).ToRows();
    PartitionBlock gathered = PartitionBlock::FromRows(schema, prefix);
    PartitionBlock appended = PartitionBlock::FromRows(schema, prefix);
    gathered.AppendGather(src, idx);
    for (uint32_t i : idx) appended.AppendRowFrom(src, i);
    ExpectBlocksSame(gathered, appended);

    // Whole-block concatenation.
    gathered.AppendBlock(src);
    for (size_t i = 0; i < src.NumRows(); ++i) appended.AppendRowFrom(src, i);
    ExpectBlocksSame(gathered, appended);

    // Column gathers with NULL pads (a left-outer join's right side).
    for (size_t c = 0; c < schema.size(); ++c) {
      std::vector<uint32_t> padded = idx;
      for (size_t k = 0; k < padded.size(); k += 3) {
        padded[k] = AnyColumn::kPadRow;
      }
      AnyColumn got(AnyColumn::KindForType(schema.col(c).type));
      AnyColumn want(AnyColumn::KindForType(schema.col(c).type));
      got.AppendGather(src.col(c), padded);
      for (uint32_t i : padded) {
        if (i == AnyColumn::kPadRow) {
          want.Append(Field::Null());
        } else {
          want.AppendFrom(src.col(c), i);
        }
      }
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(got.kind(), want.kind()) << "col " << c;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got.At(i), want.At(i)) << "col " << c << " cell " << i;
      }
      EXPECT_EQ(got.TotalCellBytes(), want.TotalCellBytes()) << "col " << c;
      EXPECT_EQ(got.ByteFootprint(), want.ByteFootprint()) << "col " << c;
    }
  }
  EXPECT_GT(typed_sources, 6u);
}

// --- Part 2: satellite APIs ----------------------------------------------

TEST(KeyEncoderColumnTest, EncodeAtMatchesEncodeOfRowAt) {
  // EncodeAt / EncodeRowAt read the typed arrays (variant cells by
  // reference); Encode over the materialized row is the reference. Bytes,
  // hash, the running bytes_encoded() and the bag rejection must agree.
  const std::vector<std::vector<int>> col_lists{
      {0, 1, 2, 3, 4}, {4, 1}, {3, 0, 2}, {1}, {5, 0}, {}};
  const std::vector<int> all_cols{0, 1, 2, 3, 4, 5};
  size_t demoted = 0, bag_errors = 0, encoded = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    PartitionBlock block = RandomKeyBlock(&rng, 240);
    for (size_t c = 0; c < 4; ++c) {
      demoted += block.col(c).kind() == AnyColumn::Kind::kVariant;
    }
    std::vector<std::vector<uint64_t>> list_hashes;
    for (const auto& cols : col_lists) {
      list_hashes.push_back(block.HashRowsOn(cols));
    }
    const std::vector<uint64_t> all_hashes = block.HashRowsOn(all_cols);
    key_codec::KeyEncoder at;
    key_codec::KeyEncoder ref;
    for (size_t i = 0; i < block.NumRows(); ++i) {
      const Row row = block.RowAt(i);
      auto check = [&](const StatusOr<key_codec::EncodedKeyView>& got,
                       const std::vector<int>& cols, uint64_t row_hash) {
        auto want = ref.Encode(row, cols);
        ASSERT_EQ(got.ok(), want.ok()) << "row " << i;
        if (!want.ok()) {
          ++bag_errors;
          EXPECT_EQ(got.status().code(), StatusCode::kTypeError);
          EXPECT_NE(got.status().message().find("keys must be flat"),
                    std::string::npos)
              << got.status().ToString();
          return;
        }
        ++encoded;
        EXPECT_EQ(got.value().hash, want.value().hash) << "row " << i;
        EXPECT_EQ(got.value().bytes, want.value().bytes) << "row " << i;
        EXPECT_EQ(got.value().hash, row_hash) << "row " << i;
      };
      for (size_t l = 0; l < col_lists.size(); ++l) {
        check(at.EncodeAt(block, i, col_lists[l]), col_lists[l],
              list_hashes[l][i]);
      }
      check(at.EncodeRowAt(block, i), all_cols, all_hashes[i]);
      ASSERT_EQ(at.bytes_encoded(), ref.bytes_encoded()) << "row " << i;
    }
  }
  // The sweep really covered demoted columns, encoded keys, and bag cells.
  EXPECT_GT(demoted, 0u);
  EXPECT_GT(encoded, 1000u);
  EXPECT_GT(bag_errors, 100u);
}

TEST(SchemaTest, FromBagTypeRejectsNullAndNonBag) {
  auto null_result = Schema::FromBagType(nullptr);
  ASSERT_FALSE(null_result.ok());
  EXPECT_NE(null_result.status().ToString().find(
                "Schema::FromBagType: not a bag type"),
            std::string::npos)
      << null_result.status().ToString();

  auto scalar_result = Schema::FromBagType(nrc::Type::Int());
  ASSERT_FALSE(scalar_result.ok());
  EXPECT_NE(scalar_result.status().ToString().find(
                "Schema::FromBagType: not a bag type"),
            std::string::npos)
      << scalar_result.status().ToString();

  auto tuple_result =
      Schema::FromBagType(nrc::Type::Tuple({{"a", nrc::Type::Int()}}));
  ASSERT_FALSE(tuple_result.ok());

  // Bag of scalars is accepted as the single anonymous "_value" column.
  auto bag_of_scalars = Schema::FromBagType(nrc::Type::Bag(nrc::Type::Int()));
  ASSERT_TRUE(bag_of_scalars.ok());
  ASSERT_EQ(bag_of_scalars->size(), 1u);
  EXPECT_EQ(bag_of_scalars->col(0).name, "_value");
}

TEST(SchemaTest, RequireNamesColumnAndSchemaInError) {
  Schema s({{"a", nrc::Type::Int()}, {"b", nrc::Type::String()}});
  ASSERT_TRUE(s.Require("a").ok());
  EXPECT_EQ(s.Require("b").ValueOrDie(), 1);
  auto missing = s.Require("zzz");
  ASSERT_FALSE(missing.ok());
  std::string msg = missing.status().ToString();
  EXPECT_NE(msg.find("schema has no column 'zzz'"), std::string::npos) << msg;
  // The error names the schema so the caller can see what was available.
  EXPECT_NE(msg.find("a: "), std::string::npos) << msg;
  EXPECT_NE(msg.find("b: "), std::string::npos) << msg;
}

TEST(PartitioningTest, IsHashOnHandlesPermutationsAndDuplicates) {
  Partitioning h = Partitioning::Hash({1, 3});
  EXPECT_TRUE(h.IsHashOn({1, 3}));
  EXPECT_TRUE(h.IsHashOn({3, 1}));
  EXPECT_FALSE(h.IsHashOn({1, 2}));
  EXPECT_FALSE(h.IsHashOn({1}));
  EXPECT_FALSE(h.IsHashOn({1, 3, 3}));
  EXPECT_FALSE(Partitioning::None().IsHashOn({1, 3}));

  // Duplicate-bearing lists: {1,1,2} is not a permutation of {1,2,2}.
  Partitioning dup = Partitioning::Hash({1, 1, 2});
  EXPECT_TRUE(dup.IsHashOn({1, 2, 1}));
  EXPECT_TRUE(dup.IsHashOn({2, 1, 1}));
  EXPECT_FALSE(dup.IsHashOn({1, 2, 2}));

  // > 4 columns exercises the sorted fallback path.
  Partitioning wide = Partitioning::Hash({5, 4, 3, 2, 1});
  EXPECT_TRUE(wide.IsHashOn({1, 2, 3, 4, 5}));
  EXPECT_TRUE(wide.IsHashOn({5, 4, 3, 2, 1}));
  EXPECT_FALSE(wide.IsHashOn({1, 2, 3, 4, 6}));
  Partitioning wide_dup = Partitioning::Hash({1, 1, 2, 3, 4});
  EXPECT_TRUE(wide_dup.IsHashOn({4, 3, 2, 1, 1}));
  EXPECT_FALSE(wide_dup.IsHashOn({4, 3, 2, 2, 1}));
}

Dataset MakeDataset(Rng* rng, size_t nparts, size_t rows_per) {
  Dataset d;
  d.schema = MixedSchema();
  d.store.InitBlocks(nparts, d.schema);
  for (size_t p = 0; p < nparts; ++p) {
    for (const Row& r : RandomRows(rng, rows_per, d.schema.size())) {
      d.store.block(p).AppendRow(r);
    }
  }
  return d;
}

TEST(DatasetTest, CollectIsThreadCountInvariant) {
  Rng rng(5);
  Dataset d = MakeDataset(&rng, 7, 100);
  std::vector<Row> serial = d.Collect();
  std::vector<Row> parallel4 = d.Collect(4);
  std::vector<Row> parallel8 = d.Collect(8);
  ASSERT_EQ(serial.size(), d.NumRows());
  ExpectRowsEqual(serial, parallel4);
  ExpectRowsEqual(serial, parallel8);
  // Partition order: partition p's rows precede partition p+1's.
  size_t at = 0;
  for (size_t p = 0; p < d.NumPartitions(); ++p) {
    for (const Row& r : d.PartitionRows(p)) {
      ASSERT_EQ(serial[at].fields.size(), r.fields.size());
      for (size_t f = 0; f < r.fields.size(); ++f) {
        EXPECT_EQ(serial[at].fields[f], r.fields[f]);
      }
      ++at;
    }
  }
}

TEST(PartitionStoreTest, RowsBlocksRoundTrip) {
  // The storage under Dataset: a row sequence appended to a partition's
  // block is served back identically through every accessor — RowCount,
  // RowAt, MaterializeRows, PartitionRowBytes (== the RowDeepSize sum) —
  // including empty partitions and rows that force the variant column
  // fallback (RandomRows mixes types and NULLs deliberately).
  Rng rng(11);
  Schema schema = MixedSchema();
  const size_t nparts = 5;
  runtime::PartitionStore store;
  store.InitBlocks(nparts, schema);
  std::vector<std::vector<Row>> expected(nparts);
  for (size_t p = 0; p < nparts; ++p) {
    // Partition 2 stays empty on purpose.
    if (p != 2) expected[p] = RandomRows(&rng, 60 + 10 * p, schema.size());
    for (const Row& r : expected[p]) store.block(p).AppendRow(r);
  }
  ASSERT_EQ(store.NumPartitions(), nparts);
  size_t total = 0;
  for (const auto& rows : expected) total += rows.size();
  EXPECT_EQ(store.NumRows(), total);
  for (size_t p = 0; p < nparts; ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    ASSERT_EQ(store.RowCount(p), expected[p].size());
    uint64_t bytes = 0;
    for (const Row& r : expected[p]) bytes += RowDeepSize(r);
    EXPECT_EQ(store.PartitionRowBytes(p), bytes);
    ExpectRowsEqual(store.MaterializeRows(p), expected[p]);
    for (size_t i = 0; i < store.RowCount(p); ++i) {
      ExpectRowsEqual({store.RowAt(p, i)}, {expected[p][i]});
    }
    // Clear empties the partition back to a schema-typed block.
    store.Clear(p);
    EXPECT_EQ(store.RowCount(p), 0u);
    EXPECT_EQ(store.block(p).NumCols(), schema.size());
  }
}

TEST(PartitionStoreTest, ByteAccountingParityBlockVsRow) {
  // Dataset::PartitionBytes / DeepSizeBytes report the RowDeepSize sums of
  // the rows the blocks hold (the O(columns) block totals mirror
  // RowDeepSize cell by cell). Randomized over the full Field-kind mix,
  // variant column demotions included.
  Rng rng(12);
  Schema schema = MixedSchema();
  const size_t nparts = 6;
  Dataset by_blocks;
  by_blocks.schema = schema;
  by_blocks.store.InitBlocks(nparts, schema);
  std::vector<uint64_t> row_bytes(nparts, 0);
  uint64_t total = 0;
  for (size_t p = 0; p < nparts; ++p) {
    for (const Row& r : RandomRows(&rng, 40 + 17 * p, schema.size())) {
      by_blocks.store.block(p).AppendRow(r);
      row_bytes[p] += RowDeepSize(r);
    }
    total += row_bytes[p];
  }
  EXPECT_EQ(by_blocks.PartitionBytes(), row_bytes);
  EXPECT_EQ(by_blocks.DeepSizeBytes(), total);
}

}  // namespace
}  // namespace trance
