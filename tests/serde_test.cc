// Binary spill-format round-trip and corruption tests (ctest label `serde`).
//
// The runtime/serde.h wire format (docs/STORAGE.md) must round-trip every
// Field value bit-exactly — nulls, int64 extremes, exact IEEE doubles (NaN
// payloads included), strings, bools, recursive labels, recursive bags — in
// both record kinds (row batches and columnar blocks, with null bitmaps and
// the variant fallback). And it must reject, with a clean
// Status (never a crash, never partial rows), every malformed input we can
// produce: truncation at any byte, single-byte corruption anywhere in the
// file, checksum tampering, a bad magic, and a version from the future.
// Block records with every column kind are also read through ReadBatchInto
// (the block-resident restore), which must leave its destination untouched
// on failure — including for corruption behind a recomputed checksum, a set
// block flag byte, and records whose width is not the destination's.
// Bags memoize their deep size when built, and ParseField rebuilds them
// through Field::Bag: the memo must equal a recursive walk before and after
// a round trip.
#include "runtime/serde.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "runtime/column.h"
#include "runtime/field.h"
#include "runtime/schema.h"

namespace trance {
namespace runtime {
namespace {

namespace serde = ::trance::runtime::serde;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/trance_serde_" + name + ".trs";
}

// Field equality that is stricter than operator== where the format promises
// more: reals compare by bit pattern (NaN payloads and -0.0 vs 0.0 survive
// the disk), and int must come back as int (no numeric coercion).
void ExpectFieldBitEq(const Field& a, const Field& b, const std::string& at) {
  if (a.is_real() || b.is_real()) {
    ASSERT_TRUE(a.is_real() && b.is_real()) << at;
    uint64_t ba = 0, bb = 0;
    double va = a.AsReal(), vb = b.AsReal();
    std::memcpy(&ba, &va, sizeof(ba));
    std::memcpy(&bb, &vb, sizeof(bb));
    EXPECT_EQ(ba, bb) << at;
    return;
  }
  if (a.is_int() || b.is_int()) {
    ASSERT_TRUE(a.is_int() && b.is_int()) << at;
    EXPECT_EQ(a.AsInt(), b.AsInt()) << at;
    return;
  }
  if (a.is_label() && b.is_label() && a.AsLabel() != nullptr &&
      b.AsLabel() != nullptr) {
    const auto& pa = a.AsLabel()->params;
    const auto& pb = b.AsLabel()->params;
    ASSERT_EQ(pa.size(), pb.size()) << at;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].first, pb[i].first) << at;
      ExpectFieldBitEq(pa[i].second, pb[i].second,
                       at + ".label[" + pa[i].first + "]");
    }
    return;
  }
  if (a.is_bag() && b.is_bag() && a.AsBag() != nullptr && b.AsBag() != nullptr) {
    const auto& ra = *a.AsBag();
    const auto& rb = *b.AsBag();
    ASSERT_EQ(ra.size(), rb.size()) << at;
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i].fields.size(), rb[i].fields.size()) << at;
      for (size_t f = 0; f < ra[i].fields.size(); ++f) {
        ExpectFieldBitEq(ra[i].fields[f], rb[i].fields[f],
                         at + ".bag[" + std::to_string(i) + "][" +
                             std::to_string(f) + "]");
      }
    }
    return;
  }
  EXPECT_TRUE(a == b) << at;
}

void ExpectRowsBitEq(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].fields.size(), b[i].fields.size()) << "row " << i;
    for (size_t f = 0; f < a[i].fields.size(); ++f) {
      ExpectFieldBitEq(a[i].fields[f], b[i].fields[f],
                       "row " + std::to_string(i) + " field " +
                           std::to_string(f));
    }
  }
}

// --- randomized field generator ------------------------------------------

Field RandomField(std::mt19937_64* rng, int depth);

Row RandomRow(std::mt19937_64* rng, int depth, size_t width) {
  Row r;
  r.fields.reserve(width);
  for (size_t i = 0; i < width; ++i) r.fields.push_back(RandomField(rng, depth));
  return r;
}

Field RandomField(std::mt19937_64* rng, int depth) {
  // Nested kinds (label/bag) only while depth remains.
  int max_kind = depth > 0 ? 6 : 4;
  switch (static_cast<int>((*rng)() % (max_kind + 1))) {
    case 0:
      return Field::Null();
    case 1:
      return Field::Int(static_cast<int64_t>((*rng)()));
    case 2: {
      uint64_t bits = (*rng)();
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      if (std::isnan(v)) v = 0.5;  // keep operator==-comparable in bags
      return Field::Real(v);
    }
    case 3: {
      size_t len = (*rng)() % 40;
      std::string s;
      s.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>((*rng)() % 256));  // binary-safe
      }
      return Field::Str(std::move(s));
    }
    case 4:
      return Field::Bool(((*rng)() & 1) != 0);
    case 5: {
      auto label = std::make_shared<RtLabel>();
      size_t n = (*rng)() % 3;
      for (size_t i = 0; i < n; ++i) {
        label->params.emplace_back("p" + std::to_string(i),
                                   RandomField(rng, depth - 1));
      }
      return Field::Label(std::move(label));
    }
    default: {
      std::vector<Row> rows;
      size_t n = (*rng)() % 4;
      for (size_t i = 0; i < n; ++i) {
        rows.push_back(RandomRow(rng, depth - 1, 1 + (*rng)() % 3));
      }
      return Field::Bag(std::move(rows));
    }
  }
}

// gtest ASSERT macros return void; tiny shim for use inside ReadAll.
#define ASSERT_TRUE_OR_RETURN(expr)                            \
  do {                                                         \
    if (!(expr).ok()) {                                        \
      ADD_FAILURE() << (expr).status().ToString();             \
      return out;                                              \
    }                                                          \
  } while (0)

std::vector<Row> ReadAll(const std::string& path,
                         std::vector<uint8_t>* kinds = nullptr) {
  serde::BlockFileReader reader;
  Status open = reader.Open(path);
  EXPECT_TRUE(open.ok()) << open.ToString();
  std::vector<Row> out;
  for (;;) {
    uint8_t kind = 0;
    auto more = reader.ReadBatch(&out, &kind);
    ASSERT_TRUE_OR_RETURN(more);
    if (!more.value()) break;
    if (kinds != nullptr) kinds->push_back(kind);
  }
  EXPECT_TRUE(reader.Close().ok());
  return out;
}

// --- round trips ----------------------------------------------------------

TEST(SerdeRoundTripTest, ScalarExtremes) {
  std::vector<Row> rows;
  Row r;
  r.fields = {
      Field::Null(),
      Field::Int(std::numeric_limits<int64_t>::min()),
      Field::Int(std::numeric_limits<int64_t>::max()),
      Field::Int(0),
      Field::Real(0.0),
      Field::Real(-0.0),
      Field::Real(std::numeric_limits<double>::infinity()),
      Field::Real(-std::numeric_limits<double>::infinity()),
      Field::Real(std::numeric_limits<double>::quiet_NaN()),
      Field::Real(std::numeric_limits<double>::denorm_min()),
      Field::Real(std::numeric_limits<double>::max()),
      Field::Str(""),
      Field::Str(std::string(100000, 'x')),
      Field::Str(std::string("\0\x01\xff binary \n", 12)),
      Field::Bool(true),
      Field::Bool(false),
  };
  rows.push_back(std::move(r));

  std::string path = TestPath("scalars");
  serde::BlockFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.WriteRows(rows).ok());
  ASSERT_TRUE(writer.Close().ok());

  std::vector<uint8_t> kinds;
  std::vector<Row> back = ReadAll(path, &kinds);
  ASSERT_EQ(kinds, std::vector<uint8_t>{serde::kRecordRowBatch});
  ExpectRowsBitEq(rows, back);
  std::remove(path.c_str());
}

TEST(SerdeRoundTripTest, RecursiveLabelsAndBags) {
  auto inner = std::make_shared<RtLabel>();
  inner->params.emplace_back("k", Field::Int(7));
  auto outer = std::make_shared<RtLabel>();
  outer->params.emplace_back("nested", Field::Label(inner));
  outer->params.emplace_back("s", Field::Str("label-param"));

  std::vector<Row> bag_inner;
  bag_inner.push_back(Row{{Field::Int(1), Field::Str("a")}});
  bag_inner.push_back(Row{{Field::Int(2), Field::Null()}});
  std::vector<Row> bag_outer;
  bag_outer.push_back(Row{{Field::Bag(bag_inner), Field::Bool(true)}});

  std::vector<Row> rows;
  rows.push_back(Row{{Field::Label(outer), Field::Bag(bag_outer),
                      Field::Label(nullptr), Field::Bag(std::vector<Row>{})}});

  std::string path = TestPath("recursive");
  serde::BlockFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.WriteRows(rows).ok());
  ASSERT_TRUE(writer.Close().ok());

  std::vector<Row> back = ReadAll(path);
  ASSERT_EQ(back.size(), 1u);
  // A null LabelPtr comes back as an empty label; a null BagPtr as an empty
  // bag — value-equal under operator== either way.
  EXPECT_TRUE(rows[0].fields[0] == back[0].fields[0]);
  EXPECT_TRUE(rows[0].fields[1] == back[0].fields[1]);
  EXPECT_TRUE(back[0].fields[2].is_label());
  EXPECT_TRUE(back[0].fields[3].is_bag());
  std::remove(path.c_str());
}

TEST(SerdeRoundTripTest, RandomRowBatchesManySeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<Row> rows;
    size_t n = 1 + rng() % 50;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(RandomRow(&rng, 2, rng() % 6));
    }
    std::string path = TestPath("random" + std::to_string(seed));
    serde::BlockFileWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    // Split into several records to exercise framing.
    size_t half = rows.size() / 2;
    std::vector<Row> first(rows.begin(), rows.begin() + half);
    std::vector<Row> second(rows.begin() + half, rows.end());
    ASSERT_TRUE(writer.WriteRows(first).ok());
    ASSERT_TRUE(writer.WriteRows(second).ok());
    uint64_t written = writer.bytes_written();
    ASSERT_TRUE(writer.Close().ok());

    serde::BlockFileReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    std::vector<Row> back;
    for (;;) {
      auto more = reader.ReadBatch(&back);
      ASSERT_TRUE(more.ok()) << "seed " << seed << ": "
                             << more.status().ToString();
      if (!more.value()) break;
    }
    // A full scan consumes exactly the bytes the writer produced.
    EXPECT_EQ(reader.bytes_read(), written) << "seed " << seed;
    ASSERT_TRUE(reader.Close().ok());
    ExpectRowsBitEq(rows, back);
    std::remove(path.c_str());
  }
}

// Reference sizing for the bag-size memo: the recursive walk Field::DeepSize
// did before bags memoized their deep size at construction.
uint64_t RefRowBytes(const Row& r);

uint64_t RefFieldBytes(const Field& f) {
  if (f.is_string()) return 32 + f.AsString().size();
  if (f.is_label()) {
    uint64_t s = 16;
    if (f.AsLabel() != nullptr) {
      for (const auto& [n, v] : f.AsLabel()->params) s += 8 + RefFieldBytes(v);
    }
    return s;
  }
  if (f.is_bag()) {
    uint64_t s = 32;
    if (f.AsBag() != nullptr) {
      for (const Row& r : *f.AsBag()) s += RefRowBytes(r);
    }
    return s;
  }
  return 8;
}

uint64_t RefRowBytes(const Row& r) {
  uint64_t s = 8;
  for (const Field& f : r.fields) s += RefFieldBytes(f);
  return s;
}

/// A random nested value: bags up to `depth` levels deep (empty bags and
/// null BagPtrs included), labels inside bags (some over nested labels),
/// strings of varying length, NULLs and scalars.
Field RandomNestedField(std::mt19937_64& rng, int depth) {
  switch (rng() % (depth > 0 ? 7 : 5)) {
    case 0: return Field::Null();
    case 1: return Field::Int(static_cast<int64_t>(rng()));
    case 2: return Field::Str(std::string(rng() % 40, 'n'));
    case 3: {
      if (rng() % 6 == 0) return Field::Label(nullptr);
      std::vector<std::pair<std::string, Field>> params;
      params.emplace_back("k", Field::Int(static_cast<int64_t>(rng() % 9)));
      if (depth > 0 && rng() % 2 == 0) {
        params.emplace_back("inner", RandomNestedField(rng, depth - 1));
      }
      return MakeLabel(std::move(params));
    }
    case 4: return Field::Real(0.25 * static_cast<double>(rng() % 17));
    default: {
      if (rng() % 8 == 0) return Field::Bag(BagPtr());
      std::vector<Row> rows;
      for (size_t n = rng() % 4; n > 0; --n) {
        Row r;
        for (size_t w = 1 + rng() % 3; w > 0; --w) {
          r.fields.push_back(RandomNestedField(rng, depth - 1));
        }
        rows.push_back(std::move(r));
      }
      return Field::Bag(std::move(rows));
    }
  }
}

TEST(BagDeepSizeMemoTest, MatchesRecursiveWalkAndSurvivesSerde) {
  size_t deep_bags = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    Row row;
    for (size_t c = 0; c < 4; ++c) row.fields.push_back(RandomNestedField(rng, 4));
    row.fields.push_back(Field::Bag(BagPtr()));
    row.fields.push_back(Field::Bag(std::vector<Row>{}));
    for (const Field& f : row.fields) {
      ASSERT_EQ(f.DeepSize(), RefFieldBytes(f)) << "seed " << seed;
      if (f.is_bag() && f.DeepSize() > 256) ++deep_bags;
    }
    ASSERT_EQ(RowDeepSize(row), RefRowBytes(row)) << "seed " << seed;

    // ParseField rebuilds every bag through Field::Bag: the memo is
    // recomputed and must agree with the walk and with the original (a null
    // BagPtr / LabelPtr comes back empty, which sizes the same).
    std::string payload;
    for (const Field& f : row.fields) serde::AppendField(f, &payload);
    size_t pos = 0;
    Row back;
    for (size_t c = 0; c < row.fields.size(); ++c) {
      Field f;
      ASSERT_TRUE(serde::ParseField(payload.data(), payload.size(), &pos, &f)
                      .ok());
      back.fields.push_back(std::move(f));
    }
    EXPECT_EQ(pos, payload.size());
    for (size_t c = 0; c < row.fields.size(); ++c) {
      EXPECT_EQ(back.fields[c].DeepSize(), RefFieldBytes(back.fields[c]));
      EXPECT_EQ(back.fields[c].DeepSize(), row.fields[c].DeepSize());
    }
    EXPECT_EQ(RowDeepSize(back), RowDeepSize(row));
  }
  EXPECT_GT(deep_bags, 20u);
}

TEST(SerdeRoundTripTest, TypedBlockWithNullsAndVariants) {
  Schema schema({{"i", nrc::Type::Int()},
                 {"r", nrc::Type::Real()},
                 {"b", nrc::Type::Bool()},
                 {"s", nrc::Type::String()},
                 {"g", nrc::Type::Bag(
                           nrc::Type::Tuple({{"x", nrc::Type::Int()}}))}});
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    Row r;
    r.fields.push_back(i % 7 == 0 ? Field::Null() : Field::Int(i * 1000));
    r.fields.push_back(i % 5 == 0 ? Field::Null() : Field::Real(i * 0.25));
    r.fields.push_back(i % 3 == 0 ? Field::Null() : Field::Bool(i % 2 == 0));
    r.fields.push_back(i % 11 == 0 ? Field::Null()
                                   : Field::Str("row" + std::to_string(i)));
    std::vector<Row> bag;
    if (i % 4 != 0) bag.push_back(Row{{Field::Int(i)}});
    r.fields.push_back(Field::Bag(std::move(bag)));
    rows.push_back(std::move(r));
  }
  column::PartitionBlock block = column::PartitionBlock::FromRows(schema, rows);
  ASSERT_EQ(block.NumCols(), schema.size());

  std::string path = TestPath("block");
  serde::BlockFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.WriteBlock(block).ok());
  ASSERT_TRUE(writer.Close().ok());

  std::vector<uint8_t> kinds;
  std::vector<Row> back = ReadAll(path, &kinds);
  ASSERT_EQ(kinds, std::vector<uint8_t>{serde::kRecordBlock});
  // The materialized rows must match what the in-memory block materializes.
  std::vector<Row> expected;
  block.AppendRowsTo(&expected);
  ExpectRowsBitEq(expected, back);
  std::remove(path.c_str());
}

TEST(SerdeRoundTripTest, MixedRecordKindsInOneFile) {
  Schema schema({{"k", nrc::Type::Int()}});
  std::vector<Row> batch{Row{{Field::Int(10)}}, Row{{Field::Int(20)}}};
  column::PartitionBlock block = column::PartitionBlock::FromRows(
      schema, {Row{{Field::Int(30)}}, Row{{Field::Int(40)}}});

  std::string path = TestPath("mixed");
  serde::BlockFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.WriteRows(batch).ok());
  ASSERT_TRUE(writer.WriteBlock(block).ok());
  ASSERT_TRUE(writer.WriteRows(batch).ok());
  ASSERT_TRUE(writer.Close().ok());

  std::vector<uint8_t> kinds;
  std::vector<Row> back = ReadAll(path, &kinds);
  EXPECT_EQ(kinds, (std::vector<uint8_t>{serde::kRecordRowBatch,
                                         serde::kRecordBlock,
                                         serde::kRecordRowBatch}));
  ASSERT_EQ(back.size(), 6u);
  EXPECT_EQ(back[2].fields[0].AsInt(), 30);
  EXPECT_EQ(back[5].fields[0].AsInt(), 20);
  std::remove(path.c_str());
}

// --- corruption / truncation ----------------------------------------------

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Reads the whole file; returns the first non-OK status, or OK if the file
/// parses end to end. Must never crash, whatever the bytes.
Status TryReadAll(const std::string& path) {
  serde::BlockFileReader reader;
  Status open = reader.Open(path);
  if (!open.ok()) return open;
  std::vector<Row> out;
  for (;;) {
    auto more = reader.ReadBatch(&out);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
  }
  return reader.Close();
}

std::string WriteSampleFile(const std::string& name) {
  std::vector<Row> rows;
  rows.push_back(Row{{Field::Int(42), Field::Str("hello"), Field::Bool(true),
                      Field::Real(3.25), Field::Null()}});
  rows.push_back(Row{{Field::Int(-1), Field::Str(""), Field::Bool(false),
                      Field::Real(-0.5),
                      Field::Bag({Row{{Field::Int(9)}}})}});
  std::string path = TestPath(name);
  serde::BlockFileWriter writer;
  EXPECT_TRUE(writer.Open(path).ok());
  EXPECT_TRUE(writer.WriteRows(rows).ok());
  EXPECT_TRUE(writer.Close().ok());
  return path;
}

/// Schema of the block sample: one column of every storage kind, plus an
/// int column demoted to variant mid-block.
Schema BlockSampleSchema() {
  return Schema({{"i", nrc::Type::Int()},
                 {"r", nrc::Type::Real()},
                 {"b", nrc::Type::Bool()},
                 {"s", nrc::Type::String()},
                 {"l", nrc::Type::Label()},
                 {"d", nrc::Type::Int()}});
}

/// Rows of the block sample; 70 rows, so every null bitmap spans two words.
std::vector<Row> BlockSampleRows() {
  std::vector<Row> rows;
  for (int i = 0; i < 70; ++i) {
    Row r;
    r.fields.push_back(i % 9 == 0 ? Field::Null() : Field::Int(i * 3));
    r.fields.push_back(i % 7 == 0 ? Field::Null() : Field::Real(i * 0.5));
    r.fields.push_back(i % 5 == 0 ? Field::Null() : Field::Bool(i % 2 == 0));
    r.fields.push_back(i % 11 == 0 ? Field::Null()
                                   : Field::Str("s" + std::to_string(i)));
    r.fields.push_back(i % 13 == 0 ? Field::Null()
                                   : MakeLabel({{"k", Field::Int(i)}}));
    r.fields.push_back(i == 40 ? Field::Str("demote") : Field::Int(-i));
    rows.push_back(std::move(r));
  }
  return rows;
}

/// One block record holding BlockSampleRows.
std::string BlockSamplePayload() {
  column::PartitionBlock block =
      column::PartitionBlock::FromRows(BlockSampleSchema(), BlockSampleRows());
  std::string payload;
  serde::AppendBlockPayload(block, &payload);
  return payload;
}

/// A whole file: header plus one correctly framed and checksummed record.
std::string FramedFile(uint8_t kind, const std::string& payload) {
  std::string bytes;
  uint32_t magic = serde::kMagic;
  uint16_t version = serde::kFormatVersion, flags = 0;
  bytes.append(reinterpret_cast<const char*>(&magic), 4);
  bytes.append(reinterpret_cast<const char*>(&version), 2);
  bytes.append(reinterpret_cast<const char*>(&flags), 2);
  bytes.push_back(static_cast<char>(kind));
  uint64_t len = payload.size();
  bytes.append(reinterpret_cast<const char*>(&len), 8);
  bytes.append(payload);
  uint64_t sum = serde::Fnv1a64(payload.data(), payload.size());
  bytes.append(reinterpret_cast<const char*>(&sum), 8);
  return bytes;
}

/// A non-empty restore destination over the sample schema.
column::PartitionBlock SampleDestination() {
  std::vector<Row> rows = BlockSampleRows();
  rows.resize(3);
  return column::PartitionBlock::FromRows(BlockSampleSchema(), rows);
}

/// Reads the whole file into a non-empty block through ReadBatchInto, the
/// block-resident restore. Every failure must be a named serde Status and
/// must leave the destination exactly as it was before the failing call.
Status TryReadAllInto(const std::string& path) {
  column::PartitionBlock dest = SampleDestination();
  serde::BlockFileReader reader;
  Status open = reader.Open(path);
  if (!open.ok()) return open;
  for (;;) {
    const size_t rows = dest.NumRows();
    const uint64_t footprint = dest.ByteFootprint();
    auto more = reader.ReadBatchInto(&dest);
    if (!more.ok()) {
      EXPECT_EQ(dest.NumRows(), rows) << more.status().ToString();
      EXPECT_EQ(dest.ByteFootprint(), footprint) << more.status().ToString();
      EXPECT_TRUE(more.status().code() == StatusCode::kInvalidArgument)
          << more.status().ToString();
      EXPECT_EQ(more.status().message().rfind("serde: ", 0), 0u)
          << more.status().ToString();
      return more.status();
    }
    if (!more.value()) break;
  }
  return reader.Close();
}

TEST(SerdeCorruptionTest, TruncationAtEveryByteIsCleanlyRejected) {
  std::string path = WriteSampleFile("trunc");
  std::string bytes = SlurpFile(path);
  ASSERT_GT(bytes.size(), 8u);
  std::string tpath = TestPath("trunc_cut");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    DumpFile(tpath, bytes.substr(0, cut));
    Status s = TryReadAll(tpath);
    if (cut == 8) {
      // The one valid prefix: a bare header is a legal empty file.
      EXPECT_TRUE(s.ok()) << s.ToString();
      continue;
    }
    // Every other strict prefix is invalid: the record trailer is
    // load-bearing, so even a cut at a frame boundary loses the checksum.
    EXPECT_FALSE(s.ok()) << "prefix of " << cut << " bytes parsed";
  }

  // A block record with every column kind, cut at every byte of the file,
  // through both readers.
  const std::string payload = BlockSamplePayload();
  bytes = FramedFile(serde::kRecordBlock, payload);
  DumpFile(tpath, bytes);
  ASSERT_TRUE(TryReadAll(tpath).ok());
  ASSERT_TRUE(TryReadAllInto(tpath).ok());
  for (size_t cut = 9; cut < bytes.size(); ++cut) {
    DumpFile(tpath, bytes.substr(0, cut));
    EXPECT_FALSE(TryReadAll(tpath).ok()) << "prefix of " << cut;
    EXPECT_FALSE(TryReadAllInto(tpath).ok()) << "prefix of " << cut;
  }
  // Payload cuts behind a correct frame and checksum: the record parser's
  // own bounds checks must reject every strict prefix of the payload.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    DumpFile(tpath, FramedFile(serde::kRecordBlock, payload.substr(0, cut)));
    EXPECT_FALSE(TryReadAll(tpath).ok()) << "payload prefix of " << cut;
    EXPECT_FALSE(TryReadAllInto(tpath).ok()) << "payload prefix of " << cut;
  }
  std::remove(path.c_str());
  std::remove(tpath.c_str());
}

TEST(SerdeCorruptionTest, SingleByteFlipsNeverCrashAndMostlyFail) {
  std::string path = WriteSampleFile("flip");
  std::string bytes = SlurpFile(path);
  std::string fpath = TestPath("flip_one");
  size_t rejected = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    DumpFile(fpath, corrupt);
    Status s = TryReadAll(fpath);  // must not crash; usually must fail
    if (!s.ok()) ++rejected;
  }
  // The checksum covers the payload and the header is validated, so nearly
  // every flip is caught. (Flips inside the length field can produce a
  // shorter-but-self-consistent frame only by checksum collision.)
  EXPECT_GE(rejected, bytes.size() - 2) << "of " << bytes.size();

  // The same for a block record with every column kind, through both
  // readers.
  const std::string payload = BlockSamplePayload();
  bytes = FramedFile(serde::kRecordBlock, payload);
  size_t rejected_rows = 0, rejected_into = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    DumpFile(fpath, corrupt);
    if (!TryReadAll(fpath).ok()) ++rejected_rows;
    if (!TryReadAllInto(fpath).ok()) ++rejected_into;
  }
  EXPECT_GE(rejected_rows, bytes.size() - 2) << "of " << bytes.size();
  EXPECT_GE(rejected_into, bytes.size() - 2) << "of " << bytes.size();

  // Flips behind a recomputed checksum reach the record parser itself. A
  // flip inside a value may still decode (to different data); a flip in the
  // structure must fail cleanly — never crash, never touch the destination
  // (TryReadAllInto checks) — and the two readers must agree.
  size_t structural = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string corrupt = payload;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    DumpFile(fpath, FramedFile(serde::kRecordBlock, corrupt));
    Status rows = TryReadAll(fpath);
    Status into = TryReadAllInto(fpath);
    EXPECT_EQ(rows.ok(), into.ok()) << "flip at payload byte " << i;
    if (!into.ok()) ++structural;
  }
  EXPECT_GT(structural, 0u);
  std::remove(path.c_str());
  std::remove(fpath.c_str());
}

TEST(SerdeCorruptionTest, BlockFlagAndWidthMismatchAreRejected) {
  // The block flag byte must be 0: a record with it set is corrupt to both
  // readers, even behind a valid frame and checksum. ReadBatchInto also
  // rejects a block record, or a row-batch row, whose width is not the
  // destination's. Each failure names what it rejected and leaves the
  // destination unchanged (TryReadAllInto checks).
  std::string path = TestPath("reject");
  std::string flagged = BlockSamplePayload();
  flagged[12] = 1;  // after u32 num_cols and u64 num_rows
  DumpFile(path, FramedFile(serde::kRecordBlock, flagged));
  Status rows = TryReadAll(path);
  Status into = TryReadAllInto(path);
  EXPECT_EQ(rows.code(), StatusCode::kInvalidArgument) << rows.ToString();
  EXPECT_NE(rows.message().find("flag byte 1"), std::string::npos)
      << rows.ToString();
  EXPECT_EQ(into.message(), rows.message());

  // A block record two columns wide, into the six-column destination.
  std::string narrow;
  serde::AppendBlockPayload(
      column::PartitionBlock::FromRows(
          Schema({{"i", nrc::Type::Int()}, {"r", nrc::Type::Real()}}),
          {Row{{Field::Int(1), Field::Real(2.0)}}}),
      &narrow);
  DumpFile(path, FramedFile(serde::kRecordBlock, narrow));
  EXPECT_TRUE(TryReadAll(path).ok());
  into = TryReadAllInto(path);
  EXPECT_EQ(into.message(),
            "serde: block record has width 2, destination block has width 6");

  // A row batch whose third row is one column short: nothing is appended,
  // not even the two rows that fit.
  std::vector<Row> batch = BlockSampleRows();
  batch.resize(3);
  batch[2].fields.pop_back();
  std::string batch_payload;
  serde::AppendRowBatchPayload(batch, &batch_payload);
  DumpFile(path, FramedFile(serde::kRecordRowBatch, batch_payload));
  EXPECT_TRUE(TryReadAll(path).ok());
  into = TryReadAllInto(path);
  EXPECT_EQ(into.message(),
            "serde: row-batch record row 2 has width 5, destination block "
            "has width 6");
  std::remove(path.c_str());
}

TEST(SerdeCorruptionTest, ChecksumTamperNamesTheMismatch) {
  std::string path = WriteSampleFile("sum");
  std::string bytes = SlurpFile(path);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0xff);
  DumpFile(path, bytes);
  Status s = TryReadAll(path);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("checksum mismatch"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(SerdeCorruptionTest, BadMagicIsNotATranceFile) {
  std::string path = TestPath("magic");
  DumpFile(path, "JUNKJUNKJUNKJUNK");
  Status s = TryReadAll(path);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("bad magic"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST(SerdeCorruptionTest, FutureVersionIsRejectedByName) {
  std::string path = WriteSampleFile("version");
  std::string bytes = SlurpFile(path);
  // Bump the version halfword (offset 4) to kFormatVersion + 1.
  uint16_t future = serde::kFormatVersion + 1;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  DumpFile(path, bytes);
  Status s = TryReadAll(path);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("unsupported format version 2"),
            std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(SerdeCorruptionTest, PayloadParserRejectsStructuralLies) {
  std::vector<Row> out;

  // Unknown record kind.
  Status s = serde::ParseRecordPayload(99, "", &out);
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("unknown record kind"), std::string::npos);

  // Unknown field tag inside a row batch.
  std::string payload;
  serde::AppendRowBatchPayload({Row{{Field::Int(1)}}}, &payload);
  std::string bad = payload;
  bad[12] = '\x7f';  // the field tag of the single field
  s = serde::ParseRecordPayload(serde::kRecordRowBatch, bad, &out);
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();

  // Trailing garbage after a well-formed batch.
  bad = payload + std::string(3, '\0');
  s = serde::ParseRecordPayload(serde::kRecordRowBatch, bad, &out);
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("trailing bytes"), std::string::npos)
      << s.ToString();

  // A bag length far past the payload must fail by truncation, not OOM.
  std::string huge_bag;
  huge_bag.push_back('\x06');  // bag tag
  uint64_t lie = uint64_t{1} << 60;
  huge_bag.append(reinterpret_cast<const char*>(&lie), sizeof(lie));
  size_t pos = 0;
  Field f;
  s = serde::ParseField(huge_bag.data(), huge_bag.size(), &pos, &f);
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();

  // Non-monotonic string offsets in a block column.
  Schema schema({{"s", nrc::Type::String()}});
  column::PartitionBlock block = column::PartitionBlock::FromRows(
      schema, {Row{{Field::Str("ab")}}, Row{{Field::Str("cd")}}});
  std::string bp;
  serde::AppendBlockPayload(block, &bp);
  // Offsets are the last 16 bytes (two u64 ends); swap them.
  std::string swapped = bp;
  std::memcpy(swapped.data() + swapped.size() - 16,
              bp.data() + bp.size() - 8, 8);
  std::memcpy(swapped.data() + swapped.size() - 8,
              bp.data() + bp.size() - 16, 8);
  s = serde::ParseRecordPayload(serde::kRecordBlock, swapped, &out);
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("string offsets"), std::string::npos)
      << s.ToString();
}

TEST(SerdeCorruptionTest, ImplausibleRecordLengthIsRejected) {
  std::string path = TestPath("len");
  std::string bytes;
  // Valid header...
  uint32_t magic = serde::kMagic;
  uint16_t version = serde::kFormatVersion, flags = 0;
  bytes.append(reinterpret_cast<const char*>(&magic), 4);
  bytes.append(reinterpret_cast<const char*>(&version), 2);
  bytes.append(reinterpret_cast<const char*>(&flags), 2);
  // ...then a frame claiming an absurd payload length.
  bytes.push_back(static_cast<char>(serde::kRecordRowBatch));
  uint64_t lie = uint64_t{1} << 50;
  bytes.append(reinterpret_cast<const char*>(&lie), 8);
  DumpFile(path, bytes);
  Status s = TryReadAll(path);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.code() == StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("implausible record length"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(SerdeFormatTest, HeaderBytesMatchTheSpec) {
  // docs/STORAGE.md promises the first 8 on-disk bytes: "TRNB", version 1
  // little-endian, flags 0.
  std::string path = WriteSampleFile("header");
  std::string bytes = SlurpFile(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "TRNB");
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), 1);
  EXPECT_EQ(static_cast<uint8_t>(bytes[5]), 0);
  EXPECT_EQ(static_cast<uint8_t>(bytes[6]), 0);
  EXPECT_EQ(static_cast<uint8_t>(bytes[7]), 0);
  std::remove(path.c_str());
}

TEST(SerdeFormatTest, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a 64 test vectors (offset basis as default seed).
  EXPECT_EQ(serde::Fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(serde::Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(serde::Fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace runtime
}  // namespace trance
