// Flat open-addressing hash-table tests (ctest label `flathash`).
//
// Part 1 — table properties: on randomized encoded keys (with enough
// distinct keys to force several slot-array doublings) FlatKeyIndex agrees
// with a std::unordered_map oracle on membership, dense-index assignment,
// and FindOrInsert insert/hit classification; forced hash collisions
// (identical 64-bit hash, different bytes) stay distinct; the empty key
// (zero-length bytes) is a valid key; dense indices are stable for the
// table's lifetime (erase-less semantics) and KeyAt round-trips every
// inserted key byte-exactly through arena growth.
//
// Part 2 — end-to-end: every Fig-7 narrow-suite query, through both
// compilation routes, produces identical per-partition rows (hence
// identical placement), identical shuffle bytes, and identical JobStats at
// 1, 4, and 8 threads — the flat-table counters (hash_table_bytes /
// hash_resizes / hash_probe_len_max) included. The counters are nonzero
// wherever a keyed operator ran, and they flow into EXPLAIN ANALYZE
// ("flat(tbl=") and the JSON export.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "nrc/interp.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "runtime/cluster.h"
#include "runtime/flat_hash.h"
#include "runtime/key_codec.h"
#include "runtime/ops.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/random.h"
#include "stats_test_util.h"

namespace trance {
namespace {

using nrc::Value;
using runtime::Dataset;
using runtime::Field;
using runtime::JobStats;
using runtime::Row;
using testing_util::ExpectSameStats;
namespace key_codec = runtime::key_codec;
using runtime::flat_hash::FlatKeyIndex;

// --- Part 1: table properties -------------------------------------------

/// A hand-built owning key; hash is chosen by the test, not derived from the
/// bytes, so collisions can be forced at will.
key_codec::EncodedKey MakeKey(uint64_t hash, std::string bytes) {
  return key_codec::EncodedKey{hash, std::move(bytes)};
}

key_codec::EncodedKeyView View(const key_codec::EncodedKey& k) {
  return key_codec::EncodedKeyView{k.hash, k.bytes};
}

/// Random key material with odd, varied lengths (0..40 bytes) so arena
/// offsets land on every alignment and sanitizer builds would catch any
/// out-of-bounds memcmp against arena memory.
key_codec::EncodedKey RandomKey(Rng* rng, uint64_t key_space) {
  uint64_t id = rng->UniformRange(0, static_cast<int64_t>(key_space) - 1);
  std::string bytes = "key-" + std::to_string(id);
  size_t pad = static_cast<size_t>(id % 37);
  bytes.append(pad, static_cast<char>('a' + id % 26));
  return MakeKey(SplitMix64(id) ^ 0x9e3779b97f4a7c15ull, std::move(bytes));
}

void OracleParityRun(uint64_t seed, uint64_t key_space, int ops) {
  Rng rng(static_cast<int64_t>(seed));
  FlatKeyIndex idx;
  std::unordered_map<std::string, uint32_t> oracle;
  std::vector<std::string> dense_bytes;  // oracle for KeyAt / index stability
  for (int i = 0; i < ops; ++i) {
    key_codec::EncodedKey k = RandomKey(&rng, key_space);
    if (rng.UniformRange(0, 3) == 0) {
      // Probe-only path: must agree with the oracle and never insert.
      uint32_t got = idx.Find(View(k));
      auto it = oracle.find(k.bytes);
      if (it == oracle.end()) {
        EXPECT_EQ(got, FlatKeyIndex::kNotFound) << "op " << i;
      } else {
        EXPECT_EQ(got, it->second) << "op " << i;
      }
      continue;
    }
    auto [gi, inserted] = idx.FindOrInsert(View(k));
    auto [it, fresh] = oracle.emplace(k.bytes, gi);
    EXPECT_EQ(inserted, fresh) << "op " << i;
    EXPECT_EQ(gi, it->second) << "op " << i;
    if (fresh) {
      // Dense first-insertion order: the i-th distinct key gets index i.
      EXPECT_EQ(gi, dense_bytes.size()) << "op " << i;
      dense_bytes.push_back(k.bytes);
    }
  }
  EXPECT_EQ(idx.size(), oracle.size());
  // Erase-less stable indices: every key still maps to its original index
  // and KeyAt round-trips the bytes even after all intervening resizes.
  for (uint32_t gi = 0; gi < dense_bytes.size(); ++gi) {
    key_codec::EncodedKeyView k = idx.KeyAt(gi);
    EXPECT_EQ(std::string(k.bytes), dense_bytes[gi]) << "index " << gi;
    EXPECT_EQ(idx.Find(k), gi) << "index " << gi;
  }
}

TEST(FlatHashTest, OracleParityWithResizes) {
  // 40k ops over ~6k distinct keys: the table doubles from 16 slots many
  // times while the probe/insert mix exercises every growth boundary.
  OracleParityRun(42, 6000, 40000);
}

TEST(FlatHashTest, ForcedHashCollisionsStayDistinct) {
  // Every key shares one 64-bit hash; the table must fall back to byte
  // comparison and keep all of them distinct via linear probing.
  FlatKeyIndex idx;
  constexpr uint64_t kHash = 0xDEADBEEFCAFEBABEull;
  constexpr int kKeys = 200;  // > kMinSlots, so collisions survive resizes
  for (int i = 0; i < kKeys; ++i) {
    key_codec::EncodedKey k = MakeKey(kHash, "collide-" + std::to_string(i));
    auto [gi, inserted] = idx.FindOrInsert(View(k));
    ASSERT_TRUE(inserted) << i;
    ASSERT_EQ(gi, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(idx.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    key_codec::EncodedKey k = MakeKey(kHash, "collide-" + std::to_string(i));
    EXPECT_EQ(idx.Find(View(k)), static_cast<uint32_t>(i));
    auto [gi, inserted] = idx.FindOrInsert(View(k));
    EXPECT_FALSE(inserted);
    EXPECT_EQ(gi, static_cast<uint32_t>(i));
  }
  // Same hash, absent bytes: the whole collision chain is walked to a miss.
  key_codec::EncodedKey miss = MakeKey(kHash, "not-present");
  EXPECT_EQ(idx.Find(View(miss)), FlatKeyIndex::kNotFound);
  EXPECT_GE(idx.max_probe_len(), static_cast<uint64_t>(kKeys) - 1);
}

TEST(FlatHashTest, EmptyKeyIsAValidKey) {
  FlatKeyIndex idx;
  key_codec::EncodedKey empty = MakeKey(0, "");
  EXPECT_EQ(idx.Find(View(empty)), FlatKeyIndex::kNotFound);
  auto [gi, inserted] = idx.FindOrInsert(View(empty));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(gi, 0u);
  auto [gi2, inserted2] = idx.FindOrInsert(View(empty));
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(gi2, 0u);
  EXPECT_EQ(idx.Find(View(empty)), 0u);
  EXPECT_EQ(idx.KeyAt(0).bytes.size(), 0u);
  // Zero-hash empty key must not merge with a nonempty zero-hash key.
  key_codec::EncodedKey other = MakeKey(0, "x");
  auto [gi3, inserted3] = idx.FindOrInsert(View(other));
  EXPECT_TRUE(inserted3);
  EXPECT_EQ(gi3, 1u);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(FlatHashTest, TelemetryCountsResizesAndFootprint) {
  FlatKeyIndex idx;
  EXPECT_EQ(idx.table_bytes(), 0u);
  EXPECT_EQ(idx.resizes(), 0u);
  uint64_t arena_bytes = 0;
  for (int i = 0; i < 5000; ++i) {
    key_codec::EncodedKey k =
        MakeKey(SplitMix64(static_cast<uint64_t>(i)), "k" + std::to_string(i));
    auto [gi, inserted] = idx.FindOrInsert(View(k));
    ASSERT_TRUE(inserted);
    arena_bytes += k.bytes.size();
  }
  // 5000 keys at 3/4 load need 8192 slots: 16 -> 8192 is 9 doublings.
  EXPECT_EQ(idx.resizes(), 9u);
  EXPECT_GT(idx.table_bytes(), arena_bytes);
  // Footprint is deterministic: an identical insertion sequence reproduces
  // it bit-exactly (the bench_diff kExact gate relies on this).
  FlatKeyIndex again;
  for (int i = 0; i < 5000; ++i) {
    key_codec::EncodedKey k =
        MakeKey(SplitMix64(static_cast<uint64_t>(i)), "k" + std::to_string(i));
    again.FindOrInsert(View(k));
  }
  EXPECT_EQ(again.table_bytes(), idx.table_bytes());
  EXPECT_EQ(again.resizes(), idx.resizes());

  // The pre-sized constructor absorbs the growth the default path performs.
  FlatKeyIndex sized(5000);
  for (int i = 0; i < 5000; ++i) {
    key_codec::EncodedKey k =
        MakeKey(SplitMix64(static_cast<uint64_t>(i)), "k" + std::to_string(i));
    sized.FindOrInsert(View(k));
  }
  EXPECT_EQ(sized.resizes(), 0u);
  EXPECT_EQ(sized.table_bytes(), idx.table_bytes());
}

TEST(FlatHashTest, ArenaStressOddLengthsManyResizes) {
  // Adversarial arena layout: key lengths cycle through every residue mod
  // 37 (never aligned), with enough keys for ~12 slot-array doublings.
  // Sanitizer builds (ci/sanitize.sh runs this label) verify every memcmp
  // stays inside the arena; here we verify byte-exact round-trips.
  FlatKeyIndex idx;
  constexpr int kKeys = 30000;
  for (int i = 0; i < kKeys; ++i) {
    std::string bytes(static_cast<size_t>(i % 37), static_cast<char>(i % 251));
    bytes += std::to_string(i);
    auto [gi, inserted] =
        idx.FindOrInsert(View(MakeKey(SplitMix64(i * 2654435761ull), bytes)));
    ASSERT_TRUE(inserted) << i;
    ASSERT_EQ(gi, static_cast<uint32_t>(i));
  }
  EXPECT_GE(idx.resizes(), 11u);
  Rng rng(13);
  for (int t = 0; t < 2000; ++t) {
    uint32_t i = static_cast<uint32_t>(rng.UniformRange(0, kKeys - 1));
    std::string bytes(static_cast<size_t>(i % 37), static_cast<char>(i % 251));
    bytes += std::to_string(i);
    key_codec::EncodedKeyView got = idx.KeyAt(i);
    ASSERT_EQ(std::string(got.bytes), bytes) << i;
    EXPECT_EQ(idx.Find(View(MakeKey(SplitMix64(i * 2654435761ull), bytes))),
              i);
  }
}

// --- Part 2: end-to-end equivalence over the Fig-7 suite -----------------

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

class FlatHashSuiteTest
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

// The test names predate the single table implementation; each route is
// checked for thread-count invariance (the flat-table counters included:
// per-partition tables are slot-merged in partition order, not completion
// order) and a nonzero table footprint wherever a keyed operator ran.
TEST_P(FlatHashSuiteTest, StandardRouteOnOffIdentical) {
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
  EXPECT_EQ(on1.stats.hash_table_bytes(), on4.stats.hash_table_bytes());
  EXPECT_EQ(on1.stats.hash_table_bytes(), on8.stats.hash_table_bytes());
  EXPECT_EQ(on1.stats.hash_resizes(), on4.stats.hash_resizes());
  EXPECT_EQ(on1.stats.hash_probe_len_max(), on4.stats.hash_probe_len_max());
  if (on1.stats.hash_build_rows() > 0) {
    EXPECT_GT(on1.stats.hash_table_bytes(), 0u);
  }
}

TEST_P(FlatHashSuiteTest, ShreddedRouteOnOffIdentical) {
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
  EXPECT_EQ(on1.stats.hash_table_bytes(), on4.stats.hash_table_bytes());
  EXPECT_EQ(on1.stats.hash_table_bytes(), on8.stats.hash_table_bytes());
  if (on1.stats.hash_build_rows() > 0) {
    EXPECT_GT(on1.stats.hash_table_bytes(), 0u);
  }
}

std::string FlatHashParamName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"flat_to_nested", "nested_to_nested",
                                 "nested_to_flat"};
  return std::string(kKinds[std::get<0>(info.param)]) + "_depth" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, FlatHashSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 2, 4)),
    FlatHashParamName);

// --- Counter plumbing ----------------------------------------------------

TEST(FlatHashRuntimeTest, CountersVisibleInJsonAndExplain) {
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = TpchValues(tpch::Generate(cfg));
  StandardModeRun r = RunStandardMode(*q, values, 1);
  EXPECT_GT(r.stats.hash_table_bytes(), 0u);

  std::string json = obs::JobStatsToJson(r.stats);
  EXPECT_NE(json.find("\"hash_table_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_resizes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_probe_len_max\""), std::string::npos) << json;

  EXPECT_NE(r.explain.find("flat(tbl="), std::string::npos) << r.explain;
}

}  // namespace
}  // namespace trance
