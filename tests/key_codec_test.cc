// Encoded-key codec tests (ctest label `keys`).
//
// Part 1 — codec properties: on randomized field values (NULLs, int/real
// numeric edges, empty strings, nested and collapsed labels) the binary
// encoding's byte equality coincides with structural hash-container
// identity (Field::operator== AND Field::Hash per column), the encoder's
// hash equals RowHashOn (so the commutative, order-insensitive guarantee
// survives — permuted key columns hash and place identically), and
// bag-typed fields are rejected with a Status.
//
// Part 2 — end-to-end: every Fig-7 narrow-suite query, through both
// compilation routes, produces identical per-partition rows (hence
// identical placement), identical shuffle bytes, and identical JobStats —
// the keyed hash-table counters and key_encode_bytes included — at 1 and 4
// threads. The counters are visible in EXPLAIN ANALYZE and the JSON export.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/bridge.h"
#include "exec/pipeline.h"
#include "nrc/interp.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "runtime/cluster.h"
#include "runtime/key_codec.h"
#include "runtime/ops.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/random.h"

namespace trance {
namespace {

using nrc::Value;
using runtime::Dataset;
using runtime::Field;
using runtime::JobStats;
using runtime::Row;
using runtime::StageStats;
namespace key_codec = runtime::key_codec;

// --- Part 1: codec properties -------------------------------------------

/// A randomized flat-key field drawn from every encodable kind, biased
/// toward the edge cases the codec must keep distinct (or merge): repeated
/// small integers, int-valued reals, signed zeros, empty strings, NULLs,
/// and (at depth > 0) labels capturing nested parameters.
Field RandomField(Rng* rng, int label_depth) {
  switch (rng->UniformRange(0, label_depth > 0 ? 6 : 5)) {
    case 0:
      return Field::Null();
    case 1:
      return Field::Int(rng->UniformRange(-3, 3));
    case 2: {
      // Int-valued and signed-zero reals collide with ints under
      // Field::operator== but hash apart; the codec must track the hash.
      static const double kReals[] = {0.0, -0.0, 1.0, -2.0, 0.5, 1e300};
      return Field::Real(kReals[rng->UniformRange(0, 5)]);
    }
    case 3:
      return Field::Str(rng->UniformRange(0, 2) == 0
                            ? ""
                            : "s" + std::to_string(rng->UniformRange(0, 3)));
    case 4:
      return Field::Bool(rng->UniformRange(0, 1) == 1);
    case 5:
      return Field::Int(rng->UniformRange(0, 1) == 0
                            ? std::numeric_limits<int64_t>::min()
                            : std::numeric_limits<int64_t>::max());
    default: {
      std::vector<std::pair<std::string, Field>> params;
      int n = static_cast<int>(rng->UniformRange(0, 2));
      for (int i = 0; i < n; ++i) {
        params.emplace_back("p" + std::to_string(i),
                            RandomField(rng, label_depth - 1));
      }
      return runtime::MakeLabel(std::move(params));
    }
  }
}

TEST(KeyCodecTest, ByteEqualityMatchesLegacyContainerIdentity) {
  // The oracle, structural hash-container identity: two fields land in the
  // same hash-map slot iff they compare equal AND hash equal (Int(1) vs
  // Real(1.0) compare equal but hash apart, so such a container keeps them
  // distinct).
  auto same_key = [](const Row& a, const Row& b) {
    if (a.fields.size() != b.fields.size()) return false;
    for (size_t i = 0; i < a.fields.size(); ++i) {
      if (!(a.fields[i] == b.fields[i])) return false;
      if (a.fields[i].Hash() != b.fields[i].Hash()) return false;
    }
    return true;
  };
  Rng rng(42);
  key_codec::KeyEncoder enc;
  std::vector<int> cols{0, 1};
  for (int trial = 0; trial < 20000; ++trial) {
    Row a({RandomField(&rng, 2), RandomField(&rng, 2)});
    Row b({RandomField(&rng, 2), RandomField(&rng, 2)});
    auto ka = enc.Encode(a, cols);
    ASSERT_TRUE(ka.ok()) << ka.status().ToString();
    key_codec::EncodedKey ea = key_codec::Materialize(ka.value());
    auto kb = enc.Encode(b, cols);
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    bool bytes_equal = ea.bytes == kb.value().bytes;
    EXPECT_EQ(bytes_equal, same_key(a, b))
        << "trial " << trial << ": " << runtime::RowToString(a) << " vs "
        << runtime::RowToString(b);
    if (bytes_equal) {
      EXPECT_EQ(ea.hash, kb.value().hash);
    }
  }
}

TEST(KeyCodecTest, EncoderHashEqualsRowHashOn) {
  Rng rng(7);
  key_codec::KeyEncoder enc;
  std::vector<int> cols{0, 1, 2};
  for (int trial = 0; trial < 5000; ++trial) {
    Row r({RandomField(&rng, 2), RandomField(&rng, 2), RandomField(&rng, 2)});
    auto k = enc.Encode(r, cols);
    ASSERT_TRUE(k.ok());
    EXPECT_EQ(k.value().hash, runtime::RowHashOn(r, cols));
    EXPECT_EQ(key_codec::KeyHashOn(r, cols), runtime::RowHashOn(r, cols));
  }
}

TEST(KeyCodecTest, PermutedKeyColumnsHashAndPlaceIdentically) {
  runtime::ClusterConfig cfg;
  cfg.num_partitions = 8;
  runtime::Cluster cluster(cfg);
  Rng rng(11);
  key_codec::KeyEncoder enc;
  for (int trial = 0; trial < 2000; ++trial) {
    Row r({RandomField(&rng, 1), RandomField(&rng, 1), RandomField(&rng, 1)});
    auto a = enc.Encode(r, {0, 1, 2});
    ASSERT_TRUE(a.ok());
    key_codec::EncodedKey ea = key_codec::Materialize(a.value());
    auto b = enc.Encode(r, {2, 0, 1});
    ASSERT_TRUE(b.ok());
    // The per-column sum is commutative (the PR-3 RowHashOn guarantee), so
    // hash — and therefore partition placement — ignores column order.
    EXPECT_EQ(ea.hash, b.value().hash);
    EXPECT_EQ(cluster.PartitionOf(ea), cluster.PartitionOf(b.value()));
  }
}

TEST(KeyCodecTest, BagFieldsAreRejected) {
  key_codec::KeyEncoder enc;
  Row r({Field::Int(1), Field::Bag({Row({Field::Int(2)})})});
  auto k = enc.Encode(r, {0, 1});
  ASSERT_FALSE(k.ok());
  EXPECT_EQ(k.status().code(), StatusCode::kTypeError)
      << k.status().ToString();
  // Columns that skip the bag encode fine.
  EXPECT_TRUE(enc.Encode(r, {0}).ok());
}

TEST(KeyCodecTest, CollapsedLabelsEncodeIdentically) {
  // MakeLabel collapses a single label-valued parameter to that label, so
  // the wrapped and unwrapped forms are the same runtime value and must be
  // the same key.
  Field inner = runtime::MakeLabel({{"id", Field::Int(3)}});
  Field wrapped = runtime::MakeLabel({{"x", inner}});
  key_codec::KeyEncoder enc;
  auto a = enc.Encode(Row({inner}), {0});
  ASSERT_TRUE(a.ok());
  key_codec::EncodedKey ea = key_codec::Materialize(a.value());
  auto b = enc.Encode(Row({wrapped}), {0});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ea.bytes, b.value().bytes);
  EXPECT_EQ(ea.hash, b.value().hash);
}

TEST(KeyCodecTest, SignedZeroMergesNullLabelStaysDistinct) {
  key_codec::KeyEncoder enc;
  auto pos = enc.Encode(Row({Field::Real(0.0)}), {0});
  ASSERT_TRUE(pos.ok());
  key_codec::EncodedKey epos = key_codec::Materialize(pos.value());
  auto neg = enc.Encode(Row({Field::Real(-0.0)}), {0});
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(epos.bytes, neg.value().bytes);  // 0.0 == -0.0 and hashes agree

  // A null label pointer and a label with zero captured params are distinct
  // runtime values (distinct hashes) and must not merge.
  auto null_label = enc.Encode(Row({Field::Label(nullptr)}), {0});
  ASSERT_TRUE(null_label.ok());
  key_codec::EncodedKey enull = key_codec::Materialize(null_label.value());
  auto empty_label = enc.Encode(Row({runtime::MakeLabel({})}), {0});
  ASSERT_TRUE(empty_label.ok());
  EXPECT_NE(enull.bytes, empty_label.value().bytes);
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

/// Full JobStats equality except wall-clock fields, the keyed hash-table
/// counters included.
void ExpectSameStats(const JobStats& a, const JobStats& b) {
  EXPECT_EQ(a.total_shuffle_bytes(), b.total_shuffle_bytes());
  EXPECT_EQ(a.max_stage_shuffle_bytes(), b.max_stage_shuffle_bytes());
  EXPECT_EQ(a.peak_partition_bytes(), b.peak_partition_bytes());
  EXPECT_EQ(a.fused_stages(), b.fused_stages());
  EXPECT_EQ(a.intermediate_bytes_avoided(), b.intermediate_bytes_avoided());
  EXPECT_EQ(a.sim_seconds(), b.sim_seconds());
  EXPECT_EQ(a.hash_build_rows(), b.hash_build_rows());
  EXPECT_EQ(a.hash_probe_hits(), b.hash_probe_hits());
  EXPECT_EQ(a.hash_max_chain(), b.hash_max_chain());
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
    EXPECT_EQ(sa.hash_build_rows, sb.hash_build_rows);
    EXPECT_EQ(sa.hash_probe_hits, sb.hash_probe_hits);
    EXPECT_EQ(sa.hash_max_chain, sb.hash_max_chain);
    EXPECT_EQ(sa.sim_seconds, sb.sim_seconds);
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

class KeyCodecSuiteTest
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

// The test names predate the single key path; each route is checked for
// thread-count invariance and a nonzero encode count wherever a keyed
// operator ran.
TEST_P(KeyCodecSuiteTest, StandardRouteOnOffIdentical) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  StandardModeRun on1 = RunStandardMode(*q, values, 1);
  StandardModeRun on4 = RunStandardMode(*q, values, 4);

  ExpectSameRows(on1.out, on4.out);
  ExpectSameStats(on1.stats, on4.stats);
  EXPECT_EQ(on1.stats.key_encode_bytes(), on4.stats.key_encode_bytes());
  if (on1.stats.hash_build_rows() > 0) {
    EXPECT_GT(on1.stats.key_encode_bytes(), 0u);
  }
}

TEST_P(KeyCodecSuiteTest, ShreddedRouteOnOffIdentical) {
  auto [k, depth] = GetParam();
  Kind kind = static_cast<Kind>(k);
  auto q = Query(kind, depth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto values = Inputs(kind, depth);

  ShreddedModeRun on1 = RunShreddedMode(*q, values, 1);
  ShreddedModeRun on4 = RunShreddedMode(*q, values, 4);

  ExpectSameShreddedRows(on1.run, on4.run);
  ExpectSameStats(on1.stats, on4.stats);
  EXPECT_EQ(on1.stats.key_encode_bytes(), on4.stats.key_encode_bytes());
  if (on1.stats.hash_build_rows() > 0) {
    EXPECT_GT(on1.stats.key_encode_bytes(), 0u);
  }
}

std::string KeyCodecParamName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kKinds[] = {"flat_to_nested", "nested_to_nested",
                                 "nested_to_flat"};
  return std::string(kKinds[std::get<0>(info.param)]) + "_depth" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Fig7NarrowSuite, KeyCodecSuiteTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3, 4)),
    KeyCodecParamName);

// --- Counter plumbing ----------------------------------------------------

TEST(KeyCodecRuntimeTest, CountersVisibleInJsonAndExplain) {
  auto q = tpch::FlatToNested(2, tpch::Width::kNarrow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  tpch::TpchConfig cfg;
  cfg.scale = 0.0005;
  auto values = TpchValues(tpch::Generate(cfg));
  StandardModeRun r = RunStandardMode(*q, values, 1);
  EXPECT_GT(r.stats.hash_build_rows(), 0u);
  EXPECT_GT(r.stats.key_encode_bytes(), 0u);

  std::string json = obs::JobStatsToJson(r.stats);
  EXPECT_NE(json.find("\"key_encode_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_build_rows\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_probe_hits\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_max_chain\""), std::string::npos) << json;

  EXPECT_NE(r.explain.find("ht(build="), std::string::npos) << r.explain;
  EXPECT_NE(r.explain.find("key_bytes="), std::string::npos) << r.explain;
}

}  // namespace
}  // namespace trance
