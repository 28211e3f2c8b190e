// Unit tests for the distributed runtime simulator: partitioning guarantees,
// exact shuffle accounting, joins, nest/aggregate, unnest, memory caps, and
// every keyed operator against a row-at-a-time reference.
#include <gtest/gtest.h>

#include "runtime/cluster.h"
#include "runtime/ops.h"
#include "stats_test_util.h"
#include "util/random.h"

namespace trance {
namespace runtime {
namespace {

Schema KvSchema() {
  return Schema({{"k", nrc::Type::Int()}, {"v", nrc::Type::Int()}});
}

std::vector<Row> KvRows(std::vector<std::pair<int64_t, int64_t>> kv) {
  std::vector<Row> rows;
  rows.reserve(kv.size());
  for (auto [k, v] : kv) {
    rows.push_back(Row({Field::Int(k), Field::Int(v)}));
  }
  return rows;
}

TEST(FieldTest, EqualityAndHash) {
  EXPECT_EQ(Field::Int(3), Field::Int(3));
  EXPECT_NE(Field::Int(3), Field::Int(4));
  EXPECT_EQ(Field::Int(3), Field::Real(3.0));  // numeric cross-compare
  EXPECT_EQ(Field::Str("x"), Field::Str("x"));
  EXPECT_EQ(Field::Null(), Field::Null());
  EXPECT_NE(Field::Null(), Field::Int(0));
  Field l1 = MakeLabel({{"a", Field::Int(1)}});
  Field l2 = MakeLabel({{"a", Field::Int(1)}});
  EXPECT_EQ(l1, l2);
  EXPECT_EQ(l1.Hash(), l2.Hash());
}

TEST(FieldTest, LabelCollapse) {
  Field inner = MakeLabel({{"id", Field::Int(5)}});
  Field wrapped = MakeLabel({{"x", inner}});
  EXPECT_EQ(inner, wrapped);
}

TEST(FieldTest, BagMultisetEquality) {
  Field a = Field::Bag({Row({Field::Int(1)}), Row({Field::Int(2)})});
  Field b = Field::Bag({Row({Field::Int(2)}), Row({Field::Int(1)})});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(FieldTest, DeepSizeCountsNestedBags) {
  Field shallow = Field::Int(1);
  Field deep = Field::Bag(
      {Row({Field::Str(std::string(100, 'x'))}), Row({Field::Int(2)})});
  EXPECT_GT(deep.DeepSize(), shallow.DeepSize() + 100);
}

TEST(OpsTest, SourceDistributesRoundRobin) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(), KvRows({{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}),
                   "in");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->NumRows(), 5u);
  EXPECT_EQ(ds->NumPartitions(), 4u);
  EXPECT_EQ(ds->partitioning.kind, Partitioning::Kind::kNone);
}

TEST(OpsTest, RepartitionColocatesKeys) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(),
                   KvRows({{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}}), "in")
                .ValueOrDie();
  auto parted = Repartition(&cluster, ds, {0}, "repart");
  ASSERT_TRUE(parted.ok());
  // All rows with the same key must land in one partition.
  for (size_t pi = 0; pi < parted->NumPartitions(); ++pi) {
    const std::vector<Row> p = parted->PartitionRows(pi);
    std::set<int64_t> keys;
    for (const auto& r : p) keys.insert(r.fields[0].AsInt());
    for (int64_t k : keys) {
      size_t count = 0;
      for (size_t qi = 0; qi < parted->NumPartitions(); ++qi) {
        for (const auto& r : parted->PartitionRows(qi)) {
          if (r.fields[0].AsInt() == k) ++count;
        }
      }
      size_t local = 0;
      for (const auto& r : p) {
        if (r.fields[0].AsInt() == k) ++local;
      }
      EXPECT_EQ(local, count);
    }
  }
  EXPECT_TRUE(parted->partitioning.IsHashOn({0}));
}

TEST(OpsTest, RepartitionOnExistingGuaranteeShufflesNothing) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(), KvRows({{1, 1}, {2, 2}, {3, 3}}), "in")
                .ValueOrDie();
  auto p1 = Repartition(&cluster, ds, {0}, "r1").ValueOrDie();
  uint64_t before = cluster.stats().total_shuffle_bytes();
  auto p2 = Repartition(&cluster, p1, {0}, "r2").ValueOrDie();
  EXPECT_EQ(cluster.stats().total_shuffle_bytes(), before);
}

TEST(OpsTest, RepartitionOnPermutedKeysShufflesNothing) {
  // The partitioner combines per-column hashes commutatively, so a hash
  // guarantee on {a,b} covers a request for {b,a}: same placement, no
  // movement.
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  Schema schema({{"a", nrc::Type::Int()},
                 {"b", nrc::Type::Int()},
                 {"v", nrc::Type::Int()}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.push_back(Row({Field::Int(i % 7), Field::Int(i % 5), Field::Int(i)}));
  }
  auto ds = Source(&cluster, schema, std::move(rows), "in").ValueOrDie();
  auto p1 = Repartition(&cluster, ds, {0, 1}, "r1").ValueOrDie();
  EXPECT_TRUE(p1.partitioning.IsHashOn({1, 0}));
  uint64_t before = cluster.stats().total_shuffle_bytes();
  auto p2 = Repartition(&cluster, p1, {1, 0}, "r2").ValueOrDie();
  EXPECT_EQ(cluster.stats().total_shuffle_bytes(), before);
  // Placement under the permuted guarantee must match hashing on the
  // permuted key list exactly (reuse must not mis-place any row).
  for (size_t p = 0; p < p2.NumPartitions(); ++p) {
    for (const auto& r : p2.PartitionRows(p)) {
      EXPECT_EQ(static_cast<size_t>(cluster.PartitionOf(RowHashOn(r, {1, 0}))),
                p);
    }
  }
}

TEST(OpsTest, HashJoinReusesPermutedPartitioning) {
  // A left side already hashed on {1,0} joins on keys {0,1} without moving:
  // the permuted guarantee is accepted and the join still colocates equal
  // keys from the right side.
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  Schema ls({{"a", nrc::Type::Int()},
             {"b", nrc::Type::Int()},
             {"v", nrc::Type::Int()}});
  std::vector<Row> lrows;
  for (int64_t i = 0; i < 30; ++i) {
    lrows.push_back(
        Row({Field::Int(i % 6), Field::Int(i % 4), Field::Int(i)}));
  }
  auto l = Source(&cluster, ls, std::move(lrows), "l").ValueOrDie();
  auto lp = Repartition(&cluster, l, {1, 0}, "lp").ValueOrDie();
  Schema rs({{"x", nrc::Type::Int()},
             {"y", nrc::Type::Int()},
             {"w", nrc::Type::Int()}});
  std::vector<Row> rrows;
  for (int64_t i = 0; i < 24; ++i) {
    rrows.push_back(
        Row({Field::Int(i % 6), Field::Int(i % 4), Field::Int(100 + i)}));
  }
  auto r = Source(&cluster, rs, std::move(rrows), "r").ValueOrDie();
  uint64_t before = cluster.stats().total_shuffle_bytes();
  auto j =
      HashJoin(&cluster, lp, r, {0, 1}, {0, 1}, JoinType::kInner, "join");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  // Only the right side moved; the permuted left guarantee was reused.
  uint64_t right_size = r.DeepSizeBytes();
  EXPECT_LE(cluster.stats().total_shuffle_bytes() - before, right_size);
  // Exact expected multiplicity: keys match when (a,b) == (x,y).
  size_t expected = 0;
  for (const auto& lr : l.Collect()) {
    for (const auto& rr : r.Collect()) {
      if (lr.fields[0] == rr.fields[0] && lr.fields[1] == rr.fields[1]) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(j->NumRows(), expected);
}

TEST(OpsTest, HashJoinInner) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto l = Source(&cluster, KvSchema(), KvRows({{1, 10}, {2, 20}, {3, 30}}),
                  "l")
               .ValueOrDie();
  auto r = Source(&cluster,
                  Schema({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}}),
                  KvRows({{1, 100}, {1, 101}, {4, 400}}), "r")
               .ValueOrDie();
  auto j = HashJoin(&cluster, l, r, {0}, {0}, JoinType::kInner, "join");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ(j->NumRows(), 2u);  // key 1 matches twice
  EXPECT_EQ(j->schema.size(), 4u);
  EXPECT_EQ(j->schema.col(2).name, "k2");
}

TEST(OpsTest, HashJoinLeftOuterNullPads) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  auto l = Source(&cluster, KvSchema(), KvRows({{1, 10}, {2, 20}}), "l")
               .ValueOrDie();
  auto r = Source(&cluster,
                  Schema({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}}),
                  KvRows({{1, 100}}), "r")
               .ValueOrDie();
  auto j = HashJoin(&cluster, l, r, {0}, {0}, JoinType::kLeftOuter, "join");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->NumRows(), 2u);
  bool saw_null = false;
  for (const auto& row : j->Collect()) {
    if (row.fields[0].AsInt() == 2) {
      EXPECT_TRUE(row.fields[2].is_null());
      EXPECT_TRUE(row.fields[3].is_null());
      saw_null = true;
    }
  }
  EXPECT_TRUE(saw_null);
}

TEST(OpsTest, JoinNameCollisionSuffixed) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  auto l = Source(&cluster, KvSchema(), KvRows({{1, 10}}), "l").ValueOrDie();
  auto r = Source(&cluster, KvSchema(), KvRows({{1, 20}}), "r").ValueOrDie();
  auto j = HashJoin(&cluster, l, r, {0}, {0}, JoinType::kInner, "join")
               .ValueOrDie();
  EXPECT_EQ(j.schema.col(2).name, "k__r");
  EXPECT_EQ(j.schema.col(3).name, "v__r");
}

TEST(OpsTest, BroadcastJoinLeavesLeftInPlace) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto l = Source(&cluster, KvSchema(),
                  KvRows({{1, 10}, {2, 20}, {3, 30}, {4, 40}}), "l")
               .ValueOrDie();
  auto lp = Repartition(&cluster, l, {1}, "by_v").ValueOrDie();
  auto r = Source(&cluster,
                  Schema({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}}),
                  KvRows({{1, 100}, {2, 200}}), "r")
               .ValueOrDie();
  auto j = BroadcastJoin(&cluster, lp, r, {0}, {0}, JoinType::kInner, "bjoin");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->NumRows(), 2u);
  // Left partitioning guarantee (on v) preserved.
  EXPECT_TRUE(j->partitioning.IsHashOn({1}));
}

TEST(OpsTest, NestGroupBuildsBags) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(),
                   KvRows({{1, 10}, {1, 11}, {2, 20}}), "in")
                .ValueOrDie();
  auto nested = NestGroup(&cluster, ds, {0}, {1}, "vals", "nest");
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->NumRows(), 2u);
  for (const auto& row : nested->Collect()) {
    if (row.fields[0].AsInt() == 1) {
      EXPECT_EQ(row.fields[1].AsBag()->size(), 2u);
    } else {
      EXPECT_EQ(row.fields[1].AsBag()->size(), 1u);
    }
  }
}

TEST(OpsTest, NestGroupCastsNullToEmptyBag) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  std::vector<Row> rows;
  rows.push_back(Row({Field::Int(1), Field::Int(10)}));
  rows.push_back(Row({Field::Int(2), Field::Null()}));  // outer-join miss
  auto ds = Source(&cluster, KvSchema(), std::move(rows), "in").ValueOrDie();
  auto nested = NestGroup(&cluster, ds, {0}, {1}, "vals", "nest").ValueOrDie();
  for (const auto& row : nested.Collect()) {
    if (row.fields[0].AsInt() == 2) {
      EXPECT_TRUE(row.fields[1].AsBag()->empty());
    } else {
      EXPECT_EQ(row.fields[1].AsBag()->size(), 1u);
    }
  }
}

TEST(OpsTest, SumAggregateMissMarkers) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  std::vector<Row> rows;
  rows.push_back(Row({Field::Int(1), Field::Int(10)}));
  rows.push_back(Row({Field::Int(1), Field::Int(5)}));
  // All-NULL values: an outer-operator miss — the group must exist but carry
  // NULL so a downstream Gamma-union can cast it to an empty bag.
  rows.push_back(Row({Field::Int(2), Field::Null()}));
  auto ds = Source(&cluster, KvSchema(), std::move(rows), "in").ValueOrDie();
  auto agg = SumAggregate(&cluster, ds, {0}, {1}, true, "sum").ValueOrDie();
  EXPECT_EQ(agg.NumRows(), 2u);
  for (const auto& row : agg.Collect()) {
    if (row.fields[0].AsInt() == 1) {
      EXPECT_EQ(row.fields[1].AsInt(), 15);
    } else {
      EXPECT_TRUE(row.fields[1].is_null());
    }
  }
}

TEST(OpsTest, SumAggregateMissMarkersSurviveCombine) {
  // The miss-marker rule must behave identically with and without map-side
  // combine, including when markers and real rows land in different
  // partitions pre-shuffle.
  for (bool combine : {true, false}) {
    Cluster cluster(ClusterConfig{.num_partitions = 4});
    std::vector<Row> rows;
    for (int i = 0; i < 8; ++i) {
      rows.push_back(Row({Field::Int(1), Field::Int(1)}));
      rows.push_back(Row({Field::Int(1), Field::Null()}));
    }
    rows.push_back(Row({Field::Int(2), Field::Null()}));
    auto ds = Source(&cluster, KvSchema(), std::move(rows), "in").ValueOrDie();
    auto agg =
        SumAggregate(&cluster, ds, {0}, {1}, combine, "sum").ValueOrDie();
    EXPECT_EQ(agg.NumRows(), 2u);
    for (const auto& row : agg.Collect()) {
      if (row.fields[0].AsInt() == 1) {
        EXPECT_EQ(row.fields[1].AsInt(), 8) << "combine=" << combine;
      } else {
        EXPECT_TRUE(row.fields[1].is_null()) << "combine=" << combine;
      }
    }
  }
}

TEST(OpsTest, AddIndexColumnUniqueIds) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(),
                   KvRows({{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}), "in")
                .ValueOrDie();
  auto idx = AddIndexColumn(&cluster, ds, "uid", "idx").ValueOrDie();
  EXPECT_EQ(idx.schema.size(), 3u);
  std::set<int64_t> ids;
  for (const auto& row : idx.Collect()) {
    ids.insert(row.fields[2].AsInt());
  }
  EXPECT_EQ(ids.size(), 5u);
}

TEST(OpsTest, MapSideCombineShufflesLess) {
  ClusterConfig cfg{.num_partitions = 8};
  // Many duplicate keys: combining should cut shuffle volume.
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int i = 0; i < 1000; ++i) kv.push_back({i % 4, 1});
  {
    Cluster c1(cfg);
    auto ds = Source(&c1, KvSchema(), KvRows(kv), "in").ValueOrDie();
    uint64_t base = c1.stats().total_shuffle_bytes();
    SumAggregate(&c1, ds, {0}, {1}, true, "sum").ValueOrDie();
    uint64_t combined = c1.stats().total_shuffle_bytes() - base;
    Cluster c2(cfg);
    auto ds2 = Source(&c2, KvSchema(), KvRows(kv), "in").ValueOrDie();
    uint64_t base2 = c2.stats().total_shuffle_bytes();
    SumAggregate(&c2, ds2, {0}, {1}, false, "sum").ValueOrDie();
    uint64_t uncombined = c2.stats().total_shuffle_bytes() - base2;
    EXPECT_LT(combined * 10, uncombined);
  }
}

TEST(OpsTest, UnnestFlattens) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  Schema nested_schema(
      {{"k", nrc::Type::Int()},
       {"bag", nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}))}});
  std::vector<Row> rows;
  rows.push_back(Row({Field::Int(1),
                      Field::Bag({Row({Field::Int(10)}),
                                  Row({Field::Int(11)})})}));
  rows.push_back(Row({Field::Int(2), Field::Bag(std::vector<Row>{})}));
  auto ds =
      Source(&cluster, nested_schema, std::move(rows), "in").ValueOrDie();
  auto flat = Unnest(&cluster, ds, 1, "unnest").ValueOrDie();
  EXPECT_EQ(flat.NumRows(), 2u);  // empty bag disappears
  EXPECT_EQ(flat.schema.size(), 2u);
  EXPECT_EQ(flat.schema.col(1).name, "x");
}

TEST(OpsTest, OuterUnnestKeepsEmptyAndAddsIds) {
  Cluster cluster(ClusterConfig{.num_partitions = 2});
  Schema nested_schema(
      {{"k", nrc::Type::Int()},
       {"bag", nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}))}});
  std::vector<Row> rows;
  rows.push_back(Row({Field::Int(1),
                      Field::Bag({Row({Field::Int(10)}),
                                  Row({Field::Int(11)})})}));
  rows.push_back(Row({Field::Int(2), Field::Bag(std::vector<Row>{})}));
  auto ds =
      Source(&cluster, nested_schema, std::move(rows), "in").ValueOrDie();
  auto flat = OuterUnnest(&cluster, ds, 1, "uid", "ou").ValueOrDie();
  EXPECT_EQ(flat.NumRows(), 3u);
  EXPECT_EQ(flat.schema.col(0).name, "uid");
  // The two rows of k=1 share a uid; the k=2 row has NULL x.
  std::map<int64_t, std::vector<const Row*>> by_uid;
  int nulls = 0;
  const std::vector<Row> flat_rows = flat.Collect();
  for (const auto& r : flat_rows) {
    by_uid[r.fields[0].AsInt()].push_back(&r);
    if (r.fields[2].is_null()) ++nulls;
  }
  EXPECT_EQ(by_uid.size(), 2u);
  EXPECT_EQ(nulls, 1);
}

TEST(OpsTest, DistinctRemovesDuplicates) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto ds = Source(&cluster, KvSchema(),
                   KvRows({{1, 1}, {1, 1}, {1, 2}, {2, 2}, {2, 2}}), "in")
                .ValueOrDie();
  auto d = Distinct(&cluster, ds, "dedup").ValueOrDie();
  EXPECT_EQ(d.NumRows(), 3u);
}

TEST(OpsTest, DistinctCountsKeyedWork) {
  // 1000 rows over 100 distinct (k, v) pairs: 100 keys built, 900 duplicate
  // membership hits, 10 rows per key — counted on the flat table over
  // encoded keys.
  Cluster cluster(ClusterConfig{.num_partitions = 8, .num_threads = 1});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 1000; ++i) {
    rows.push_back(
        Row({Field::Int(i % 100), Field::Str("v" + std::to_string(i % 100))}));
  }
  Schema s({{"k", nrc::Type::Int()}, {"v", nrc::Type::String()}});
  auto ds = Source(&cluster, s, std::move(rows), "in").ValueOrDie();
  cluster.stats().Reset();
  auto out = Distinct(&cluster, ds, "dedup").ValueOrDie();
  EXPECT_EQ(out.NumRows(), 100u);
  const StageStats& stage = cluster.stats().stages().back();
  EXPECT_EQ(stage.hash_build_rows, 100u);
  EXPECT_EQ(stage.hash_probe_hits, 900u);
  EXPECT_EQ(stage.hash_max_chain, 10u);
  EXPECT_GT(stage.key_encode_bytes, 0u);
  EXPECT_GT(stage.hash_table_bytes, 0u);
  EXPECT_GT(stage.columnar_bytes, 0u);
  EXPECT_EQ(stage.column_to_row_conversions, 0u);
}

TEST(OpsTest, BagKeysAreRejectedByKeyedOperators) {
  // Keyed operators require flat keys: a bag-typed key column reaching the
  // key codec fails the operator with the codec's TypeError, at any thread
  // count.
  const Schema bag_schema(
      {{"b", nrc::Type::Bag(nrc::Type::Tuple({{"x", nrc::Type::Int()}}))},
       {"v", nrc::Type::Int()}});
  auto bag_rows = [] {
    std::vector<Row> rows;
    for (int64_t i = 0; i < 40; ++i) {
      rows.push_back(Row({Field::Bag({Row({Field::Int(i % 5)})}),
                          Field::Int(i)}));
    }
    return rows;
  };
  auto expect_flat_key_error = [](const Status& st) {
    EXPECT_EQ(st.code(), StatusCode::kTypeError) << st.ToString();
    EXPECT_NE(st.ToString().find("keys must be flat"), std::string::npos)
        << st.ToString();
  };
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Cluster cluster(
        ClusterConfig{.num_partitions = 4, .num_threads = threads});
    auto ds = Source(&cluster, bag_schema, bag_rows(), "bags").ValueOrDie();
    auto other = Source(&cluster, bag_schema, bag_rows(), "more").ValueOrDie();

    auto distinct = Distinct(&cluster, ds, "dedup");
    ASSERT_FALSE(distinct.ok());
    expect_flat_key_error(distinct.status());

    auto nest = NestGroup(&cluster, ds, {0}, {1}, "vs", "nest");
    ASSERT_FALSE(nest.ok());
    expect_flat_key_error(nest.status());

    auto join = HashJoin(&cluster, ds, other, {0}, {0}, JoinType::kInner,
                         "join");
    ASSERT_FALSE(join.ok());
    expect_flat_key_error(join.status());
  }
}

TEST(OpsTest, CoGroupAttachesMatchBags) {
  Cluster cluster(ClusterConfig{.num_partitions = 4});
  auto l = Source(&cluster, KvSchema(), KvRows({{1, 10}, {2, 20}}), "l")
               .ValueOrDie();
  auto r = Source(&cluster,
                  Schema({{"k2", nrc::Type::Int()}, {"w", nrc::Type::Int()}}),
                  KvRows({{1, 100}, {1, 101}}), "r")
               .ValueOrDie();
  auto cg =
      CoGroup(&cluster, l, r, {0}, {0}, {1}, "matches", "cogroup").ValueOrDie();
  EXPECT_EQ(cg.NumRows(), 2u);
  for (const auto& row : cg.Collect()) {
    if (row.fields[0].AsInt() == 1) {
      EXPECT_EQ(row.fields[2].AsBag()->size(), 2u);
    } else {
      EXPECT_TRUE(row.fields[2].AsBag()->empty());
    }
  }
}

TEST(OpsTest, MemoryCapTriggersResourceExhausted) {
  // Inputs are exempt (pre-cached), but the first real operator over them
  // must hit the cap.
  ClusterConfig cfg{.num_partitions = 2, .partition_memory_cap = 512};
  Cluster cluster(cfg);
  // Spilling (on by default) would turn this overflow into disk runs and
  // succeed; this test is about the historical hard failure.
  cluster.set_spill_enabled(false);
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(Row({Field::Int(i), Field::Str(std::string(64, 'x'))}));
  }
  Schema s({{"k", nrc::Type::Int()}, {"s", nrc::Type::String()}});
  auto ds = Source(&cluster, s, std::move(rows), "in");
  ASSERT_TRUE(ds.ok()) << "inputs are exempt from the cap";
  auto filtered = RunStagePipeline(
      &cluster, *ds, ds->schema,
      {RowTransform::Select("copy", [](const CellRow&) { return true; })},
      ds->partitioning, "copy");
  ASSERT_FALSE(filtered.ok());
  EXPECT_TRUE(filtered.status().IsResourceExhausted());
}

TEST(OpsTest, SourcesRejectRowsOfTheWrongWidth) {
  // Partitions hold schema-width rows only, so both sources reject a short
  // or a long input row with a named Invalid before storing or hashing any
  // row (a short row would otherwise miss the key column), and record no
  // stage.
  for (int threads : {1, 4}) {
    for (size_t width : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " width " +
                   std::to_string(width));
      ClusterConfig cfg{.num_partitions = 4};
      cfg.num_threads = threads;
      Cluster cluster(cfg);
      std::vector<Row> rows = KvRows({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
      Row bad;
      for (size_t c = 0; c < width; ++c) bad.fields.push_back(Field::Int(9));
      rows.insert(rows.begin() + 2, bad);
      const std::string widths = " has width " + std::to_string(width) +
                                 ", schema has width 2";

      auto plain = Source(&cluster, KvSchema(), rows, "in");
      ASSERT_FALSE(plain.ok());
      EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(plain.status().message(), "source(in): row 2" + widths);

      auto keyed = SourcePartitioned(&cluster, KvSchema(), rows, {1}, "in");
      ASSERT_FALSE(keyed.ok());
      EXPECT_EQ(keyed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(keyed.status().message(),
                "source_partitioned(in): row 2" + widths);
      EXPECT_TRUE(cluster.stats().stages().empty());
    }
  }
}

TEST(OpsTest, SkewedKeysOverloadOnePartitionInStats) {
  // One heavy key: max receive bytes should dominate total/num_partitions.
  Cluster cluster(ClusterConfig{.num_partitions = 8});
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int i = 0; i < 2000; ++i) kv.push_back({7, i});
  for (int i = 0; i < 100; ++i) kv.push_back({i + 100, i});
  auto ds = Source(&cluster, KvSchema(), KvRows(kv), "in").ValueOrDie();
  cluster.stats().Reset();
  Repartition(&cluster, ds, {0}, "skewed_shuffle").ValueOrDie();
  const auto& st = cluster.stats().stages().back();
  EXPECT_GT(st.max_partition_recv_bytes * 2,
            st.shuffle_bytes);  // one partition got most of the data
}

TEST(OpsTest, SimulatedTimeReflectsStragglers) {
  // Same total data, skewed vs uniform keys: the skewed shuffle must cost
  // more simulated time despite equal row counts.
  auto run = [](bool skewed) {
    ClusterConfig cfg{.num_partitions = 8};
    cfg.stage_overhead_seconds = 0;  // isolate the straggler term
    Cluster cluster(cfg);
    std::vector<std::pair<int64_t, int64_t>> kv;
    for (int i = 0; i < 4000; ++i) {
      kv.push_back({skewed ? 1 : i, i});
    }
    auto ds = Source(&cluster, KvSchema(), KvRows(kv), "in").ValueOrDie();
    cluster.stats().Reset();
    Repartition(&cluster, ds, {0}, "shuffle").ValueOrDie();
    return cluster.stats().sim_seconds();
  };
  EXPECT_GT(run(true), run(false) * 2);
}


// --- Keyed operators against a row-at-a-time reference --------------------
//
// The keyed operators decide row placement with row-index lists and build
// their outputs one column at a time. The reference below recomputes every
// output from PartitionRows, one row at a time, with the definitions the
// operators document: hash placement by RowHashOn, key identity as the
// codec's (Field-equal and hash-equal per column, so Int(1) and Real(1.0)
// are distinct keys), NULL keys never joining, first-seen group order, and
// the miss-marker rules.

using Parts = std::vector<std::vector<Row>>;

Parts PartsOf(const Dataset& d) {
  Parts out;
  for (size_t p = 0; p < d.NumPartitions(); ++p) {
    out.push_back(d.PartitionRows(p));
  }
  return out;
}

bool SameKey(const Row& a, const std::vector<int>& ca, const Row& b,
             const std::vector<int>& cb) {
  for (size_t k = 0; k < ca.size(); ++k) {
    const Field& x = a.fields[static_cast<size_t>(ca[k])];
    const Field& y = b.fields[static_cast<size_t>(cb[k])];
    if (!(x == y) || x.Hash() != y.Hash()) return false;
  }
  return true;
}

bool HasNullKey(const Row& r, const std::vector<int>& cols) {
  for (int c : cols) {
    if (r.fields[static_cast<size_t>(c)].is_null()) return true;
  }
  return false;
}

Row Project(const Row& r, const std::vector<int>& cols) {
  Row out;
  for (int c : cols) out.fields.push_back(r.fields[static_cast<size_t>(c)]);
  return out;
}

Row Concat(const Row& a, const Row& b) {
  Row out = a;
  out.fields.insert(out.fields.end(), b.fields.begin(), b.fields.end());
  return out;
}

std::vector<int> Iota(size_t from, size_t n) {
  std::vector<int> out;
  for (size_t i = 0; i < n; ++i) out.push_back(static_cast<int>(from + i));
  return out;
}

/// ShuffleOrReuse: a reused input keeps its partitions; otherwise every row
/// moves to PartitionOf(RowHashOn) and each target concatenates its sources
/// in partition order.
Parts RefShuffle(Cluster* cluster, const Parts& in, bool reuse,
                 const std::vector<int>& keys) {
  if (reuse) return in;
  Parts out(static_cast<size_t>(cluster->num_partitions()));
  for (const auto& part : in) {
    for (const Row& r : part) {
      out[static_cast<size_t>(cluster->PartitionOf(RowHashOn(r, keys)))]
          .push_back(r);
    }
  }
  return out;
}

/// Row indices of each group of `rows` on `keys`, groups in first-seen order.
std::vector<std::vector<size_t>> RefGroups(const std::vector<Row>& rows,
                                           const std::vector<int>& keys) {
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < rows.size(); ++i) {
    bool found = false;
    for (auto& g : groups) {
      if (SameKey(rows[g[0]], keys, rows[i], keys)) {
        g.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) groups.push_back({i});
  }
  return groups;
}

Parts RefJoin(const Parts& l, const Parts& r, const std::vector<int>& lk,
              const std::vector<int>& rk, JoinType type, size_t right_width) {
  Parts out(l.size());
  for (size_t p = 0; p < l.size(); ++p) {
    for (const Row& lr : l[p]) {
      bool matched = false;
      if (!HasNullKey(lr, lk)) {
        for (const Row& rr : r[p]) {
          if (HasNullKey(rr, rk) || !SameKey(lr, lk, rr, rk)) continue;
          matched = true;
          out[p].push_back(Concat(lr, rr));
        }
      }
      if (!matched && type == JoinType::kLeftOuter) {
        out[p].push_back(
            Concat(lr, Row(std::vector<Field>(right_width, Field::Null()))));
      }
    }
  }
  return out;
}

Parts RefCoGroup(const Parts& l, const Parts& r, const std::vector<int>& lk,
                 const std::vector<int>& rk, const std::vector<int>& vals) {
  Parts out(l.size());
  for (size_t p = 0; p < l.size(); ++p) {
    for (const Row& lr : l[p]) {
      std::vector<Row> bag;
      if (!HasNullKey(lr, lk)) {
        for (const Row& rr : r[p]) {
          if (!HasNullKey(rr, rk) && SameKey(lr, lk, rr, rk)) {
            bag.push_back(Project(rr, vals));
          }
        }
      }
      Row row = lr;
      row.fields.push_back(Field::Bag(std::move(bag)));
      out[p].push_back(std::move(row));
    }
  }
  return out;
}

Parts RefNest(const Parts& in, const std::vector<int>& keys,
              const std::vector<int>& vals, const std::vector<int>& miss_cols) {
  Parts out(in.size());
  for (size_t p = 0; p < in.size(); ++p) {
    for (const auto& g : RefGroups(in[p], keys)) {
      std::vector<Row> bag;
      for (size_t i : g) {
        bool miss = !miss_cols.empty();
        for (int c : miss_cols) {
          miss &= in[p][i].fields[static_cast<size_t>(c)].is_null();
        }
        if (!miss) bag.push_back(Project(in[p][i], vals));
      }
      Row row = Project(in[p][g[0]], keys);
      row.fields.push_back(Field::Bag(std::move(bag)));
      out[p].push_back(std::move(row));
    }
  }
  return out;
}

/// One aggregation pass: (keys, sums) per group; all-NULL value rows are
/// misses, a group without a contribution emits NULLs.
std::vector<Row> RefAggregate(const std::vector<Row>& rows,
                              const std::vector<int>& keys,
                              const std::vector<int>& vals,
                              const std::vector<bool>& is_int) {
  std::vector<Row> out;
  for (const auto& g : RefGroups(rows, keys)) {
    std::vector<double> sums(vals.size(), 0.0);
    bool seen = false;
    for (size_t i : g) {
      bool all_null = !vals.empty();
      for (int c : vals) {
        all_null &= rows[i].fields[static_cast<size_t>(c)].is_null();
      }
      if (all_null) continue;
      seen = true;
      for (size_t v = 0; v < vals.size(); ++v) {
        const Field& f = rows[i].fields[static_cast<size_t>(vals[v])];
        if (!f.is_null()) sums[v] += f.AsNumber();
      }
    }
    Row row = Project(rows[g[0]], keys);
    for (size_t v = 0; v < vals.size(); ++v) {
      row.fields.push_back(!seen ? Field::Null()
                           : is_int[v]
                               ? Field::Int(static_cast<int64_t>(sums[v]))
                               : Field::Real(sums[v]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

Parts RefSum(Cluster* cluster, const Dataset& in, const std::vector<int>& keys,
             const std::vector<int>& vals, bool combine,
             const std::vector<bool>& is_int) {
  Parts partial;
  for (const auto& part : PartsOf(in)) {
    if (combine) {
      partial.push_back(RefAggregate(part, keys, vals, is_int));
    } else {
      std::vector<Row> reshaped;
      for (const Row& r : part) {
        reshaped.push_back(Concat(Project(r, keys), Project(r, vals)));
      }
      partial.push_back(std::move(reshaped));
    }
  }
  const std::vector<int> pk = Iota(0, keys.size());
  Parts shuffled =
      RefShuffle(cluster, partial, in.partitioning.IsHashOn(keys), pk);
  Parts out;
  for (const auto& part : shuffled) {
    out.push_back(
        RefAggregate(part, pk, Iota(keys.size(), vals.size()), is_int));
  }
  return out;
}

Parts RefDistinct(const Parts& in, size_t width) {
  Parts out(in.size());
  for (size_t p = 0; p < in.size(); ++p) {
    for (const auto& g : RefGroups(in[p], Iota(0, width))) {
      out[p].push_back(in[p][g[0]]);
    }
  }
  return out;
}

/// Cell identity: equal value and hash, and bag rows equal in order.
void ExpectSameField(const Field& got, const Field& want,
                     const std::string& at) {
  if (want.is_bag()) {
    ASSERT_TRUE(got.is_bag()) << at << ": got " << got.ToString();
    ASSERT_EQ(got.AsBag()->size(), want.AsBag()->size()) << at;
    for (size_t i = 0; i < want.AsBag()->size(); ++i) {
      const Row& gr = (*got.AsBag())[i];
      const Row& wr = (*want.AsBag())[i];
      ASSERT_EQ(gr.fields.size(), wr.fields.size()) << at;
      for (size_t f = 0; f < wr.fields.size(); ++f) {
        ExpectSameField(gr.fields[f], wr.fields[f],
                        at + " bag row " + std::to_string(i));
      }
    }
    return;
  }
  EXPECT_TRUE(got == want && got.Hash() == want.Hash())
      << at << ": got " << got.ToString() << ", want " << want.ToString();
}

void ExpectParts(const Dataset& got, const Parts& want,
                 const std::string& what) {
  ASSERT_EQ(got.NumPartitions(), want.size()) << what;
  for (size_t p = 0; p < want.size(); ++p) {
    const std::vector<Row> rows = got.PartitionRows(p);
    ASSERT_EQ(rows.size(), want[p].size()) << what << " partition " << p;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i].fields.size(), want[p][i].fields.size()) << what;
      for (size_t f = 0; f < rows[i].fields.size(); ++f) {
        ExpectSameField(rows[i].fields[f], want[p][i].fields[f],
                        what + " p" + std::to_string(p) + " row " +
                            std::to_string(i) + " col " + std::to_string(f));
      }
      // Per-row byte accounting stays exact after the column gathers.
      EXPECT_EQ(got.store.block(p).RowBytesAt(i), RowDeepSize(want[p][i]))
          << what;
    }
  }
}

/// Left-side rows: an int key with NULLs and, now and then, a Real key
/// (which demotes the key column and must not match Int keys of equal
/// value), a string key with NULLs next to empty strings, an int value and
/// a real value (both sometimes NULL, together marking a miss row).
std::vector<Row> RefLeftRows(Rng* rng, size_t n) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    int64_t k = rng->UniformRange(0, 7);
    Field key = rng->NextBool(0.1)    ? Field::Null()
                : rng->NextBool(0.08) ? Field::Real(static_cast<double>(k))
                                      : Field::Int(k);
    Field s = rng->NextBool(0.1) ? Field::Null()
                                 : Field::Str(rng->NextString(rng->Uniform(2)));
    const bool miss = rng->NextBool(0.15);
    Field v = miss || rng->NextBool(0.1) ? Field::Null()
                                         : Field::Int(rng->UniformRange(-5, 9));
    Field x = miss || rng->NextBool(0.1)
                  ? Field::Null()
                  : Field::Real(rng->UniformReal(-2.0, 2.0));
    rows.push_back(Row({key, s, v, x}));
  }
  return rows;
}

std::vector<Row> RefRightRows(Rng* rng, size_t n) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Field key = rng->NextBool(0.1) ? Field::Null()
                                   : Field::Int(rng->UniformRange(0, 9));
    Field w = rng->NextBool(0.1) ? Field::Null()
                                 : Field::Str(rng->NextString(rng->Uniform(2)));
    rows.push_back(Row({key, w, Field::Int(static_cast<int64_t>(i))}));
  }
  return rows;
}

/// Runs every keyed operator on one cluster, checking each output against
/// the reference; the cluster's stats are compared across thread counts.
void RunKeyedOperatorsAgainstReference(Cluster* cluster) {
  Schema ls({{"k", nrc::Type::Int()},
             {"s", nrc::Type::String()},
             {"v", nrc::Type::Int()},
             {"x", nrc::Type::Real()}});
  Schema rs({{"k2", nrc::Type::Int()},
             {"w", nrc::Type::String()},
             {"n", nrc::Type::Int()}});
  Rng rng(2024);
  Dataset l = Source(cluster, ls, RefLeftRows(&rng, 90), "l").ValueOrDie();
  Dataset l2 = Source(cluster, ls, RefLeftRows(&rng, 30), "l2").ValueOrDie();
  Dataset r = Source(cluster, rs, RefRightRows(&rng, 60), "r").ValueOrDie();
  // Two rows over four partitions: most right partitions are empty.
  Dataset tiny =
      Source(cluster, rs, RefRightRows(&rng, 2), "tiny").ValueOrDie();
  const size_t rw = rs.size();

  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    const std::string t = type == JoinType::kInner ? "inner" : "left_outer";
    ExpectParts(
        HashJoin(cluster, l, r, {0}, {0}, type, "join").ValueOrDie(),
        RefJoin(RefShuffle(cluster, PartsOf(l), false, {0}),
                RefShuffle(cluster, PartsOf(r), false, {0}), {0}, {0}, type,
                rw),
        "join " + t);
    ExpectParts(
        HashJoin(cluster, l, tiny, {0, 1}, {0, 1}, type, "join2")
            .ValueOrDie(),
        RefJoin(RefShuffle(cluster, PartsOf(l), false, {0, 1}),
                RefShuffle(cluster, PartsOf(tiny), false, {0, 1}), {0, 1},
                {0, 1}, type, rw),
        "join tiny " + t);
    Parts bcast(l.NumPartitions(), r.Collect());
    ExpectParts(
        BroadcastJoin(cluster, l, r, {0}, {0}, type, "bjoin").ValueOrDie(),
        RefJoin(PartsOf(l), bcast, {0}, {0}, type, rw), "broadcast " + t);
  }

  Dataset cg =
      CoGroup(cluster, l, r, {0}, {0}, {1, 2}, "bag", "cogroup").ValueOrDie();
  ExpectParts(cg,
              RefCoGroup(RefShuffle(cluster, PartsOf(l), false, {0}),
                         RefShuffle(cluster, PartsOf(r), false, {0}), {0},
                         {0}, {1, 2}),
              "cogroup");
  // Misses carry empty bags; left rows that share a key carry equal bags.
  const std::vector<Row> cg_rows = cg.Collect();
  size_t shared = 0;
  for (size_t i = 0; i < cg_rows.size(); ++i) {
    const Row& a = cg_rows[i];
    if (a.fields[0].is_null()) {
      EXPECT_TRUE(a.fields[4].AsBag()->empty());
    }
    for (size_t j = i + 1; j < cg_rows.size(); ++j) {
      if (!a.fields[0].is_null() && SameKey(a, {0}, cg_rows[j], {0})) {
        EXPECT_EQ(a.fields[4], cg_rows[j].fields[4]);
        ++shared;
      }
    }
  }
  EXPECT_GT(shared, 0u);

  Dataset lp = Repartition(cluster, l, {0}, "repart").ValueOrDie();
  ExpectParts(lp, RefShuffle(cluster, PartsOf(l), false, {0}),
              "repartition shuffle");
  ExpectParts(Repartition(cluster, lp, {0}, "repart_reuse").ValueOrDie(),
              PartsOf(lp), "repartition reuse");

  for (const Dataset* in : {&l, &lp}) {
    const std::string path = in == &l ? " shuffle" : " reuse";
    const bool reuse = in->partitioning.IsHashOn({0});
    // Fallback miss rule (s and v NULL) and an explicit indicator (x).
    ExpectParts(
        NestGroup(cluster, *in, {0}, {1, 2}, "vals", "nest").ValueOrDie(),
        RefNest(RefShuffle(cluster, PartsOf(*in), reuse, {0}), {0}, {1, 2},
                {1, 2}),
        "nest" + path);
    ExpectParts(
        NestGroup(cluster, *in, {0}, {1, 2, 3}, "vals", "nest_ind", {3})
            .ValueOrDie(),
        RefNest(RefShuffle(cluster, PartsOf(*in), reuse, {0}), {0},
                {1, 2, 3}, {3}),
        "nest indicator" + path);
    for (bool combine : {true, false}) {
      const std::string c = combine ? " combine" : " no-combine";
      ExpectParts(
          SumAggregate(cluster, *in, {0}, {2, 3}, combine, "sum")
              .ValueOrDie(),
          RefSum(cluster, *in, {0}, {2, 3}, combine, {true, false}),
          "sum" + c + path);
      ExpectParts(
          SumAggregate(cluster, *in, {1, 0}, {3}, combine, "sum2")
              .ValueOrDie(),
          RefSum(cluster, *in, {1, 0}, {3}, combine, {false}),
          "sum two keys" + c + path);
    }
  }

  Dataset u = UnionAll(cluster, l, l2, "union").ValueOrDie();
  Parts want_u = PartsOf(l);
  Parts l2p = PartsOf(l2);
  for (size_t p = 0; p < want_u.size(); ++p) {
    want_u[p].insert(want_u[p].end(), l2p[p].begin(), l2p[p].end());
  }
  ExpectParts(u, want_u, "union");
  // Dedup the union with l again, so every row of l has a duplicate.
  Dataset ll = UnionAll(cluster, u, l, "union2").ValueOrDie();
  ExpectParts(Distinct(cluster, ll, "dedup").ValueOrDie(),
              RefDistinct(RefShuffle(cluster, PartsOf(ll), false,
                                     Iota(0, ls.size())),
                          ls.size()),
              "distinct");
}

TEST(OpsTest, KeyedOperatorsMatchRowReference) {
  Cluster c1(ClusterConfig{.num_partitions = 4, .num_threads = 1});
  Cluster c4(ClusterConfig{.num_partitions = 4, .num_threads = 4});
  {
    SCOPED_TRACE("1 thread");
    RunKeyedOperatorsAgainstReference(&c1);
  }
  {
    SCOPED_TRACE("4 threads");
    RunKeyedOperatorsAgainstReference(&c4);
  }
  testing_util::ExpectSameStats(c1.stats(), c4.stats());
}

}  // namespace
}  // namespace runtime
}  // namespace trance
