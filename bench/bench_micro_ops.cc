// Micro-benchmarks (google-benchmark) for the runtime primitives and the
// shredding kernels: shuffle hash join vs broadcast join, nest vs cogroup,
// sum aggregation with/without map-side combine, value shredding and
// unshredding, heavy-key detection, and dedup.
//
// BM_FlatHashBuild/BM_FlatHashProbe time the flat open-addressing key
// table directly; BM_ColumnScan/BM_ColumnProject compare typed
// PartitionBlock column loops against a row-vector Field-dispatch loop over
// the same values; BM_FusedStage times one fused project -> select ->
// outer-unnest -> extend stage over a block-resident partition with a bag
// column. main() additionally runs fixed-size rows/sec regression passes
// over dedup, join build/probe, and nest — to BENCH_micro_key_codec.json,
// BENCH_micro_columnar.json (plus the raw scan comparison), the
// block-resident keyed chain and the repack boundary tax to
// BENCH_micro_resident.json, and forced spilling to BENCH_micro_spill.json —
// before the google-benchmark suite starts.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "exec/scalar_compiler.h"
#include "nrc/builder.h"
#include "runtime/cluster.h"
#include "runtime/column.h"
#include "runtime/flat_hash.h"
#include "runtime/key_codec.h"
#include "runtime/ops.h"
#include "runtime/serde.h"
#include "runtime/spill.h"
#include "shred/value_shredder.h"
#include "skew/skew.h"
#include "util/random.h"

namespace trance {
namespace {

using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::Dataset;
using runtime::Field;
using runtime::Row;
using runtime::Schema;

Schema KvSchema() {
  return Schema({{"k", nrc::Type::Int()}, {"v", nrc::Type::Real()}});
}

Dataset MakeKv(Cluster* cluster, int64_t n, int64_t keys, double zipf,
               uint64_t seed) {
  Rng rng(seed);
  ZipfSampler sampler(static_cast<size_t>(keys), zipf);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Row({Field::Int(static_cast<int64_t>(sampler.Sample(&rng))),
                        Field::Real(rng.NextDouble())}));
  }
  return runtime::Source(cluster, KvSchema(), std::move(rows), "kv")
      .ValueOrDie();
}

void BM_HashJoin(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  Dataset l = MakeKv(&cluster, state.range(0), 1000, 0.0, 1);
  Dataset r = MakeKv(&cluster, 1000, 1000, 0.0, 2);
  for (auto _ : state) {
    auto j = runtime::HashJoin(&cluster, l, r, {0}, {0},
                               runtime::JoinType::kInner, "join");
    benchmark::DoNotOptimize(j);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(10000)->Arg(100000);

void BM_BroadcastJoin(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  Dataset l = MakeKv(&cluster, state.range(0), 1000, 0.0, 1);
  Dataset r = MakeKv(&cluster, 1000, 1000, 0.0, 2);
  for (auto _ : state) {
    auto j = runtime::BroadcastJoin(&cluster, l, r, {0}, {0},
                                    runtime::JoinType::kInner, "bjoin");
    benchmark::DoNotOptimize(j);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BroadcastJoin)->Arg(10000)->Arg(100000);

void BM_SkewAwareJoin(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  // Heavily skewed left side.
  Dataset l = MakeKv(&cluster, state.range(0), 1000, 3.0, 1);
  Dataset r = MakeKv(&cluster, 1000, 1000, 0.0, 2);
  for (auto _ : state) {
    auto lt = skew::SkewTriple::AllLight(l);
    auto rt = skew::SkewTriple::AllLight(r);
    auto j = skew::SkewAwareJoin(&cluster, lt, rt, {0}, {0},
                                 runtime::JoinType::kInner, "sjoin");
    benchmark::DoNotOptimize(j);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkewAwareJoin)->Arg(10000)->Arg(100000);

void BM_SumAggregate(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  Dataset ds = MakeKv(&cluster, state.range(0), 64, 0.0, 3);
  bool combine = state.range(1) != 0;
  for (auto _ : state) {
    auto out =
        runtime::SumAggregate(&cluster, ds, {0}, {1}, combine, "sum");
    benchmark::DoNotOptimize(out);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SumAggregate)->Args({100000, 1})->Args({100000, 0});

void BM_NestGroup(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  Dataset ds = MakeKv(&cluster, state.range(0), 1024, 0.0, 4);
  for (auto _ : state) {
    auto out = runtime::NestGroup(&cluster, ds, {0}, {1}, "bag", "nest");
    benchmark::DoNotOptimize(out);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NestGroup)->Arg(100000);

Dataset MakeDup(Cluster* cluster, int64_t n, int64_t distinct, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int64_t k = rng.UniformRange(0, distinct);
    rows.push_back(Row({Field::Int(k), Field::Str("p" + std::to_string(k))}));
  }
  Schema s({{"k", nrc::Type::Int()}, {"p", nrc::Type::String()}});
  return runtime::Source(cluster, std::move(s), std::move(rows), "dup")
      .ValueOrDie();
}

void BM_Distinct(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  // ~16 duplicates per distinct row: the membership-test path dominates
  // (the path that historically deep-copied the whole row per test).
  Dataset ds = MakeDup(&cluster, state.range(0), state.range(0) / 16, 6);
  for (auto _ : state) {
    auto out = runtime::Distinct(&cluster, ds, "dedup");
    benchmark::DoNotOptimize(out);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Distinct)->Arg(100000);

void BM_HeavyKeyDetection(benchmark::State& state) {
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  Dataset ds = MakeKv(&cluster, state.range(0), 1000, 2.0, 5);
  for (auto _ : state) {
    auto hk = skew::DetectHeavyKeys(&cluster, ds, {0});
    benchmark::DoNotOptimize(hk);
    cluster.stats().Reset();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeavyKeyDetection)->Arg(100000);

nrc::Value MakeNested(int64_t customers, int64_t orders_per,
                      int64_t parts_per) {
  Rng rng(7);
  std::vector<nrc::Value> tops;
  for (int64_t c = 0; c < customers; ++c) {
    std::vector<nrc::Value> os;
    for (int64_t o = 0; o < orders_per; ++o) {
      std::vector<nrc::Value> ps;
      for (int64_t k = 0; k < parts_per; ++k) {
        ps.push_back(nrc::Value::Tuple(
            {{"pid", nrc::Value::Int(rng.UniformRange(0, 100))},
             {"qty", nrc::Value::Real(rng.NextDouble())}}));
      }
      os.push_back(nrc::Value::Tuple({{"odate", nrc::Value::Int(o)},
                                      {"oparts", nrc::Value::Bag(ps)}}));
    }
    tops.push_back(nrc::Value::Tuple(
        {{"cname", nrc::Value::Str("c" + std::to_string(c))},
         {"corders", nrc::Value::Bag(os)}}));
  }
  return nrc::Value::Bag(tops);
}

nrc::TypePtr NestedType() {
  using nrc::dsl::BagTu;
  using nrc::Type;
  return BagTu(
      {{"cname", Type::String()},
       {"corders",
        BagTu({{"odate", Type::Int()},
               {"oparts",
                BagTu({{"pid", Type::Int()}, {"qty", Type::Real()}})}})}});
}

namespace key_codec = runtime::key_codec;
namespace flat_hash = runtime::flat_hash;

/// Pre-encoded distinct keys for the container micro-benchmarks (an int +
/// short string key, the shape the keyed operators encode most).
std::vector<key_codec::EncodedKey> MakeEncodedKeys(int64_t n) {
  runtime::column::PartitionBlock block(
      Schema({{"k", nrc::Type::Int()}, {"s", nrc::Type::String()}}));
  for (int64_t i = 0; i < n; ++i) {
    block.AppendRow(Row({Field::Int(i), Field::Str("k" + std::to_string(i))}));
  }
  key_codec::KeyEncoder enc;
  std::vector<key_codec::EncodedKey> keys;
  keys.reserve(static_cast<size_t>(n));
  for (size_t i = 0; i < block.NumRows(); ++i) {
    keys.push_back(
        key_codec::Materialize(enc.EncodeRowAt(block, i).ValueOrDie()));
  }
  return keys;
}

/// Flat-table build: insert n distinct pre-encoded keys, growth included
/// (tables start empty, as nest/aggregate builds do).
void BM_FlatHashBuild(benchmark::State& state) {
  std::vector<key_codec::EncodedKey> keys = MakeEncodedKeys(state.range(0));
  for (auto _ : state) {
    flat_hash::FlatKeyIndex idx;
    for (const auto& k : keys) {
      benchmark::DoNotOptimize(
          idx.FindOrInsert(key_codec::EncodedKeyView{k.hash, k.bytes}));
    }
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatHashBuild)->Arg(1000)->Arg(100000);

/// Flat-table probe: every lookup hits a key built once outside the timed
/// loop (the join-probe access pattern).
void BM_FlatHashProbe(benchmark::State& state) {
  std::vector<key_codec::EncodedKey> keys = MakeEncodedKeys(state.range(0));
  flat_hash::FlatKeyIndex idx(keys.size());
  for (const auto& k : keys) {
    idx.FindOrInsert(key_codec::EncodedKeyView{k.hash, k.bytes});
  }
  for (auto _ : state) {
    uint64_t found = 0;
    for (const auto& k : keys) {
      found += idx.Find(key_codec::EncodedKeyView{k.hash, k.bytes}) !=
               flat_hash::FlatKeyIndex::kNotFound;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatHashProbe)->Arg(1000)->Arg(100000);

namespace column = runtime::column;

/// Rows for the row-vs-block column benchmarks: the kv shape (int key,
/// real value), the layout the typed scan loops target.
std::vector<Row> MakeScanRows(int64_t n) {
  Rng rng(9);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Row({Field::Int(rng.UniformRange(0, 1 << 20)),
                        Field::Real(rng.NextDouble())}));
  }
  return rows;
}

/// Column scan ablation (PR 8): sum the int and real columns of n rows.
/// arg 1 = 1 scans the PartitionBlock's flat typed arrays; arg 1 = 0 is the
/// historical row loop with per-cell variant dispatch. The block build is
/// outside the timed loop (operators amortize it across the whole stage).
void BM_ColumnScan(benchmark::State& state) {
  std::vector<Row> rows = MakeScanRows(state.range(0));
  column::PartitionBlock block =
      column::PartitionBlock::FromRows(KvSchema(), rows);
  const bool columnar = state.range(1) != 0;
  for (auto _ : state) {
    int64_t isum = 0;
    double rsum = 0;
    if (columnar) {
      const int64_t* ks = block.col(0).ints();
      const double* vs = block.col(1).reals();
      for (size_t i = 0; i < block.NumRows(); ++i) {
        isum += ks[i];
        rsum += vs[i];
      }
    } else {
      for (const Row& r : rows) {
        isum += r.fields[0].AsInt();
        rsum += r.fields[1].AsReal();
      }
    }
    benchmark::DoNotOptimize(isum);
    benchmark::DoNotOptimize(rsum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnScan)->Args({65536, 1})->Args({65536, 0});

/// Column project ablation (PR 8): copy the (int, real) columns out of a
/// three-column (int, real, string) input. The block path appends
/// column-wise (typed array copies, string arena untouched); the row path
/// copies Fields row-by-row into fresh Rows.
void BM_ColumnProject(benchmark::State& state) {
  Rng rng(10);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(state.range(0)));
  for (int64_t i = 0; i < state.range(0); ++i) {
    rows.push_back(Row({Field::Int(i), Field::Real(rng.NextDouble()),
                        Field::Str("p" + std::to_string(i % 997))}));
  }
  Schema s({{"k", nrc::Type::Int()},
            {"v", nrc::Type::Real()},
            {"p", nrc::Type::String()}});
  column::PartitionBlock block = column::PartitionBlock::FromRows(s, rows);
  const bool columnar = state.range(1) != 0;
  for (auto _ : state) {
    if (columnar) {
      column::AnyColumn k(column::AnyColumn::Kind::kInt64);
      column::AnyColumn v(column::AnyColumn::Kind::kReal);
      for (size_t i = 0; i < block.NumRows(); ++i) {
        k.AppendFrom(block.col(0), i);
        v.AppendFrom(block.col(1), i);
      }
      benchmark::DoNotOptimize(k.size() + v.size());
    } else {
      std::vector<Row> out;
      out.reserve(rows.size());
      for (const Row& r : rows) {
        out.push_back(Row({r.fields[0], r.fields[1]}));
      }
      benchmark::DoNotOptimize(out.size());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnProject)->Args({65536, 1})->Args({65536, 0});

namespace serde = runtime::serde;

/// Rows for the serde throughput benchmarks: the dup shape (int key, short
/// string), written in the 4096-row records the spill manager uses.
std::string SerdeBenchPath() {
  return (std::filesystem::temp_directory_path() /
          ("trance-serde-bench-" + std::to_string(::getpid()) + ".trs"))
      .string();
}

/// Serde write throughput (PR 9): serialize n rows into a run file through
/// BlockFileWriter (bytes/s is the number to watch; docs/STORAGE.md format).
void BM_SerdeWrite(benchmark::State& state) {
  Rng rng(11);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(state.range(0)));
  for (int64_t i = 0; i < state.range(0); ++i) {
    int64_t k = rng.UniformRange(0, 1 << 20);
    rows.push_back(Row({Field::Int(k), Field::Str("p" + std::to_string(k))}));
  }
  const std::string path = SerdeBenchPath();
  uint64_t bytes = 0;
  for (auto _ : state) {
    serde::BlockFileWriter writer;
    TRANCE_CHECK(writer.Open(path).ok(), "serde bench open");
    TRANCE_CHECK(writer.WriteRows(rows).ok(), "serde bench write");
    TRANCE_CHECK(writer.Close().ok(), "serde bench close");
    bytes = writer.bytes_written();
    benchmark::DoNotOptimize(bytes);
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerdeWrite)->Arg(65536);

/// Serde read throughput (PR 9): stream the same run file back into rows.
void BM_SerdeRead(benchmark::State& state) {
  Rng rng(12);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(state.range(0)));
  for (int64_t i = 0; i < state.range(0); ++i) {
    int64_t k = rng.UniformRange(0, 1 << 20);
    rows.push_back(Row({Field::Int(k), Field::Str("p" + std::to_string(k))}));
  }
  const std::string path = SerdeBenchPath();
  {
    serde::BlockFileWriter writer;
    TRANCE_CHECK(writer.Open(path).ok(), "serde bench open");
    TRANCE_CHECK(writer.WriteRows(rows).ok(), "serde bench write");
    TRANCE_CHECK(writer.Close().ok(), "serde bench close");
  }
  uint64_t bytes = 0;
  for (auto _ : state) {
    serde::BlockFileReader reader;
    TRANCE_CHECK(reader.Open(path).ok(), "serde bench open");
    std::vector<Row> back;
    back.reserve(rows.size());
    for (;;) {
      auto more = reader.ReadBatch(&back);
      TRANCE_CHECK(more.ok(), "serde bench read");
      if (!more.value()) break;
    }
    TRANCE_CHECK(back.size() == rows.size(), "serde bench row count");
    bytes = reader.bytes_read();
    TRANCE_CHECK(reader.Close().ok(), "serde bench close");
    benchmark::DoNotOptimize(back);
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerdeRead)->Arg(65536);

/// Block spill round-trip throughput: SpillAndRestoreBlock on an n-row
/// resident block with int, real, string and label columns — the path every
/// block-resident spill site takes (BM_SerdeWrite/BM_SerdeRead time only
/// row-batch records). bytes/s counts spilled bytes written plus read back.
void BM_SpillBlockRoundTrip(benchmark::State& state) {
  Schema schema({{"k", nrc::Type::Int()},
                 {"v", nrc::Type::Real()},
                 {"p", nrc::Type::String()},
                 {"l", nrc::Type::Label()}});
  Rng rng(13);
  column::PartitionBlock block(schema);
  for (int64_t i = 0; i < state.range(0); ++i) {
    int64_t k = rng.UniformRange(0, 1 << 20);
    block.AppendRow(Row({Field::Int(k), Field::Real(rng.NextDouble()),
                         Field::Str("p" + std::to_string(k)),
                         runtime::MakeLabel({{"k", Field::Int(k % 997)}})}));
  }
  runtime::spill::SpillConfig cfg;
  cfg.dir = std::filesystem::temp_directory_path().string();
  runtime::spill::SpillManager manager(cfg);
  uint64_t bytes = 0;
  for (auto _ : state) {
    runtime::spill::SpillCounters c;
    TRANCE_CHECK(
        manager.SpillAndRestoreBlock(1, "bench", 0, schema, &block, &c).ok(),
        "spill bench round trip");
    TRANCE_CHECK(block.NumRows() == static_cast<size_t>(state.range(0)),
                 "spill bench row count");
    bytes = c.bytes_written + c.bytes_read;
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpillBlockRoundTrip)->Arg(65536);

/// Inputs of BM_FusedStage: one n-row block-resident partition (k: int,
/// v: real, p: string, g: {(x: int, y: string)}) whose bags hold 0-3 rows.
Dataset MakeFusedStageInput(int64_t n) {
  Schema schema({{"k", nrc::Type::Int()},
                 {"v", nrc::Type::Real()},
                 {"p", nrc::Type::String()},
                 {"g", nrc::dsl::BagTu({{"x", nrc::Type::Int()},
                                        {"y", nrc::Type::String()}})}});
  Rng rng(14);
  column::PartitionBlock block(schema);
  for (int64_t i = 0; i < n; ++i) {
    int64_t k = rng.UniformRange(0, 1 << 20);
    std::vector<Row> bag;
    for (int64_t e = 0; e < i % 4; ++e) {
      bag.push_back(Row({Field::Int(k + e), Field::Str(std::to_string(e))}));
    }
    block.AppendRow(Row({Field::Int(k), Field::Real(rng.NextDouble()),
                         Field::Str(std::to_string(k % 997)),
                         Field::Bag(std::move(bag))}));
  }
  Dataset ds;
  ds.schema = schema;
  std::vector<column::PartitionBlock> blocks;
  blocks.push_back(std::move(block));
  ds.store = runtime::PartitionStore::OfBlocks(schema, std::move(blocks));
  return ds;
}

/// Fused narrow stage throughput: project -> select -> outer-unnest ->
/// extend over one 65,536-row block-resident partition with a bag column,
/// compiled the way the lowering compiles it (pass-through columns, cell
/// predicates, compiled computed columns). items/s counts input rows.
void BM_FusedStage(benchmark::State& state) {
  using nrc::Expr;
  using runtime::RowTransform;
  Dataset in = MakeFusedStageInput(state.range(0));
  auto compile = [](const nrc::ExprPtr& e, const Schema& s) {
    return exec::CompileCellScalar(e, s).ValueOrDie();
  };
  // project (k, g, p, w := v * 2)
  Schema s1({in.schema.col(0), in.schema.col(3), in.schema.col(2),
             {"w", nrc::Type::Real()}});
  std::vector<runtime::ProjectColumn> proj(4);
  proj[0].src = 0;
  proj[1].src = 3;
  proj[2].src = 2;
  proj[3].fn = compile(nrc::dsl::Mul(Expr::Var("v"), nrc::dsl::R(2.0)),
                       in.schema);
  // select k < 2^19
  runtime::CellPredFn pred =
      exec::CompileCellPredicate(
          nrc::dsl::Lt(Expr::Var("k"), nrc::dsl::I(1 << 19)), s1)
          .ValueOrDie();
  // outer-unnest g with an id column; extend z := x + k
  Schema s2 = runtime::UnnestedSchema(s1, 1, "id").ValueOrDie();
  Schema s3 = s2;
  s3.Append({"z", nrc::Type::Int()});
  std::vector<runtime::ProjectColumn> ext(1);
  ext[0].fn = compile(nrc::dsl::Add(Expr::Var("x"), Expr::Var("k")), s2);
  const std::vector<RowTransform> chain = {
      RowTransform::Project("project", false, proj),
      RowTransform::Select("select", pred),
      RowTransform::OuterUnnest("unnest", 1, true, 2),
      RowTransform::Project("extend", true, ext)};

  ClusterConfig cfg{.num_partitions = 1};
  cfg.num_threads = 1;
  Cluster cluster(cfg);
  cluster.set_spill_enabled(false);
  for (auto _ : state) {
    auto out = runtime::RunStagePipeline(&cluster, in, s3, chain,
                                         runtime::Partitioning::None(),
                                         "fused_stage");
    TRANCE_CHECK(out.ok(), "fused stage bench");
    benchmark::DoNotOptimize(out->NumRows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FusedStage)->Arg(65536);

void BM_ValueShred(benchmark::State& state) {
  nrc::Value v = MakeNested(state.range(0), 10, 10);
  nrc::TypePtr t = NestedType();
  for (auto _ : state) {
    auto sv = shred::ShredValue(v, t);
    benchmark::DoNotOptimize(sv);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 100);
}
BENCHMARK(BM_ValueShred)->Arg(100);

void BM_ValueUnshred(benchmark::State& state) {
  nrc::Value v = MakeNested(state.range(0), 10, 10);
  nrc::TypePtr t = NestedType();
  auto sv = shred::ShredValue(v, t).ValueOrDie();
  for (auto _ : state) {
    auto back = shred::UnshredValue(sv, t);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 100);
}
BENCHMARK(BM_ValueUnshred)->Arg(100);

}  // namespace

// The fixed-size keyed workloads every ablation report times — dedup, join
// build/probe, nest over 200k rows — on `cluster`, appended to `results` as
// distinct<suffix>, hash_join<suffix> and nest<suffix>.
void RunKeyedWorkloads(Cluster* cluster, const std::string& suffix,
                       std::vector<bench::RunResult>* results) {
  const int64_t n = 200000;
  Dataset dup = MakeDup(cluster, n, n / 16, 6);
  size_t rows = 0;
  bench::RunResult r = bench::TimedRun(
      "distinct" + suffix, cluster, [&]() -> Status {
        TRANCE_ASSIGN_OR_RETURN(Dataset out,
                                runtime::Distinct(cluster, dup, "dedup"));
        rows = out.NumRows();
        return Status::OK();
      });
  r.out_rows = rows;
  results->push_back(std::move(r));

  Dataset l = MakeKv(cluster, n, 1000, 0.0, 1);
  Dataset d = MakeKv(cluster, 1000, 1000, 0.0, 2);
  r = bench::TimedRun("hash_join" + suffix, cluster, [&]() -> Status {
    TRANCE_ASSIGN_OR_RETURN(
        Dataset out, runtime::HashJoin(cluster, l, d, {0}, {0},
                                       runtime::JoinType::kInner, "join"));
    rows = out.NumRows();
    return Status::OK();
  });
  r.out_rows = rows;
  results->push_back(std::move(r));

  Dataset kv = MakeKv(cluster, n, 1024, 0.0, 4);
  r = bench::TimedRun("nest" + suffix, cluster, [&]() -> Status {
    TRANCE_ASSIGN_OR_RETURN(
        Dataset out, runtime::NestGroup(cluster, kv, {0}, {1}, "bag", "nest"));
    rows = out.NumRows();
    return Status::OK();
  });
  r.out_rows = rows;
  results->push_back(std::move(r));
}

// Fixed-size regression pass over the keyed operators on the binary key
// codec. Each run lands in BENCH_micro_key_codec.json with its wall time,
// row counts, and the keyed hash-table counters, so the Distinct full-row
// membership path is machine-checkable.
Status RunKeyCodecAblation() {
  std::vector<bench::RunResult> results;
  ClusterConfig cfg{.num_partitions = 8};
  Cluster cluster(cfg);
  RunKeyedWorkloads(&cluster, ".codec_on", &results);
  bench::PrintHeader("key codec pass (rows/s = rows / wall)");
  for (const auto& r : results) bench::PrintResult(r);
  return bench::WriteBenchReport("micro_key_codec", results);
}

// Fixed-size regression pass over the same keyed workloads on typed
// partition blocks: every run must build blocks (columnar_bytes > 0) and
// convert no block rows back into retained rows — both asserted in-binary.
// Two additional runs time a raw 64k-row int/real scan on the block
// representation vs a row loop over the same values, recorded in
// BENCH_micro_columnar.json (recorded, not hard-asserted — absolute ratios
// are machine-dependent).
Status RunColumnarAblation() {
  std::vector<bench::RunResult> results;
  {
    ClusterConfig cfg{.num_partitions = 8};
    Cluster cluster(cfg);
    RunKeyedWorkloads(&cluster, ".columnar_on", &results);
  }
  for (const bench::RunResult& r : results) {
    TRANCE_CHECK(r.ok, "columnar pass run failed: " + r.name);
    TRANCE_CHECK(r.stats.columnar_bytes() > 0,
                 "columnar pass: no blocks built in " + r.name);
    TRANCE_CHECK(r.stats.column_to_row_conversions() == 0,
                 "columnar pass: block rows converted in " + r.name);
  }

  // Raw scan comparison (the BM_ColumnScan shape, as recorded runs).
  {
    ClusterConfig cfg{.num_partitions = 1};
    Cluster cluster(cfg);
    std::vector<Row> rows = MakeScanRows(1 << 16);
    column::PartitionBlock block =
        column::PartitionBlock::FromRows(KvSchema(), rows);
    const int reps = 400;
    double sink = 0;
    bench::RunResult r = bench::TimedRun(
        "column_scan.block", &cluster, [&]() -> Status {
          for (int rep = 0; rep < reps; ++rep) {
            int64_t isum = 0;
            double rsum = 0;
            const int64_t* ks = block.col(0).ints();
            const double* vs = block.col(1).reals();
            for (size_t i = 0; i < block.NumRows(); ++i) {
              isum += ks[i];
              rsum += vs[i];
            }
            sink += static_cast<double>(isum) + rsum;
          }
          return Status::OK();
        });
    r.out_rows = rows.size() * reps;
    results.push_back(std::move(r));

    r = bench::TimedRun("column_scan.rows", &cluster, [&]() -> Status {
      for (int rep = 0; rep < reps; ++rep) {
        int64_t isum = 0;
        double rsum = 0;
        for (const Row& row : rows) {
          isum += row.fields[0].AsInt();
          rsum += row.fields[1].AsReal();
        }
        sink += static_cast<double>(isum) + rsum;
      }
      return Status::OK();
    });
    r.out_rows = rows.size() * reps;
    results.push_back(std::move(r));
    benchmark::DoNotOptimize(sink);
  }

  bench::PrintHeader("columnar pass (rows/s = rows / wall)");
  for (const auto& r : results) bench::PrintResult(r);
  return bench::WriteBenchReport("micro_columnar", results);
}

// Block-residence pass: partitions live as typed blocks, so a keyed chain
// (distinct -> nest) crosses its stage boundary without any per-stage
// pack/unpack — the chain.resident run must report
// column_to_row_conversions == 0, asserted in-binary. Two recorded micro
// runs then quantify the boundary tax itself on a fixed 64k-row partition
// crossing three simulated stage boundaries: repack.per_stage re-packs
// (FromRows) and re-materializes (ToRows) at every boundary, while
// repack.resident crosses the same boundaries with block-to-block
// AppendRowFrom copies, never touching rows (recorded, not hard-asserted —
// absolute ratios are machine-dependent). Results land in
// BENCH_micro_resident.json.
Status RunResidentAblation() {
  std::vector<bench::RunResult> results;
  const int64_t n = 200000;
  {
    ClusterConfig cfg{.num_partitions = 8};
    Cluster cluster(cfg);
    Dataset dup = MakeDup(&cluster, n, n / 16, 9);
    size_t rows = 0;
    bench::RunResult r =
        bench::TimedRun("chain.resident", &cluster, [&]() -> Status {
          TRANCE_ASSIGN_OR_RETURN(Dataset deduped,
                                  runtime::Distinct(&cluster, dup, "dedup"));
          TRANCE_ASSIGN_OR_RETURN(
              Dataset nested,
              runtime::NestGroup(&cluster, deduped, {0}, {1}, "bag", "nest"));
          rows = nested.NumRows();
          return Status::OK();
        });
    r.out_rows = rows;
    TRANCE_CHECK(r.ok, "resident pass run failed");
    TRANCE_CHECK(r.stats.columnar_bytes() > 0,
                 "resident pass: no blocks built");
    TRANCE_CHECK(r.stats.column_to_row_conversions() == 0,
                 "resident pass: block-resident chain converted rows");
    results.push_back(std::move(r));
  }

  // Boundary-tax comparison (recorded runs, column_scan idiom).
  {
    ClusterConfig cfg{.num_partitions = 1};
    Cluster cluster(cfg);
    std::vector<Row> rows = MakeScanRows(1 << 16);
    const int reps = 40;
    const int boundaries = 3;
    double sink = 0;
    bench::RunResult r =
        bench::TimedRun("repack.per_stage", &cluster, [&]() -> Status {
          for (int rep = 0; rep < reps; ++rep) {
            std::vector<Row> cur = rows;
            for (int b = 0; b < boundaries; ++b) {
              column::PartitionBlock blk =
                  column::PartitionBlock::FromRows(KvSchema(), cur);
              cur = blk.ToRows();
            }
            sink += static_cast<double>(cur.size());
          }
          return Status::OK();
        });
    r.out_rows = rows.size() * reps;
    results.push_back(std::move(r));

    r = bench::TimedRun("repack.resident", &cluster, [&]() -> Status {
      for (int rep = 0; rep < reps; ++rep) {
        column::PartitionBlock cur =
            column::PartitionBlock::FromRows(KvSchema(), rows);
        for (int b = 0; b < boundaries; ++b) {
          column::PartitionBlock next(KvSchema());
          const size_t nrows = cur.NumRows();
          for (size_t i = 0; i < nrows; ++i) next.AppendRowFrom(cur, i);
          cur = std::move(next);
        }
        sink += static_cast<double>(cur.NumRows());
      }
      return Status::OK();
    });
    r.out_rows = rows.size() * reps;
    results.push_back(std::move(r));
    benchmark::DoNotOptimize(sink);
  }

  bench::PrintHeader("resident pass (rows/s = rows / wall)");
  for (const auto& r : results) bench::PrintResult(r);
  return bench::WriteBenchReport("micro_resident", results);
}

// Fixed-size regression pass over the same keyed workloads for the
// out-of-core spill path of PR 9. The .spill_forced runs use a 256 KiB
// per-partition memory cap — far under the working set, so shuffles, keyed
// inputs and stage outputs all spill through runtime/spill.h run files —
// while the .spill_off runs use the default (effectively unlimited) cap with
// ExecOptions-level spilling disabled. Stats transparency is asserted
// in-binary: rows, movement stats, simulated time and keyed counters are
// bit-identical across the pair, the forced runs report spill_* > 0, and the
// off runs report exactly 0. Results land in BENCH_micro_spill.json.
Status RunSpillAblation() {
  std::vector<bench::RunResult> results;
  for (bool forced : {true, false}) {
    ClusterConfig cfg{.num_partitions = 8};
    if (forced) cfg.partition_memory_cap = 256ull << 10;
    Cluster cluster(cfg);
    cluster.set_spill_enabled(forced);
    RunKeyedWorkloads(&cluster, forced ? ".spill_forced" : ".spill_off",
                      &results);
  }

  // Stats transparency: run i (spill forced under a tiny cap) against run
  // i + 3 (spill off, uncapped) — the acceptance pairing of the PR.
  for (size_t i = 0; i < 3; ++i) {
    const bench::RunResult& forced = results[i];
    const bench::RunResult& off = results[i + 3];
    TRANCE_CHECK(forced.ok && off.ok, "spill ablation run failed");
    TRANCE_CHECK(forced.out_rows == off.out_rows,
                 "spill ablation: result rows differ for " + forced.name);
    const runtime::JobStats& fs = forced.stats;
    const runtime::JobStats& os = off.stats;
    TRANCE_CHECK(fs.total_shuffle_bytes() == os.total_shuffle_bytes() &&
                     fs.max_stage_shuffle_bytes() ==
                         os.max_stage_shuffle_bytes() &&
                     fs.peak_partition_bytes() == os.peak_partition_bytes(),
                 "spill ablation: movement stats differ for " + forced.name);
    TRANCE_CHECK(fs.sim_seconds() == os.sim_seconds(),
                 "spill ablation: sim time differs for " + forced.name);
    TRANCE_CHECK(fs.key_encode_bytes() == os.key_encode_bytes() &&
                     fs.hash_build_rows() == os.hash_build_rows() &&
                     fs.hash_probe_hits() == os.hash_probe_hits() &&
                     fs.hash_max_chain() == os.hash_max_chain(),
                 "spill ablation: keyed counters differ for " + forced.name);
    TRANCE_CHECK(fs.spill_runs() > 0 && fs.spill_bytes_written() > 0,
                 "spill ablation: nothing spilled in " + forced.name);
    TRANCE_CHECK(fs.spill_bytes_read() == fs.spill_bytes_written(),
                 "spill ablation: restore did not stream every spilled byte");
    TRANCE_CHECK(os.spill_bytes_written() == 0 && os.spill_bytes_read() == 0 &&
                     os.spill_runs() == 0 && os.spill_merge_passes() == 0,
                 "spill ablation: counters leak into " + off.name);
  }

  bench::PrintHeader("spill ablation (rows/s = rows / wall)");
  for (const auto& r : results) bench::PrintResult(r);
  return bench::WriteBenchReport("micro_spill", results);
}

}  // namespace trance

int main(int argc, char** argv) {
  TRANCE_CHECK(trance::RunKeyCodecAblation().ok(), "key codec ablation");
  TRANCE_CHECK(trance::RunResidentAblation().ok(), "resident ablation");
  TRANCE_CHECK(trance::RunColumnarAblation().ok(), "columnar ablation");
  TRANCE_CHECK(trance::RunSpillAblation().ok(), "spill ablation");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
