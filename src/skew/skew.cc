#include "skew/skew.h"

#include "util/hash.h"

namespace trance {
namespace skew {

using runtime::Cluster;
using runtime::Dataset;
using runtime::JoinType;
using runtime::Partitioning;
using runtime::Row;
using runtime::StageStats;

namespace column = runtime::column;
namespace flat_hash = runtime::flat_hash;
namespace key_codec = runtime::key_codec;

bool HeavyKeySet::IsHeavy(const Row& row, const std::vector<int>& cols) const {
  if (empty()) return false;
  thread_local key_codec::KeyEncoder scratch;
  auto kv = scratch.Encode(row, cols);
  // A key that cannot encode (bag-typed) was never sampled into the set.
  return kv.ok() && Contains(kv.value());
}

SkewTriple SkewTriple::AllLight(Dataset ds) {
  SkewTriple t;
  t.heavy.schema = ds.schema;
  t.heavy.store.InitBlocks(ds.NumPartitions(), ds.schema);
  t.light = std::move(ds);
  t.heavy_keys = std::nullopt;
  return t;
}

StatusOr<Dataset> MergeTriple(Cluster* cluster, SkewTriple t,
                              const std::string& name) {
  if (t.heavy.NumRows() == 0) return std::move(t.light);
  return runtime::UnionAll(cluster, t.light, t.heavy, name + ".merge");
}

HeavyKeySet DetectHeavyKeys(Cluster* cluster, const Dataset& in,
                            std::vector<int> key_cols) {
  const auto& cfg = cluster->config();
  HeavyKeySet out;
  out.key_cols = key_cols;
  // Deterministic pseudo-random sampling (hash-selected positions; a fixed
  // stride would alias with cyclic key layouts).
  uint64_t stride = cfg.skew_sample_rate <= 0
                        ? 1
                        : static_cast<uint64_t>(1.0 / cfg.skew_sample_rate);
  if (stride == 0) stride = 1;
  StageStats stage;
  stage.op = "heavy_keys";
  key_codec::KeyEncoder enc;  // encodes once per sampled row
  for (size_t p = 0; p < in.NumPartitions(); ++p) {
    // Per-partition sample frequencies, keyed by encoded keys read straight
    // from the block's cells (unsampled positions are never touched).
    const column::PartitionBlock& block = in.store.block(p);
    const size_t part_rows = block.NumRows();
    flat_hash::FlatKeyIndex idx;
    std::vector<size_t> cnt;  // dense index -> sample frequency
    size_t sampled = 0;
    for (size_t i = 0; i < part_rows; ++i) {
      if (Mix64((static_cast<uint64_t>(p) << 32) ^ i ^ cfg.seed) % stride !=
          0) {
        continue;
      }
      ++sampled;
      stage.rows_in++;
      auto kv = enc.EncodeAt(block, i, key_cols);
      if (!kv.ok()) continue;  // unencodable key: never a heavy candidate
      auto [gi, inserted] = idx.FindOrInsert(kv.value());
      if (inserted) {
        cnt.push_back(0);
        stage.hash_build_rows++;
      } else {
        stage.hash_probe_hits++;
      }
      if (++cnt[gi] > stage.hash_max_chain) stage.hash_max_chain = cnt[gi];
    }
    flat_hash::NoteTableStats(idx, &stage);
    if (sampled == 0) continue;
    size_t cutoff = static_cast<size_t>(cfg.heavy_key_threshold *
                                        static_cast<double>(sampled));
    if (cutoff < 2) cutoff = 2;
    for (size_t gi = 0; gi < idx.size(); ++gi) {
      if (cnt[gi] >= cutoff) {
        out.keys.FindOrInsert(idx.KeyAt(static_cast<uint32_t>(gi)));
      }
    }
  }
  // The sampling pass is cheap but not free; account a small stage. The
  // heavy-key set itself is tiny (<= 100/threshold keys per partition) and is
  // broadcast to all workers.
  stage.key_encode_bytes = enc.bytes_encoded();
  stage.shuffle_bytes =
      out.size() * 16 * static_cast<uint64_t>(cluster->num_partitions());
  stage.heavy_key_count = out.size();
  stage.movement = runtime::DataMovement::kBroadcast;
  cluster->RecordStage(std::move(stage));
  return out;
}

StatusOr<SkewTriple> SplitByHeavyKeys(Cluster* cluster, const Dataset& in,
                                      std::vector<int> key_cols,
                                      std::optional<HeavyKeySet> known,
                                      const std::string& name) {
  HeavyKeySet hk = known.has_value()
                       ? std::move(*known)
                       : DetectHeavyKeys(cluster, in, key_cols);
  SkewTriple out;
  const size_t nparts = in.NumPartitions();
  out.light.schema = in.schema;
  out.heavy.schema = in.schema;
  out.light.store.InitBlocks(nparts, in.schema);
  out.heavy.store.InitBlocks(nparts, in.schema);
  out.light.partitioning = in.partitioning;
  out.heavy.partitioning = Partitioning::None();
  StageStats stage;
  stage.op = name + ".split";
  // Heaviness is tested on keys encoded straight from the source block's
  // cells (a key that cannot encode stays light); the row pass only splits
  // the row indices into a light and a heavy list, and each list is then
  // gathered column by column.
  key_codec::KeyEncoder enc;
  for (size_t p = 0; p < nparts; ++p) {
    const column::PartitionBlock& src = in.store.block(p);
    column::PartitionBlock& light = out.light.store.block(p);
    column::PartitionBlock& heavy = out.heavy.store.block(p);
    const size_t part_rows = src.NumRows();
    stage.rows_in += part_rows;
    if (hk.empty()) {
      light.AppendBlock(src);
    } else {
      std::vector<uint32_t> light_rows, heavy_rows;
      for (size_t i = 0; i < part_rows; ++i) {
        auto kv = enc.EncodeAt(src, i, key_cols);
        bool is_heavy = kv.ok() && hk.Contains(kv.value());
        (is_heavy ? heavy_rows : light_rows)
            .push_back(static_cast<uint32_t>(i));
      }
      light.AppendGather(src, light_rows);
      heavy.AppendGather(src, heavy_rows);
    }
    stage.columnar_bytes += light.ByteFootprint() + heavy.ByteFootprint();
  }
  stage.rows_out = stage.rows_in;
  stage.heavy_key_count = hk.size();
  cluster->RecordStage(std::move(stage));
  hk.key_cols = std::move(key_cols);
  out.heavy_keys = std::move(hk);
  return out;
}

StatusOr<SkewTriple> SkewAwareJoin(Cluster* cluster, SkewTriple left,
                                   SkewTriple right,
                                   std::vector<int> left_keys,
                                   std::vector<int> right_keys,
                                   JoinType type, const std::string& name) {
  // (X_L, X_H, hk) = X.heavyKeys(f): reuse the incoming key set when it was
  // computed on the same columns, otherwise merge and re-detect.
  SkewTriple x;
  if (left.heavy_keys.has_value() && left.heavy_keys->key_cols == left_keys) {
    x = std::move(left);
  } else {
    TRANCE_ASSIGN_OR_RETURN(
        Dataset merged, MergeTriple(cluster, std::move(left), name + ".lhs"));
    TRANCE_ASSIGN_OR_RETURN(
        x, SplitByHeavyKeys(cluster, merged, left_keys, std::nullopt,
                            name + ".lhs"));
  }
  const HeavyKeySet& hk = *x.heavy_keys;

  // Y_L = Y.filter(!hk(g(y))); Y_H = Y.filter(hk(g(y))).
  TRANCE_ASSIGN_OR_RETURN(
      Dataset y, MergeTriple(cluster, std::move(right), name + ".rhs"));
  HeavyKeySet rhk = hk;
  rhk.key_cols = right_keys;
  TRANCE_ASSIGN_OR_RETURN(
      SkewTriple ysplit,
      SplitByHeavyKeys(cluster, y, right_keys, std::move(rhk), name + ".rhs"));

  TRANCE_ASSIGN_OR_RETURN(
      Dataset light, runtime::HashJoin(cluster, x.light, ysplit.light,
                                       left_keys, right_keys, type,
                                       name + ".light"));
  TRANCE_ASSIGN_OR_RETURN(
      Dataset heavy,
      runtime::BroadcastJoin(cluster, x.heavy, ysplit.heavy, left_keys,
                             right_keys, type, name + ".heavy"));
  SkewTriple out;
  out.light = std::move(light);
  out.heavy = std::move(heavy);
  // Key columns keep their positions (left columns lead the join output).
  HeavyKeySet out_hk = hk;
  out_hk.key_cols = left_keys;
  out.heavy_keys = std::move(out_hk);
  return out;
}

StatusOr<SkewTriple> SkewAwareBagToDict(Cluster* cluster, SkewTriple in,
                                        int label_col,
                                        const std::string& name) {
  SkewTriple x;
  std::vector<int> cols{label_col};
  if (in.heavy_keys.has_value() && in.heavy_keys->key_cols == cols) {
    x = std::move(in);
  } else {
    TRANCE_ASSIGN_OR_RETURN(Dataset merged,
                            MergeTriple(cluster, std::move(in), name));
    TRANCE_ASSIGN_OR_RETURN(
        x, SplitByHeavyKeys(cluster, merged, cols, std::nullopt, name));
  }
  // Light labels are repartitioned (restoring the label-based partitioning
  // guarantee); heavy labels stay distributed where they are.
  TRANCE_ASSIGN_OR_RETURN(
      Dataset light,
      runtime::Repartition(cluster, x.light, cols, name + ".light"));
  SkewTriple out;
  out.light = std::move(light);
  out.heavy = std::move(x.heavy);
  out.heavy_keys = std::move(x.heavy_keys);
  return out;
}

}  // namespace skew
}  // namespace trance
