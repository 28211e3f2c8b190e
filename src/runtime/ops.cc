#include "runtime/ops.h"

#include <algorithm>

#include "runtime/flat_hash.h"
#include "runtime/key_codec.h"
#include "runtime/spill.h"
#include "util/hash.h"

namespace trance {
namespace runtime {

namespace {

/// Accumulates per-partition processed bytes and finalizes max/total plus
/// the per-partition work histogram. Add() is called from partition-parallel
/// loops: each task writes only its own slot p, and Finalize() (called after
/// the stage barrier) folds the slots in partition order — so the resulting
/// stats are bit-identical to a sequential run.
class WorkMeter {
 public:
  explicit WorkMeter(size_t parts) : work_(parts, 0) {}
  void Add(size_t p, uint64_t bytes) { work_[p] += bytes; }
  /// Clears slot p (recovery reset of a discarded task attempt). Only valid
  /// while a single task loop owns the slot.
  void Reset(size_t p) { work_[p] = 0; }
  void Finalize(StageStats* s) const {
    for (uint64_t w : work_) {
      s->total_work_bytes += w;
      if (w > s->max_partition_work_bytes) s->max_partition_work_bytes = w;
    }
    s->partition_work_bytes = work_;
  }

 private:
  std::vector<uint64_t> work_;
};

/// Per-partition keyed-phase telemetry, following the same slot discipline
/// as WorkMeter: each task owns slot p, Finalize folds the slots in
/// partition order after the stage barrier (stats stay thread-count
/// invariant). A stage with several keyed loops (e.g. SumAggregate's
/// combine + final passes) finalizes one meter per loop; the StageStats
/// fields accumulate.
class KeyStatsMeter {
 public:
  explicit KeyStatsMeter(size_t parts) : slots_(parts) {}
  StageCounters& slot(size_t p) { return slots_[p]; }
  void Reset(size_t p) { slots_[p] = StageCounters{}; }
  void Finalize(StageStats* s) const {
    for (const StageCounters& k : slots_) s->Merge(k);
  }

 private:
  std::vector<StageCounters> slots_;
};

/// Returns the first non-OK per-partition task error in partition order (so
/// the surfaced error is deterministic regardless of thread interleaving).
Status FirstError(const std::vector<Status>& errs) {
  for (const Status& e : errs) {
    if (!e.ok()) return e;
  }
  return Status::OK();
}

/// Accumulates `add` into `into[i]`, growing the histogram on first use (a
/// stage may run several shuffles, e.g. both sides of a join).
void AccumulateHistogram(std::vector<uint64_t>* into,
                         const std::vector<uint64_t>& add) {
  if (into->size() < add.size()) into->resize(add.size(), 0);
  for (size_t i = 0; i < add.size(); ++i) (*into)[i] += add[i];
}

/// True when any of row i's `cols` cells is NULL (NULL keys never match).
bool HasNullKeyAt(const column::PartitionBlock& b, size_t i,
                  const std::vector<int>& cols) {
  for (int c : cols) {
    if (b.IsNull(i, static_cast<size_t>(c))) return true;
  }
  return false;
}

/// Partitions entering an operator's partition-local phase, with the
/// deep-size footprint of each partition. A shuffle's output is owned. On
/// the reuse path the input's own store is borrowed, not copied; it is
/// copied (into `owned`) only when a partition must spill. The bytes ride
/// along from the shuffle (which sized every row once) or from the O(columns)
/// block totals, so the work meter and memory check never re-walk rows.
struct ShuffledParts {
  const PartitionStore* borrowed = nullptr;
  PartitionStore owned;
  std::vector<uint64_t> bytes;

  const PartitionStore& store() const {
    return borrowed != nullptr ? *borrowed : owned;
  }
  const column::PartitionBlock& block(size_t p) const {
    return store().block(p);
  }
  size_t NumPartitions() const { return store().NumPartitions(); }
};

/// Hash-shuffles `in` to num_partitions buckets keyed on key_cols, recording
/// exact cross-partition movement into `stage`. Two-phase and
/// partition-parallel:
///   1. each input partition computes its routing hashes (HashRowsOn ==
///      RowHashOn) and row sizes (RowBytesOfAll == RowDeepSize) one column
///      at a time, turns the hashes into a row-index list per target, and
///      gathers each list column by column into that target's bucket
///      block; the sizes feed movement accounting and the output
///      footprint;
///   2. each target partition concatenates its buckets, column by column,
///      in fixed input-partition order into the resident output block.
/// Phase 2's fixed order reproduces the sequential row order exactly, and
/// the movement histograms are merged in partition order at the phase-1
/// barrier, so output and stats are identical for any thread count. No row
/// materializes on either side.
///
/// Fault model: phase-1 (map side) tasks read only the immutable input, so a
/// crash fault re-runs them after discarding the partition's buckets; phase-2
/// (fetch side) consumes the buckets destructively via move, so its faults
/// are fetch-style — they strike before the task touches the buckets (null
/// reset) and the retry re-fetches.
StatusOr<ShuffledParts> ShuffleByKey(Cluster* cluster, const Dataset& in,
                                     const std::vector<int>& key_cols,
                                     StageStats* stage) {
  const size_t n = static_cast<size_t>(cluster->num_partitions());
  const size_t in_n = in.NumPartitions();

  struct SourceBuckets {
    std::vector<column::PartitionBlock> blocks;  // [target]
    std::vector<uint64_t> bytes;         // [target] all routed bytes
    std::vector<uint64_t> moved;         // [target] bytes that changed partition
    uint64_t sent = 0;                   // total bytes leaving this partition
    uint64_t moved_rows = 0;             // rows that changed partition
  };
  std::vector<SourceBuckets> buckets(in_n);
  std::vector<uint64_t> map_col_bytes(in_n, 0);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      stage->op + ".shuffle_map", in_n, stage,
      [&](size_t p) {
        SourceBuckets& b = buckets[p];
        b.bytes.assign(n, 0);
        b.moved.assign(n, 0);
        b.blocks.assign(n, column::PartitionBlock(in.schema));
        const column::PartitionBlock& src = in.store.block(p);
        const std::vector<uint64_t> hashes = src.HashRowsOn(key_cols);
        const std::vector<uint64_t> sizes = src.RowBytesOfAll();
        std::vector<std::vector<uint32_t>> rows_to(n);
        for (size_t i = 0; i < hashes.size(); ++i) {
          size_t target =
              static_cast<size_t>(cluster->PartitionOf(hashes[i]));
          b.bytes[target] += sizes[i];
          if (target != p) {
            b.moved[target] += sizes[i];
            b.sent += sizes[i];
            ++b.moved_rows;
          }
          rows_to[target].push_back(static_cast<uint32_t>(i));
        }
        for (size_t t = 0; t < n; ++t) {
          b.blocks[t].AppendGather(src, rows_to[t]);
          map_col_bytes[p] += b.blocks[t].ByteFootprint();
        }
      },
      [&](size_t p) {
        buckets[p] = SourceBuckets{};
        map_col_bytes[p] = 0;
      }));

  std::vector<uint64_t> recv(n, 0);
  std::vector<uint64_t> send(std::max(in_n, n), 0);
  uint64_t moved_rows = 0;
  uint64_t moved_bytes = 0;
  for (size_t p = 0; p < in_n; ++p) {
    send[p] = buckets[p].sent;
    stage->shuffle_bytes += buckets[p].sent;
    moved_rows += buckets[p].moved_rows;
    moved_bytes += buckets[p].sent;
    for (size_t t = 0; t < n; ++t) recv[t] += buckets[p].moved[t];
  }

  ShuffledParts out;
  out.owned.InitBlocks(n, in.schema);
  out.bytes.assign(n, 0);
  std::vector<uint64_t> fetch_col_bytes(n, 0);

  // Fetch-side spill (runtime/spill.h): a target whose total received bytes
  // exceed the spill threshold writes one run per non-empty source bucket
  // (clearing the bucket as it goes), then stream-merges the runs back in
  // fixed source order straight into the resident output block — the
  // identical row sequence the in-memory concatenation produces. The spill
  // decision and every run are pure functions of the routed bytes, and the
  // per-target counter slots are folded in target order after the barrier,
  // so results and stats stay thread-count-invariant.
  const bool spill_on = cluster->spill_enabled();
  const uint64_t spill_threshold = cluster->spill_threshold_bytes();
  std::vector<spill::SpillCounters> spill_slots(n);
  std::vector<Status> spill_errs(n, Status::OK());
  auto spill_fetch_target = [&](size_t t) -> Status {
    spill::SpillManager* sm = cluster->spill_manager();
    spill::SpillCounters* c = &spill_slots[t];
    const std::string tag = stage->op + ".shuffle_fetch";
    const uint64_t job = cluster->current_job_id();
    std::vector<std::string> runs;
    for (size_t p = 0; p < in_n; ++p) {
      out.bytes[t] += buckets[p].bytes[t];
      auto& src = buckets[p].blocks[t];
      if (src.NumRows() == 0) continue;
      std::string path = sm->RunPath(job, tag, t, runs.size());
      TRANCE_RETURN_NOT_OK(sm->WriteBlockRun(path, src, c));
      src = column::PartitionBlock(in.schema);
      runs.push_back(std::move(path));
    }
    // One merge pass: streaming the runs in write order restores the exact
    // source-order concatenation. ReadRunIntoBlock appends column by column
    // with the same per-cell sequence the in-memory concatenation performs,
    // so the restored block's footprint equals the never-spilled one.
    for (const std::string& path : runs) {
      TRANCE_RETURN_NOT_OK(sm->ReadRunIntoBlock(path, &out.owned.block(t), c));
    }
    for (const std::string& path : runs) sm->RemoveRun(path);
    c->merge_passes += 1;
    return Status::OK();
  };

  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      stage->op + ".shuffle_fetch", n, stage,
      [&](size_t t) {
        bool spilled = false;
        if (spill_on) {
          uint64_t total_bytes = 0;
          for (size_t p = 0; p < in_n; ++p) total_bytes += buckets[p].bytes[t];
          if (total_bytes > spill_threshold) {
            spill_errs[t] = spill_fetch_target(t);
            spilled = true;
          }
        }
        if (!spilled) {
          column::PartitionBlock& dst = out.owned.block(t);
          for (size_t p = 0; p < in_n; ++p) {
            dst.AppendBlock(buckets[p].blocks[t]);
            out.bytes[t] += buckets[p].bytes[t];
          }
        }
        fetch_col_bytes[t] += out.owned.block(t).ByteFootprint();
      },
      nullptr));
  TRANCE_RETURN_NOT_OK(FirstError(spill_errs));
  for (size_t t = 0; t < n; ++t) {
    if (spill_slots[t].runs == 0 && spill_slots[t].merge_passes == 0) continue;
    detail::NoteSpill(cluster, stage, stage->op + ".shuffle_fetch", t,
                      out.bytes[t], spill_slots[t]);
  }
  for (uint64_t b : map_col_bytes) stage->columnar_bytes += b;
  for (uint64_t b : fetch_col_bytes) stage->columnar_bytes += b;

  for (uint64_t b : recv) {
    if (b > stage->max_partition_recv_bytes) {
      stage->max_partition_recv_bytes = b;
    }
  }
  stage->movement = DataMovement::kShuffle;
  AccumulateHistogram(&stage->partition_recv_bytes, recv);
  AccumulateHistogram(&stage->partition_send_bytes, send);
  // Driver-side (post-barrier) publication of what this shuffle moved; the
  // bytes also reach the registry via RecordStage, rows only exist here.
  cluster->metrics()
      .GetCounter("trance_shuffle_rows_total",
                  "rows that changed partition in shuffles")
      ->Add(moved_rows);
  obs::EventLog& log = obs::GlobalEventLog();
  if (log.enabled()) {
    obs::Event(&log, "shuffle")
        .U64("job", cluster->current_job_id())
        .Str("op", stage->op)
        .Str("movement", "shuffle")
        .U64("rows_moved", moved_rows)
        .U64("bytes", moved_bytes)
        .U64("partitions", n)
        .Emit();
  }
  return out;
}

/// Shuffle path of operators that group/join on `key_cols`: borrows the
/// input partitions (zero movement, no copy — the sizes are O(columns) block
/// totals) when the guarantee already holds, otherwise hash-shuffles.
StatusOr<ShuffledParts> ShuffleOrReuse(Cluster* cluster, const Dataset& in,
                                       const std::vector<int>& key_cols,
                                       StageStats* stage) {
  if (in.partitioning.IsHashOn(key_cols)) {
    ShuffledParts out;
    out.borrowed = &in.store;
    out.bytes = in.PartitionBytes();
    // Keyed-input spill: on the reuse path no shuffle bounds the partitions,
    // so an oversized keyed-build input spills to runs here and streams back
    // in the original order — the downstream index build then inserts the
    // identical row sequence (same hash_* stats, same group emission order).
    // Partitions spill and restore as block records without materializing a
    // row; the first such partition copies the borrowed input, since the
    // input itself must stay intact. Driver-side, in partition order.
    if (cluster->spill_enabled()) {
      const uint64_t threshold = cluster->spill_threshold_bytes();
      for (size_t p = 0; p < out.bytes.size(); ++p) {
        if (out.bytes[p] <= threshold) continue;
        if (out.borrowed != nullptr) {
          out.owned = in.store;
          out.borrowed = nullptr;
        }
        spill::SpillCounters pc;
        TRANCE_RETURN_NOT_OK(cluster->spill_manager()->SpillAndRestoreBlock(
            cluster->current_job_id(), stage->op + ".keyed_input", p,
            in.schema, &out.owned.block(p), &pc));
        detail::NoteSpill(cluster, stage, stage->op + ".keyed_input", p,
                          out.bytes[p], pc);
      }
    }
    return out;
  }
  return ShuffleByKey(cluster, in, key_cols, stage);
}

/// Output schema of a join: left columns then right columns, right-side
/// collisions suffixed "__r".
Schema JoinSchema(const Schema& l, const Schema& r) {
  Schema out = l;
  for (const auto& c : r.columns()) {
    std::string name = c.name;
    while (out.IndexOf(name) >= 0) name += "__r";
    out.Append({name, c.type});
  }
  return out;
}

/// Partition-local hash join of a left block against a right (build) block,
/// appending the output rows to `out` (left columns, then right columns;
/// left-outer misses pad the right columns with NULLs, which an empty right
/// block does too, since every block has its schema's width). The build
/// table is keyed by compact binary keys encoded straight from the right
/// block's typed cells (one arena append per distinct key, no per-probe
/// allocation) and holds dense per-key chains of right row offsets, linked
/// in insertion order; probe keys encode straight from the left block.
/// The probe only decides which rows meet: it builds a (left row, right row
/// or kPadRow) index-pair list in output order, and the output block is
/// then gathered one column at a time. Writes the deep-size footprint of
/// the rows it appended (a TotalRowBytes delta) to *out_bytes and the
/// keyed-phase telemetry into *ks.
Status LocalJoin(const column::PartitionBlock& left,
                 const column::PartitionBlock& right,
                 const std::vector<int>& lk, const std::vector<int>& rk,
                 JoinType type, column::PartitionBlock* out,
                 uint64_t* out_bytes, StageCounters* ks) {
  constexpr uint32_t kEnd = column::AnyColumn::kPadRow;
  const size_t rn = right.NumRows();
  flat_hash::FlatKeyIndex built(rn);
  std::vector<uint32_t> head, tail, chain_len;  // [dense key index]
  std::vector<uint32_t> next(rn, kEnd);         // [right row] chain link
  key_codec::KeyEncoder enc;
  for (size_t i = 0; i < rn; ++i) {
    if (HasNullKeyAt(right, i, rk)) continue;
    TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                            enc.EncodeAt(right, i, rk));
    auto [gi, inserted] = built.FindOrInsert(k);
    const uint32_t row = static_cast<uint32_t>(i);
    if (inserted) {
      head.push_back(row);
      tail.push_back(row);
      chain_len.push_back(1);
      ks->hash_build_rows++;
    } else {
      next[tail[gi]] = row;
      tail[gi] = row;
      ++chain_len[gi];
      ks->hash_probe_hits++;
    }
    if (chain_len[gi] > ks->hash_max_chain) {
      ks->hash_max_chain = chain_len[gi];
    }
  }
  std::vector<uint32_t> lrows, rrows;
  const size_t ln = left.NumRows();
  for (size_t j = 0; j < ln; ++j) {
    const uint32_t lrow = static_cast<uint32_t>(j);
    bool matched = false;
    if (!HasNullKeyAt(left, j, lk)) {
      TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                              enc.EncodeAt(left, j, lk));
      uint32_t gi = built.Find(k);
      if (gi != flat_hash::FlatKeyIndex::kNotFound) {
        matched = true;
        ks->hash_probe_hits++;
        for (uint32_t r = head[gi]; r != kEnd; r = next[r]) {
          lrows.push_back(lrow);
          rrows.push_back(r);
        }
      }
    }
    if (!matched && type == JoinType::kLeftOuter) {
      lrows.push_back(lrow);
      rrows.push_back(column::AnyColumn::kPadRow);
    }
  }
  ks->key_encode_bytes += enc.bytes_encoded();
  NoteTableStats(built, ks);
  const uint64_t before = out->TotalRowBytes();
  const size_t lw = left.NumCols();
  out->AppendColumns(lrows.size(), [&](size_t c, column::AnyColumn* col) {
    if (c < lw) {
      col->AppendGather(left.col(c), lrows);
    } else {
      col->AppendGather(right.col(c - lw), rrows);
    }
  });
  *out_bytes = out->TotalRowBytes() - before;
  return Status::OK();
}

// Stage barrier shared with the fused-stage runner.
using detail::FinishStage;

/// Source-boundary check: every input row must have the schema's width
/// (blocks hold schema-width rows only). Runs before any row is hashed or
/// appended.
Status CheckSourceWidths(const std::string& op, const Schema& schema,
                         const std::vector<Row>& rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].fields.size() != schema.size()) {
      return Status::Invalid(op + ": row " + std::to_string(i) +
                             " has width " +
                             std::to_string(rows[i].fields.size()) +
                             ", schema has width " +
                             std::to_string(schema.size()));
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<Dataset> Source(Cluster* cluster, Schema schema,
                         std::vector<Row> rows, const std::string& name) {
  const size_t n = static_cast<size_t>(cluster->num_partitions());
  StageStats stage;
  stage.op = "source(" + name + ")";
  TRANCE_RETURN_NOT_OK(CheckSourceWidths(stage.op, schema, rows));
  Dataset ds;
  ds.schema = std::move(schema);
  ds.partitioning = Partitioning::None();
  // Sources land block-resident: the driver appends each row to its
  // round-robin partition block, so downstream stages start from columns
  // without a packing step. Driver-sequential, so the footprint charge is
  // thread-count-invariant.
  ds.store.InitBlocks(n, ds.schema);
  for (size_t i = 0; i < rows.size(); ++i) {
    ds.store.block(i % n).AppendRow(rows[i]);
  }
  for (size_t p = 0; p < n; ++p) {
    stage.columnar_bytes += ds.store.block(p).ByteFootprint();
  }
  // Inputs are pre-cached ("runtime starts after caching all inputs"): they
  // are not charged against the per-partition memory cap.
  stage.rows_in = ds.NumRows();
  stage.rows_out = ds.NumRows();
  cluster->RecordStage(std::move(stage));
  return ds;
}

StatusOr<Dataset> SourcePartitioned(Cluster* cluster, Schema schema,
                                    std::vector<Row> rows,
                                    std::vector<int> key_cols,
                                    const std::string& name) {
  const size_t n = static_cast<size_t>(cluster->num_partitions());
  StageStats stage;
  stage.op = "source_partitioned(" + name + ")";
  TRANCE_RETURN_NOT_OK(CheckSourceWidths(stage.op, schema, rows));
  Dataset ds;
  ds.schema = std::move(schema);
  ds.store.InitBlocks(n, ds.schema);
  for (const auto& row : rows) {
    int target = cluster->PartitionOf(key_codec::KeyHashOn(row, key_cols));
    ds.store.block(static_cast<size_t>(target)).AppendRow(row);
  }
  for (size_t p = 0; p < n; ++p) {
    stage.columnar_bytes += ds.store.block(p).ByteFootprint();
  }
  ds.partitioning = Partitioning::Hash(std::move(key_cols));
  stage.rows_in = ds.NumRows();
  stage.rows_out = ds.NumRows();
  cluster->RecordStage(std::move(stage));
  return ds;
}

StatusOr<Dataset> Repartition(Cluster* cluster, const Dataset& in,
                              std::vector<int> key_cols,
                              const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts sp,
                          ShuffleOrReuse(cluster, in, key_cols, &stage));
  Dataset out;
  out.schema = in.schema;
  // The shuffled partitions ARE the output — blocks stay resident (a
  // borrowed input is copied, since the output owns its store).
  out.store = sp.borrowed != nullptr ? *sp.borrowed : std::move(sp.owned);
  out.partitioning = Partitioning::Hash(std::move(key_cols));
  WorkMeter work(out.NumPartitions());
  for (size_t p = 0; p < out.NumPartitions(); ++p) {
    work.Add(p, sp.bytes[p]);
  }
  work.Finalize(&stage);
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(sp.bytes)));
  return out;
}

StatusOr<Dataset> HashJoin(Cluster* cluster, const Dataset& left,
                           const Dataset& right, std::vector<int> left_keys,
                           std::vector<int> right_keys, JoinType type,
                           const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = left.NumRows() + right.NumRows();
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts lsp,
                          ShuffleOrReuse(cluster, left, left_keys, &stage));
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts rsp,
                          ShuffleOrReuse(cluster, right, right_keys, &stage));

  Dataset out;
  out.schema = JoinSchema(left.schema, right.schema);
  const size_t nparts = lsp.NumPartitions();
  out.store.InitBlocks(nparts, out.schema);
  WorkMeter work(nparts);
  KeyStatsMeter kmeter(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<Status> errs(nparts);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        errs[p] = LocalJoin(lsp.block(p), rsp.block(p), left_keys, right_keys,
                            type, &out.store.block(p), &out_bytes[p],
                            &kmeter.slot(p));
        col_bytes[p] = out.store.block(p).ByteFootprint();
        work.Add(p, lsp.bytes[p] + rsp.bytes[p] + out_bytes[p]);
      },
      [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  out.partitioning = Partitioning::Hash(std::move(left_keys));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Dataset> BroadcastJoin(Cluster* cluster, const Dataset& left,
                                const Dataset& right,
                                std::vector<int> left_keys,
                                std::vector<int> right_keys, JoinType type,
                                const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = left.NumRows() + right.NumRows();
  // The broadcast replicates the right side to every partition. The block
  // totals cover the movement accounting and the send histogram.
  std::vector<uint64_t> right_bytes = right.PartitionBytes();
  uint64_t bcast_bytes = 0;
  for (uint64_t b : right_bytes) bcast_bytes += b;
  const uint64_t n = static_cast<uint64_t>(cluster->num_partitions());
  stage.shuffle_bytes += bcast_bytes * n;
  stage.max_partition_recv_bytes =
      std::max(stage.max_partition_recv_bytes, bcast_bytes);
  stage.movement = DataMovement::kBroadcast;
  cluster->metrics()
      .GetCounter("trance_broadcast_bytes_total",
                  "bytes replicated to every partition by broadcasts")
      ->Add(bcast_bytes * n);
  {
    obs::EventLog& log = obs::GlobalEventLog();
    if (log.enabled()) {
      obs::Event(&log, "shuffle")
          .U64("job", cluster->current_job_id())
          .Str("op", name)
          .Str("movement", "broadcast")
          .U64("rows_moved", static_cast<uint64_t>(right.NumRows()) * n)
          .U64("bytes", bcast_bytes * n)
          .U64("partitions", n)
          .Emit();
    }
  }
  // Every partition receives the full broadcast; each source partition sends
  // its resident right-side rows to all n partitions.
  AccumulateHistogram(&stage.partition_recv_bytes,
                      std::vector<uint64_t>(static_cast<size_t>(n),
                                            bcast_bytes));
  {
    std::vector<uint64_t> send(right.NumPartitions(), 0);
    for (size_t p = 0; p < right.NumPartitions(); ++p) {
      send[p] = right_bytes[p] * n;
    }
    AccumulateHistogram(&stage.partition_send_bytes, send);
  }
  // The broadcast copy each receiving partition builds against: the right
  // side concatenated column by column, in partition order, into one typed
  // block. The copies are identical, so the driver packs one and every
  // receiving partition is charged its footprint.
  column::PartitionBlock bcast(right.schema);
  for (size_t p = 0; p < right.NumPartitions(); ++p) {
    bcast.AppendBlock(right.store.block(p));
  }
  const uint64_t bcast_footprint = bcast.ByteFootprint();

  Dataset out;
  out.schema = JoinSchema(left.schema, right.schema);
  const size_t nparts = left.NumPartitions();
  out.store.InitBlocks(nparts, out.schema);
  std::vector<uint64_t> left_bytes = left.PartitionBytes();
  WorkMeter work(nparts);
  KeyStatsMeter kmeter(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<Status> errs(nparts);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        errs[p] = LocalJoin(left.store.block(p), bcast, left_keys, right_keys,
                            type, &out.store.block(p), &out_bytes[p],
                            &kmeter.slot(p));
        col_bytes[p] = bcast_footprint + out.store.block(p).ByteFootprint();
        work.Add(p, left_bytes[p] + bcast_bytes + out_bytes[p]);
      },
      [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  // Left rows did not move: the left guarantee (if any) is preserved.
  out.partitioning = left.partitioning;
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Dataset> NestGroup(Cluster* cluster, const Dataset& in,
                            std::vector<int> key_cols,
                            std::vector<int> value_cols,
                            const std::string& bag_col_name,
                            const std::string& name,
                            std::vector<int> indicator_cols) {
  // Fallback miss rule: all non-bag value columns NULL.
  std::vector<int> miss_cols = indicator_cols;
  if (miss_cols.empty()) {
    for (int c : value_cols) {
      const auto& t = in.schema.col(static_cast<size_t>(c)).type;
      if (t == nullptr || !t->is_bag()) miss_cols.push_back(c);
    }
  }
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts sp,
                          ShuffleOrReuse(cluster, in, key_cols, &stage));

  Schema out_schema;
  for (int c : key_cols) {
    out_schema.Append(in.schema.col(static_cast<size_t>(c)));
  }
  std::vector<nrc::Field> bag_fields;
  for (int c : value_cols) {
    const auto& col = in.schema.col(static_cast<size_t>(c));
    bag_fields.push_back({col.name, col.type});
  }
  out_schema.Append(
      {bag_col_name, nrc::Type::Bag(nrc::Type::Tuple(std::move(bag_fields)))});

  Dataset out;
  out.schema = out_schema;
  const size_t nparts = sp.NumPartitions();
  out.store.InitBlocks(nparts, out_schema);
  WorkMeter work(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  KeyStatsMeter kmeter(nparts);
  std::vector<Status> errs(nparts);
  // Groups are (row index of the row that created the group, members), in
  // first-seen order. Keys encode and members project straight from the
  // block's cells; only the inner Row of a non-miss member materializes.
  // The output's key columns are gathered from the first rows, one column
  // at a time.
  auto nest_partition = [&](size_t p) -> Status {
    const column::PartitionBlock& v = sp.block(p);
    std::vector<uint32_t> first_rows;
    std::vector<std::vector<Row>> members;
    std::vector<uint64_t> group_rows;  // rows mapped per group (chain stat)
    StageCounters& ks = kmeter.slot(p);
    flat_hash::FlatKeyIndex index;
    key_codec::KeyEncoder enc;
    const size_t rows = v.NumRows();
    for (size_t i = 0; i < rows; ++i) {
      TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                              enc.EncodeAt(v, i, key_cols));
      auto [gi, inserted] = index.FindOrInsert(k);
      if (inserted) {
        first_rows.push_back(static_cast<uint32_t>(i));
        members.emplace_back();
        group_rows.push_back(0);
        ks.hash_build_rows++;
      } else {
        ks.hash_probe_hits++;
      }
      if (++group_rows[gi] > ks.hash_max_chain) {
        ks.hash_max_chain = group_rows[gi];
      }
      // NULL-to-empty-bag cast: a miss row marks a key with no inner
      // elements (outer join/unnest miss); it creates the group only.
      bool miss = !miss_cols.empty();
      for (int c : miss_cols) {
        if (!v.IsNull(i, static_cast<size_t>(c))) {
          miss = false;
          break;
        }
      }
      if (!miss) {
        Row inner;
        inner.fields.reserve(value_cols.size());
        for (int c : value_cols) {
          inner.fields.push_back(v.FieldAt(i, static_cast<size_t>(c)));
        }
        members[gi].push_back(std::move(inner));
      }
    }
    ks.key_encode_bytes += enc.bytes_encoded();
    NoteTableStats(index, &ks);
    column::PartitionBlock& dst = out.store.block(p);
    const uint64_t before = dst.TotalRowBytes();
    dst.AppendColumns(first_rows.size(), [&](size_t c, column::AnyColumn* col) {
      if (c < key_cols.size()) {
        col->AppendGather(v.col(static_cast<size_t>(key_cols[c])), first_rows);
        return;
      }
      for (auto& m : members) col->Append(Field::Bag(std::move(m)));
    });
    out_bytes[p] = dst.TotalRowBytes() - before;
    col_bytes[p] = dst.ByteFootprint();
    work.Add(p, sp.bytes[p] + out_bytes[p]);
    return Status::OK();
  };
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage, [&](size_t p) { errs[p] = nest_partition(p); },
      [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  out.partitioning = Partitioning::Hash(
      [&] {
        std::vector<int> cols;
        for (int i = 0; i < static_cast<int>(key_cols.size()); ++i) {
          cols.push_back(i);
        }
        return cols;
      }());
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Dataset> AddIndexColumn(Cluster* cluster, const Dataset& in,
                                 const std::string& id_col_name,
                                 const std::string& name) {
  Schema out_schema = in.schema;
  out_schema.Append({id_col_name, nrc::Type::Int()});
  return RunStagePipeline(cluster, in, std::move(out_schema),
                          {RowTransform::AddIndex(name)}, in.partitioning,
                          name);
}

StatusOr<Dataset> SumAggregate(Cluster* cluster, const Dataset& in,
                               std::vector<int> key_cols,
                               std::vector<int> value_cols,
                               bool map_side_combine,
                               const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();

  Schema out_schema;
  for (int c : key_cols) {
    out_schema.Append(in.schema.col(static_cast<size_t>(c)));
  }
  std::vector<bool> is_int;
  for (int c : value_cols) {
    const auto& col = in.schema.col(static_cast<size_t>(c));
    out_schema.Append(col);
    is_int.push_back(col.type->is_scalar() &&
                     col.type->scalar_kind() == nrc::ScalarKind::kInt);
  }

  std::vector<int> partial_keys;
  for (int i = 0; i < static_cast<int>(key_cols.size()); ++i) {
    partial_keys.push_back(i);
  }

  // Local aggregation of one partition block into (key, sums) rows appended
  // to `out`. A row whose value fields are all NULL marks an outer miss: it
  // creates the group but contributes nothing; groups with no contribution
  // emit NULL values. Groups keep the row index of the row that created
  // them, in first-seen order. The row pass only encodes keys and maps each
  // row to its group; sums then accumulate one value column at a time from
  // the typed arrays (every group's additions stay in row order, so the
  // doubles round exactly as a row-at-a-time pass would), and the output's
  // key columns are gathered from the first rows. Reads only its arguments
  // and the (const) captured column metadata, so the partition-parallel
  // loops below may share it.
  auto aggregate = [&](const column::PartitionBlock& v, bool rows_are_partial,
                       StageCounters* ks, column::PartitionBlock* out,
                       uint64_t* emitted_bytes) -> Status {
    std::vector<uint32_t> first_rows;
    std::vector<uint64_t> group_rows;
    const std::vector<int>& cols = rows_are_partial ? partial_keys : key_cols;
    flat_hash::FlatKeyIndex index;
    key_codec::KeyEncoder enc;
    const size_t rows = v.NumRows();
    std::vector<uint32_t> group_of(rows);
    for (size_t i = 0; i < rows; ++i) {
      TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                              enc.EncodeAt(v, i, cols));
      auto [gi, inserted] = index.FindOrInsert(k);
      if (inserted) {
        first_rows.push_back(static_cast<uint32_t>(i));
        group_rows.push_back(0);
        ks->hash_build_rows++;
      } else {
        ks->hash_probe_hits++;
      }
      if (++group_rows[gi] > ks->hash_max_chain) {
        ks->hash_max_chain = group_rows[gi];
      }
      group_of[i] = gi;
    }
    ks->key_encode_bytes += enc.bytes_encoded();
    NoteTableStats(index, ks);

    // A group contributes once any of its rows has a non-NULL value cell
    // (a lone NULL among values adds nothing, i.e. casts to 0).
    const size_t groups = first_rows.size();
    const size_t nv = value_cols.size();
    std::vector<double> sums(groups * nv, 0.0);  // [group * nv + value]
    std::vector<uint8_t> seen(groups, nv == 0 ? 1 : 0);
    for (size_t vi = 0; vi < nv; ++vi) {
      const column::AnyColumn& col = v.col(
          rows_are_partial ? cols.size() + vi
                           : static_cast<size_t>(value_cols[vi]));
      auto add = [&](size_t i, double x) {
        sums[group_of[i] * nv + vi] += x;
        seen[group_of[i]] = 1;
      };
      switch (col.kind()) {
        case column::AnyColumn::Kind::kInt64:
          for (size_t i = 0; i < rows; ++i) {
            if (!col.IsNull(i)) add(i, static_cast<double>(col.ints()[i]));
          }
          break;
        case column::AnyColumn::Kind::kReal:
          for (size_t i = 0; i < rows; ++i) {
            if (!col.IsNull(i)) add(i, col.reals()[i]);
          }
          break;
        default:
          for (size_t i = 0; i < rows; ++i) {
            if (!col.IsNull(i)) add(i, col.At(i).AsNumber());
          }
          break;
      }
    }

    const uint64_t before = out->TotalRowBytes();
    out->AppendColumns(groups, [&](size_t c, column::AnyColumn* col) {
      if (c < cols.size()) {
        col->AppendGather(v.col(static_cast<size_t>(cols[c])), first_rows);
        return;
      }
      const size_t vi = c - cols.size();
      for (size_t g = 0; g < groups; ++g) {
        if (!seen[g]) {
          col->Append(Field::Null());
        } else if (is_int[vi]) {
          col->Append(Field::Int(static_cast<int64_t>(sums[g * nv + vi])));
        } else {
          col->Append(Field::Real(sums[g * nv + vi]));
        }
      }
    });
    *emitted_bytes += out->TotalRowBytes() - before;
    return Status::OK();
  };

  const size_t in_parts = in.NumPartitions();
  WorkMeter work(in_parts);
  Dataset partial;
  partial.schema = out_schema;
  partial.store.InitBlocks(in_parts, out_schema);
  std::vector<uint64_t> pre_col_bytes(in_parts, 0);
  // The aggregate runs up to three task loops over the same work meter, so
  // each loop accumulates into its own local vector (folded into the meter
  // after its barrier): a recovery reset may then zero the current loop's
  // slot without destroying an earlier loop's contribution.
  {
    std::vector<uint64_t> local_work(in_parts, 0);
    if (map_side_combine) {
      std::vector<uint64_t> in_bytes = in.PartitionBytes();
      KeyStatsMeter kmeter(in_parts);
      std::vector<Status> errs(in_parts);
      TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
          name + ".combine", in_parts, &stage,
          [&](size_t p) {
            uint64_t partial_bytes = 0;
            errs[p] = aggregate(in.store.block(p), false, &kmeter.slot(p),
                                &partial.store.block(p), &partial_bytes);
            pre_col_bytes[p] = partial.store.block(p).ByteFootprint();
            local_work[p] = in_bytes[p] + partial_bytes;
          },
          [&](size_t p) {
            partial.store.Clear(p);
            local_work[p] = 0;
            pre_col_bytes[p] = 0;
            kmeter.Reset(p);
            errs[p] = Status::OK();
          }));
      TRANCE_RETURN_NOT_OK(FirstError(errs));
      kmeter.Finalize(&stage);
    } else {
      // Reshape rows to (key, value) layout without combining: a column
      // projection, each output column copied whole from its source column;
      // no keyed container. NULLs pass through so the final aggregation
      // pass can apply the miss-marker rule uniformly.
      TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
          name + ".reshape", in_parts, &stage,
          [&](size_t p) {
            const column::PartitionBlock& v = in.store.block(p);
            column::PartitionBlock& dst = partial.store.block(p);
            const size_t rows = v.NumRows();
            dst.AppendColumns(rows, [&](size_t c, column::AnyColumn* col) {
              int sc = c < key_cols.size() ? key_cols[c]
                                           : value_cols[c - key_cols.size()];
              col->AppendRange(v.col(static_cast<size_t>(sc)), 0, rows);
            });
            pre_col_bytes[p] = dst.ByteFootprint();
            local_work[p] = v.TotalRowBytes();
          },
          [&](size_t p) {
            partial.store.Clear(p);
            local_work[p] = 0;
            pre_col_bytes[p] = 0;
          }));
    }
    for (size_t p = 0; p < in_parts; ++p) work.Add(p, local_work[p]);
  }
  for (uint64_t b : pre_col_bytes) stage.columnar_bytes += b;
  partial.partitioning = in.partitioning.IsHashOn(key_cols)
                             ? Partitioning::Hash(partial_keys)
                             : Partitioning::None();

  TRANCE_ASSIGN_OR_RETURN(ShuffledParts sp,
                          ShuffleOrReuse(cluster, partial, partial_keys,
                                         &stage));

  Dataset out;
  out.schema = out_schema;
  const size_t nparts = sp.NumPartitions();
  out.store.InitBlocks(nparts, out_schema);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> fin_col_bytes(nparts, 0);
  {
    std::vector<uint64_t> local_work(nparts, 0);
    KeyStatsMeter kmeter(nparts);
    std::vector<Status> errs(nparts);
    TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
        name, nparts, &stage,
        [&](size_t p) {
          errs[p] = aggregate(sp.block(p), true, &kmeter.slot(p),
                              &out.store.block(p), &out_bytes[p]);
          fin_col_bytes[p] = out.store.block(p).ByteFootprint();
          local_work[p] = sp.bytes[p] + out_bytes[p];
        },
        [&](size_t p) {
          out.store.Clear(p);
          out_bytes[p] = 0;
          fin_col_bytes[p] = 0;
          local_work[p] = 0;
          kmeter.Reset(p);
          errs[p] = Status::OK();
        }));
    TRANCE_RETURN_NOT_OK(FirstError(errs));
    kmeter.Finalize(&stage);
    for (size_t p = 0; p < nparts; ++p) work.Add(p, local_work[p]);
  }
  work.Finalize(&stage);
  for (uint64_t b : fin_col_bytes) stage.columnar_bytes += b;
  out.partitioning = Partitioning::Hash(partial_keys);
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Schema> UnnestedSchema(const Schema& in, int bag_col,
                                const std::string& id_col_name) {
  const auto& bag_type = in.col(static_cast<size_t>(bag_col)).type;
  if (!bag_type->is_bag()) {
    return Status::TypeError("unnest on non-bag column " +
                             in.col(static_cast<size_t>(bag_col)).name);
  }
  TRANCE_ASSIGN_OR_RETURN(Schema inner, Schema::FromBagType(bag_type));
  Schema out;
  if (!id_col_name.empty()) {
    out.Append({id_col_name, nrc::Type::Int()});
  }
  for (size_t i = 0; i < in.size(); ++i) {
    if (static_cast<int>(i) == bag_col) continue;
    out.Append(in.col(i));
  }
  for (const auto& c : inner.columns()) {
    std::string name = c.name;
    while (out.IndexOf(name) >= 0) name += "__u";
    out.Append({name, c.type});
  }
  return out;
}

StatusOr<Dataset> Unnest(Cluster* cluster, const Dataset& in, int bag_col,
                         const std::string& name) {
  TRANCE_ASSIGN_OR_RETURN(Schema out_schema,
                          UnnestedSchema(in.schema, bag_col, ""));
  return RunStagePipeline(cluster, in, std::move(out_schema),
                          {RowTransform::Unnest(name, bag_col)},
                          Partitioning::None(), name);
}

StatusOr<Dataset> OuterUnnest(Cluster* cluster, const Dataset& in, int bag_col,
                              const std::string& id_col_name,
                              const std::string& name) {
  TRANCE_ASSIGN_OR_RETURN(Schema out_schema,
                          UnnestedSchema(in.schema, bag_col, id_col_name));
  const bool with_id = !id_col_name.empty();
  size_t inner_width = out_schema.size() - (with_id ? 1 : 0) -
                       (in.schema.size() - 1);
  return RunStagePipeline(
      cluster, in, std::move(out_schema),
      {RowTransform::OuterUnnest(name, bag_col, with_id, inner_width)},
      Partitioning::None(), name);
}

StatusOr<Dataset> UnionAll(Cluster* cluster, const Dataset& a,
                           const Dataset& b, const std::string& name) {
  if (a.schema.size() != b.schema.size()) {
    return Status::TypeError("union of schemas with different widths");
  }
  Dataset out;
  out.schema = a.schema;
  const size_t nparts = std::max(a.NumPartitions(), b.NumPartitions());
  out.store.InitBlocks(nparts, a.schema);
  StageStats stage;
  stage.op = name;
  stage.rows_in = a.NumRows() + b.NumRows();
  std::vector<uint64_t> col_bytes(nparts, 0);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        column::PartitionBlock& dst = out.store.block(p);
        for (const Dataset* d : {&a, &b}) {
          if (p < d->NumPartitions()) dst.AppendBlock(d->store.block(p));
        }
        col_bytes[p] = dst.ByteFootprint();
      },
      [&](size_t p) {
        out.store.Clear(p);
        col_bytes[p] = 0;
      }));
  for (uint64_t bts : col_bytes) stage.columnar_bytes += bts;
  out.partitioning = Partitioning::None();
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name));
  return out;
}

StatusOr<Dataset> Distinct(Cluster* cluster, const Dataset& in,
                           const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = in.NumRows();
  std::vector<int> all_cols;
  for (int i = 0; i < static_cast<int>(in.schema.size()); ++i) {
    all_cols.push_back(i);
  }
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts sp,
                          ShuffleOrReuse(cluster, in, all_cols, &stage));
  Dataset out;
  out.schema = in.schema;
  const size_t nparts = sp.NumPartitions();
  out.store.InitBlocks(nparts, in.schema);
  WorkMeter work(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  KeyStatsMeter kmeter(nparts);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<Status> errs(nparts);
  // The membership test encodes every cell of the row straight from the
  // block and probes without materializing; the first occurrence of each
  // key joins a row-index list that is gathered, column by column, into
  // the output block. Per-key duplicate counts (the chain stat) live
  // densely beside the index.
  auto dedup_partition = [&](size_t p) -> Status {
    StageCounters& ks = kmeter.slot(p);
    const column::PartitionBlock& v = sp.block(p);
    column::PartitionBlock& dst = out.store.block(p);
    flat_hash::FlatKeyIndex seen;
    std::vector<uint64_t> counts;
    std::vector<uint32_t> firsts;
    key_codec::KeyEncoder enc;
    const size_t rows = v.NumRows();
    for (size_t i = 0; i < rows; ++i) {
      TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                              enc.EncodeRowAt(v, i));
      auto [gi, inserted] = seen.FindOrInsert(k);
      if (inserted) {
        counts.push_back(1);
        ks.hash_build_rows++;
        if (ks.hash_max_chain < 1) ks.hash_max_chain = 1;
        firsts.push_back(static_cast<uint32_t>(i));
      } else {
        ks.hash_probe_hits++;
        if (++counts[gi] > ks.hash_max_chain) ks.hash_max_chain = counts[gi];
      }
    }
    ks.key_encode_bytes += enc.bytes_encoded();
    NoteTableStats(seen, &ks);
    const uint64_t before = dst.TotalRowBytes();
    dst.AppendGather(v, firsts);
    out_bytes[p] = dst.TotalRowBytes() - before;
    col_bytes[p] = dst.ByteFootprint();
    work.Add(p, sp.bytes[p] + out_bytes[p]);
    return Status::OK();
  };
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage, [&](size_t p) { errs[p] = dedup_partition(p); },
      [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  out.partitioning = Partitioning::Hash(std::move(all_cols));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

StatusOr<Dataset> CoGroup(Cluster* cluster, const Dataset& left,
                          const Dataset& right, std::vector<int> left_keys,
                          std::vector<int> right_keys,
                          std::vector<int> right_value_cols,
                          const std::string& bag_col_name,
                          const std::string& name) {
  StageStats stage;
  stage.op = name;
  stage.rows_in = left.NumRows() + right.NumRows();
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts lsp,
                          ShuffleOrReuse(cluster, left, left_keys, &stage));
  TRANCE_ASSIGN_OR_RETURN(ShuffledParts rsp,
                          ShuffleOrReuse(cluster, right, right_keys, &stage));

  Schema out_schema = left.schema;
  std::vector<nrc::Field> bag_fields;
  for (int c : right_value_cols) {
    const auto& col = right.schema.col(static_cast<size_t>(c));
    bag_fields.push_back({col.name, col.type});
  }
  out_schema.Append(
      {bag_col_name, nrc::Type::Bag(nrc::Type::Tuple(std::move(bag_fields)))});

  Dataset out;
  out.schema = std::move(out_schema);
  const size_t nparts = lsp.NumPartitions();
  out.store.InitBlocks(nparts, out.schema);
  WorkMeter work(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  KeyStatsMeter kmeter(nparts);
  std::vector<Status> errs(nparts);
  // The right side builds one chain of projected bag members per key; a
  // chain becomes an immutable BagPtr the first time a left row matches it,
  // and every left row with that key shares it (misses share one empty
  // bag). Sharing is unobservable: a bag's deep size and equality do not
  // depend on which Field holds it. The left columns are gathered whole.
  auto cogroup_partition = [&](size_t p) -> Status {
    StageCounters& ks = kmeter.slot(p);
    const column::PartitionBlock& vl = lsp.block(p);
    const column::PartitionBlock& vr = rsp.block(p);
    column::PartitionBlock& dst = out.store.block(p);
    flat_hash::FlatKeyIndex built;
    std::vector<std::vector<Row>> chains;  // dense index -> right rows
    key_codec::KeyEncoder enc;
    const size_t rrows = vr.NumRows();
    for (size_t i = 0; i < rrows; ++i) {
      if (HasNullKeyAt(vr, i, right_keys)) continue;
      TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                              enc.EncodeAt(vr, i, right_keys));
      auto [gi, inserted] = built.FindOrInsert(k);
      if (inserted) {
        chains.emplace_back();
        ks.hash_build_rows++;
      } else {
        ks.hash_probe_hits++;
      }
      // The bag member projects straight from the block — no whole-row
      // materialization.
      Row proj;
      proj.fields.reserve(right_value_cols.size());
      for (int c : right_value_cols) {
        proj.fields.push_back(vr.FieldAt(i, static_cast<size_t>(c)));
      }
      chains[gi].push_back(std::move(proj));
      if (chains[gi].size() > ks.hash_max_chain) {
        ks.hash_max_chain = chains[gi].size();
      }
    }
    const BagPtr empty = std::make_shared<const BagRows>(std::vector<Row>{});
    std::vector<BagPtr> bags(chains.size());
    const size_t lrows = vl.NumRows();
    std::vector<const BagPtr*> bag_of(lrows, &empty);
    for (size_t j = 0; j < lrows; ++j) {
      if (HasNullKeyAt(vl, j, left_keys)) continue;
      TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                              enc.EncodeAt(vl, j, left_keys));
      uint32_t gi = built.Find(k);
      if (gi == flat_hash::FlatKeyIndex::kNotFound) continue;
      ks.hash_probe_hits++;
      if (bags[gi] == nullptr) {
        bags[gi] = std::make_shared<const BagRows>(std::move(chains[gi]));
      }
      bag_of[j] = &bags[gi];
    }
    ks.key_encode_bytes += enc.bytes_encoded();
    NoteTableStats(built, &ks);
    const uint64_t before = dst.TotalRowBytes();
    const size_t lw = vl.NumCols();
    dst.AppendColumns(lrows, [&](size_t c, column::AnyColumn* col) {
      if (c < lw) {
        col->AppendRange(vl.col(c), 0, lrows);
        return;
      }
      for (const BagPtr* b : bag_of) col->Append(Field::Bag(*b));
    });
    out_bytes[p] = dst.TotalRowBytes() - before;
    work.Add(p, lsp.bytes[p] + rsp.bytes[p] + out_bytes[p]);
    col_bytes[p] = dst.ByteFootprint();
    return Status::OK();
  };
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage, [&](size_t p) { errs[p] = cogroup_partition(p); },
      [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  out.partitioning = Partitioning::Hash(std::move(left_keys));
  TRANCE_RETURN_NOT_OK(FinishStage(cluster, std::move(stage), &out, name,
                                   std::move(out_bytes)));
  return out;
}

std::vector<Row> Take(const Dataset& in, size_t limit) {
  std::vector<Row> out;
  for (size_t p = 0; p < in.NumPartitions(); ++p) {
    const size_t rows = in.PartitionRowCount(p);
    for (size_t i = 0; i < rows; ++i) {
      if (out.size() >= limit) return out;
      out.push_back(in.RowAt(p, i));
    }
  }
  return out;
}

}  // namespace runtime
}  // namespace trance
