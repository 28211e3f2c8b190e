#include "runtime/ops.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

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
  key_codec::KeyStats& slot(size_t p) { return slots_[p]; }
  void Reset(size_t p) { slots_[p] = key_codec::KeyStats{}; }
  void Finalize(StageStats* s) const {
    key_codec::KeyStats total;
    for (const auto& k : slots_) total.Merge(k);
    s->key_encode_bytes += total.encode_bytes;
    s->hash_build_rows += total.build_rows;
    s->hash_probe_hits += total.probe_hits;
    if (total.max_chain > s->hash_max_chain) {
      s->hash_max_chain = total.max_chain;
    }
    s->hash_table_bytes += total.table_bytes;
    s->hash_resizes += total.resizes;
    if (total.probe_len_max > s->hash_probe_len_max) {
      s->hash_probe_len_max = total.probe_len_max;
    }
  }

 private:
  std::vector<key_codec::KeyStats> slots_;
};

/// Returns the first non-OK per-partition task error in partition order (so
/// the surfaced error is deterministic regardless of thread interleaving).
Status FirstError(const std::vector<Status>& errs) {
  for (const Status& e : errs) {
    if (!e.ok()) return e;
  }
  return Status::OK();
}

/// Folds one partition's spill telemetry into the stage and emits its spill
/// event. Driver-side only (post-barrier or sequential loops), in partition
/// order, so spill counters and the event sequence are thread-count-invariant.
void NoteSpill(Cluster* cluster, StageStats* stage, const std::string& op,
               size_t partition, uint64_t partition_bytes,
               const spill::SpillCounters& c) {
  stage->spill_bytes_written += c.bytes_written;
  stage->spill_bytes_read += c.bytes_read;
  stage->spill_runs += c.runs;
  stage->spill_merge_passes += c.merge_passes;
  stage->spill_rowify_avoided += c.rowify_avoided;
  obs::EventLog& log = obs::GlobalEventLog();
  if (!log.enabled()) return;
  obs::Event(&log, "spill")
      .U64("job", cluster->current_job_id())
      .Str("op", op)
      .U64("partition", partition)
      .U64("partition_bytes", partition_bytes)
      .U64("bytes_written", c.bytes_written)
      .U64("bytes_read", c.bytes_read)
      .U64("runs", c.runs)
      .U64("merge_passes", c.merge_passes)
      .U64("rowify_avoided", c.rowify_avoided)
      .Emit();
}

/// Static gate for the codec path of a keyed operator: a key column whose
/// declared type is a bag can never encode, so such operators keep the
/// legacy KeyView containers even with the codec enabled (today's
/// semantics: bag keys compare structurally). Columns with unknown type
/// pass the gate; a bag value reaching the encoder at run time then
/// surfaces as a TypeError rather than a silent divergence.
bool KeyColsEncodable(const Schema& s, const std::vector<int>& cols) {
  for (int c : cols) {
    const auto& t = s.col(static_cast<size_t>(c)).type;
    if (t != nullptr && t->is_bag()) return false;
  }
  return true;
}

/// Which container idiom a keyed operator runs on. Two code paths exist per
/// operator: the encoded path (written once, instantiated with either index
/// container via WithKeyIndex) and the legacy KeyView fallback.
enum class KeyedMode {
  kFlat,    // codec on, flat on: open-addressing table over arena key bytes
  kStdMap,  // codec on, flat off: node-based unordered_map<EncodedKey, …>
  kLegacy,  // codec off (or unencodable keys): historical KeyView containers
};

KeyedMode KeyedModeFor(const Cluster* cluster, bool encodable) {
  if (!cluster->key_codec_enabled() || !encodable) return KeyedMode::kLegacy;
  return cluster->flat_hash_enabled() ? KeyedMode::kFlat : KeyedMode::kStdMap;
}

template <class T>
struct IndexTag {
  using type = T;
};

/// Runs the encoded keyed loop `f` with its index container type: the flat
/// open-addressing table (default) or the std::unordered_map fallback when
/// enable_flat_hash is off. The loop body is written once and instantiated
/// with both, so the escape hatch cannot drift from the flat path.
template <class F>
auto WithKeyIndex(KeyedMode mode, F&& f) {
  return mode == KeyedMode::kFlat ? f(IndexTag<flat_hash::FlatKeyIndex>{})
                                  : f(IndexTag<flat_hash::StdKeyIndex>{});
}

/// Accumulates `add` into `into[i]`, growing the histogram on first use (a
/// stage may run several shuffles, e.g. both sides of a join).
void AccumulateHistogram(std::vector<uint64_t>* into,
                         const std::vector<uint64_t>& add) {
  if (into->size() < add.size()) into->resize(add.size(), 0);
  for (size_t i = 0; i < add.size(); ++i) (*into)[i] += add[i];
}

/// Read view over one partition in either residence. Operators consume their
/// inputs through this view: block-resident partitions serve cell reads,
/// null probes, sizes, and key encoding straight from the column arenas —
/// only MaterializeRow crosses the representation boundary, and only the
/// legacy keyed path counts those crossings (see column_to_row_conversions
/// in docs/METRICS.md). Both residences observe bit-identical Field values,
/// so everything derived from a view is residence-invariant.
struct PartView {
  const std::vector<Row>* rows = nullptr;
  const column::PartitionBlock* block = nullptr;

  static PartView Of(const PartitionStore& s, size_t p) {
    PartView v;
    if (s.block_resident()) {
      v.block = &s.block(p);
    } else {
      v.rows = &s.rows(p);
    }
    return v;
  }
  /// A view over a plain row list (broadcast copies, collected rows).
  static PartView OfRowList(const std::vector<Row>& r) {
    PartView v;
    v.rows = &r;
    return v;
  }

  bool block_backed() const { return block != nullptr; }
  size_t size() const { return block != nullptr ? block->NumRows() : rows->size(); }

  /// Materializes row i (transient unless the caller retains it; the legacy
  /// keyed containers do retain, which is why they count conversions).
  Row MaterializeRow(size_t i) const {
    return block != nullptr ? block->RowAt(i) : (*rows)[i];
  }
  Field FieldAt(size_t i, size_t c) const {
    return block != nullptr ? block->FieldAt(i, c) : (*rows)[i].fields[c];
  }
  bool IsNullAt(size_t i, size_t c) const {
    return block != nullptr ? block->IsNull(i, c)
                            : (*rows)[i].fields[c].is_null();
  }
  bool HasNullKeyAt(size_t i, const std::vector<int>& cols) const {
    for (int c : cols) {
      if (IsNullAt(i, static_cast<size_t>(c))) return true;
    }
    return false;
  }
  /// RowDeepSize of row i without materializing it.
  uint64_t RowBytes(size_t i) const {
    return block != nullptr ? block->RowBytesAt(i) : RowDeepSize((*rows)[i]);
  }
  /// Key fields of row i at `cols` (group/key storage).
  std::vector<Field> KeyFields(size_t i, const std::vector<int>& cols) const {
    std::vector<Field> out;
    out.reserve(cols.size());
    for (int c : cols) out.push_back(FieldAt(i, static_cast<size_t>(c)));
    return out;
  }
  /// Encodes the key columns of row i; byte-identical to
  /// enc->Encode(MaterializeRow(i), cols) — block cells append incrementally
  /// from the arenas, ragged blocks and row lists encode the row form.
  StatusOr<key_codec::EncodedKeyView> EncodeKey(key_codec::KeyEncoder* enc,
                                                size_t i,
                                                const std::vector<int>& cols) const {
    if (block == nullptr) return enc->Encode((*rows)[i], cols);
    if (block->ragged()) return enc->Encode(block->RowAt(i), cols);
    enc->Begin();
    for (int c : cols) {
      TRANCE_RETURN_NOT_OK(enc->Append(block->FieldAt(i, static_cast<size_t>(c))));
    }
    return enc->Finish();
  }
  /// Encodes every column of row i (whole-row membership keys, e.g.
  /// Distinct); byte-identical to enc->EncodeRow(MaterializeRow(i)).
  StatusOr<key_codec::EncodedKeyView> EncodeAllCols(
      key_codec::KeyEncoder* enc, size_t i) const {
    if (block == nullptr) return enc->EncodeRow((*rows)[i]);
    if (block->ragged()) return enc->EncodeRow(block->RowAt(i));
    enc->Begin();
    for (size_t c = 0; c < block->NumCols(); ++c) {
      TRANCE_RETURN_NOT_OK(enc->Append(block->FieldAt(i, c)));
    }
    return enc->Finish();
  }
};

/// Append-only writer over one output partition in whichever residence the
/// operator chose at init (InitBlocks/InitRows). Appends never reserve, so a
/// block partition's ByteFootprint is a pure function of the append sequence
/// — the invariant every columnar_bytes charge and the spill/restore replay
/// rely on. The sink itself charges nothing; callers read the block's
/// footprint after their loop, into the partition's own stat slot.
struct PartSink {
  PartitionStore* store;
  size_t p;

  void Append(const Row& r) {
    if (store->block_resident()) {
      store->block(p).AppendRow(r);
    } else {
      store->rows(p).push_back(r);
    }
  }
  void Append(Row&& r) {
    if (store->block_resident()) {
      store->block(p).AppendRow(r);
    } else {
      store->rows(p).push_back(std::move(r));
    }
  }
  /// Row i of `v`, column-to-column when both sides are blocks.
  void AppendFrom(const PartView& v, size_t i) {
    if (store->block_resident()) {
      if (v.block != nullptr) {
        store->block(p).AppendRowFrom(*v.block, i);
      } else {
        store->block(p).AppendRow((*v.rows)[i]);
      }
    } else {
      store->rows(p).push_back(v.MaterializeRow(i));
    }
  }
};

/// Partitions entering an operator's partition-local phase, in whichever
/// residence the producing shuffle (or reused input) holds them, with the
/// deep-size footprint of each partition. The bytes ride along from the
/// shuffle (where every row was sized exactly once) so the work meter and
/// memory check never re-walk rows a shuffle already sized.
struct ShuffledParts {
  PartitionStore store;
  std::vector<uint64_t> bytes;
};

/// Hash-shuffles `in` to num_partitions buckets keyed on key_cols, recording
/// exact cross-partition movement into `stage`. Two-phase and
/// partition-parallel:
///   1. each input partition buckets its rows by target partition into its
///      own bucket set, sizing every row once (the size feeds movement
///      accounting and the output footprint);
///   2. each target partition concatenates its buckets in fixed
///      input-partition order.
/// Phase 2's fixed order reproduces the sequential row order exactly, and
/// the movement histograms are merged in partition order at the phase-1
/// barrier, so output and stats are identical for any thread count.
///
/// Columnar mode moves columns, not rows: the map side routes cells
/// block-to-block straight out of the resident input block (a row-resident
/// input — the legacy keyed handoff — packs once, counted), and the fetch
/// side concatenates the per-target buckets into the resident output block,
/// so no row materializes on either side. Routing hashes
/// (PartitionBlock::HashRowOn == RowHashOn) and per-row sizes (RowBytesAt ==
/// RowDeepSize) are computed from the identical Field values, so placement
/// and every movement stat are bit-identical either way.
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
  const bool columnar = cluster->columnar_enabled();

  struct SourceBuckets {
    std::vector<std::vector<Row>> rows;  // [target] (row mode)
    std::vector<column::PartitionBlock> blocks;  // [target] (columnar mode)
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
        if (columnar) {
          // Block-resident inputs route out of their own arenas; only a
          // row-resident input (the legacy keyed handoff) pays for a pack
          // here, and that pack is what map_col_bytes charges for it.
          column::PartitionBlock packed;
          const column::PartitionBlock* in_block = nullptr;
          if (in.store.block_resident()) {
            in_block = &in.store.block(p);
          } else {
            packed = column::PartitionBlock::FromRows(in.schema,
                                                      in.store.rows(p));
            map_col_bytes[p] += packed.ByteFootprint();
            in_block = &packed;
          }
          b.blocks.assign(n, column::PartitionBlock(in.schema));
          const size_t rows = in_block->NumRows();
          for (size_t i = 0; i < rows; ++i) {
            size_t target = static_cast<size_t>(
                cluster->PartitionOf(in_block->HashRowOn(i, key_cols)));
            uint64_t sz = in_block->RowBytesAt(i);
            b.bytes[target] += sz;
            if (target != p) {
              b.moved[target] += sz;
              b.sent += sz;
              ++b.moved_rows;
            }
            b.blocks[target].AppendRowFrom(*in_block, i);
          }
          for (const auto& tb : b.blocks) {
            map_col_bytes[p] += tb.ByteFootprint();
          }
          return;
        }
        b.rows.resize(n);
        for (const auto& row : in.store.rows(p)) {
          // key_codec::KeyHashOn is the codec's key hash and is identical to
          // RowHashOn, so shuffle routing never depends on the codec mode.
          size_t target = static_cast<size_t>(
              cluster->PartitionOf(key_codec::KeyHashOn(row, key_cols)));
          uint64_t sz = RowDeepSize(row);
          b.bytes[target] += sz;
          if (target != p) {
            b.moved[target] += sz;
            b.sent += sz;
            ++b.moved_rows;
          }
          b.rows[target].push_back(row);
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
  if (columnar) {
    out.store.InitBlocks(n, in.schema);
  } else {
    out.store.InitRows(n);
  }
  out.bytes.assign(n, 0);
  std::vector<uint64_t> fetch_col_bytes(n, 0);

  // Fetch-side spill (runtime/spill.h): a target whose total received bytes
  // exceed the spill threshold writes one run per non-empty source bucket
  // (clearing the bucket as it goes), then stream-merges the runs back in
  // fixed source order — the identical row sequence the in-memory
  // concatenation produces. Columnar targets restore straight into the
  // resident output block (each block-record row counts into rowify_avoided
  // instead of materializing). The spill decision and every run are pure
  // functions of the routed bytes, and the per-target counter slots are
  // folded in target order after the barrier, so results and stats stay
  // thread-count-invariant.
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
      std::string path = sm->RunPath(job, tag, t, runs.size());
      if (columnar) {
        auto& src = buckets[p].blocks[t];
        if (src.NumRows() == 0) continue;
        TRANCE_RETURN_NOT_OK(sm->WriteBlockRun(path, src, c));
        src = column::PartitionBlock(in.schema);
      } else {
        auto& src = buckets[p].rows[t];
        if (src.empty()) continue;
        TRANCE_RETURN_NOT_OK(sm->WriteRowsRun(path, src, c));
        src.clear();
        src.shrink_to_fit();
      }
      runs.push_back(std::move(path));
    }
    // One merge pass: streaming the runs in write order restores the exact
    // source-order concatenation. ReadRunIntoBlock appends column by column
    // with the same per-cell sequence the in-memory concatenation performs,
    // so the restored block's footprint equals the never-spilled one.
    for (const std::string& path : runs) {
      if (columnar) {
        TRANCE_RETURN_NOT_OK(
            sm->ReadRunIntoBlock(path, &out.store.block(t), c));
      } else {
        TRANCE_RETURN_NOT_OK(sm->ReadRun(path, &out.store.rows(t), nullptr, c));
      }
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
        if (!spilled && columnar) {
          column::PartitionBlock& dst = out.store.block(t);
          for (size_t p = 0; p < in_n; ++p) {
            const auto& src = buckets[p].blocks[t];
            const size_t rows = src.NumRows();
            for (size_t i = 0; i < rows; ++i) dst.AppendRowFrom(src, i);
            out.bytes[t] += buckets[p].bytes[t];
          }
        } else if (!spilled) {
          size_t total = 0;
          for (size_t p = 0; p < in_n; ++p) total += buckets[p].rows[t].size();
          out.store.rows(t).reserve(total);
          for (size_t p = 0; p < in_n; ++p) {
            auto& src = buckets[p].rows[t];
            out.store.rows(t).insert(out.store.rows(t).end(),
                                     std::make_move_iterator(src.begin()),
                                     std::make_move_iterator(src.end()));
            out.bytes[t] += buckets[p].bytes[t];
          }
        }
        if (columnar) {
          fetch_col_bytes[t] += out.store.block(t).ByteFootprint();
        }
      },
      nullptr));
  TRANCE_RETURN_NOT_OK(FirstError(spill_errs));
  for (size_t t = 0; t < n; ++t) {
    if (spill_slots[t].runs == 0 && spill_slots[t].merge_passes == 0) continue;
    NoteSpill(cluster, stage, stage->op + ".shuffle_fetch", t, out.bytes[t],
              spill_slots[t]);
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

/// Shuffle path of operators that group/join on `key_cols`: reuses the input
/// partitions (zero movement — and still one sizing walk for the work meter)
/// when the guarantee already holds, otherwise hash-shuffles.
StatusOr<ShuffledParts> ShuffleOrReuse(Cluster* cluster, const Dataset& in,
                                       const std::vector<int>& key_cols,
                                       StageStats* stage) {
  if (in.partitioning.IsHashOn(key_cols)) {
    ShuffledParts out;
    out.store = in.store;
    out.bytes = in.PartitionBytes(cluster->num_threads());
    // Keyed-input spill: on the reuse path no shuffle bounds the partitions,
    // so an oversized keyed-build input spills to runs here and streams back
    // in the original order — the downstream index build then inserts the
    // identical row sequence (same hash_* stats, same group emission order).
    // Block-resident partitions spill and restore as block records without
    // materializing a row. Driver-side, in partition order.
    if (cluster->spill_enabled()) {
      const uint64_t threshold = cluster->spill_threshold_bytes();
      for (size_t p = 0; p < out.store.NumPartitions(); ++p) {
        if (out.bytes[p] <= threshold) continue;
        spill::SpillCounters pc;
        if (out.store.block_resident()) {
          TRANCE_RETURN_NOT_OK(cluster->spill_manager()->SpillAndRestoreBlock(
              cluster->current_job_id(), stage->op + ".keyed_input", p,
              in.schema, &out.store.block(p), &pc));
        } else {
          TRANCE_RETURN_NOT_OK(cluster->spill_manager()->SpillAndRestoreRows(
              cluster->current_job_id(), stage->op + ".keyed_input", p,
              &out.store.rows(p), &pc));
        }
        NoteSpill(cluster, stage, stage->op + ".keyed_input", p, out.bytes[p],
                  pc);
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

Row ConcatRows(const Row& l, const Row& r) {
  Row out;
  out.fields = l.fields;
  out.fields.reserve(l.fields.size() + r.fields.size());
  out.fields.insert(out.fields.end(), r.fields.begin(), r.fields.end());
  return out;
}

Row NullPadRight(const Row& l, size_t right_width) {
  Row out;
  out.fields = l.fields;
  out.fields.reserve(l.fields.size() + right_width);
  for (size_t i = 0; i < right_width; ++i) out.fields.push_back(Field::Null());
  return out;
}

bool HasNullKey(const Row& r, const std::vector<int>& cols) {
  for (int c : cols) {
    if (r.fields[static_cast<size_t>(c)].is_null()) return true;
  }
  return false;
}

/// Partition-local hash join of two partition views into `sink`.
/// `right_schema` supplies the right width (an empty right partition must
/// still NULL-pad fully) and, in columnar mode, the build block's column
/// types. Writes the deep-size footprint of the rows it appended to
/// *out_bytes and the keyed-phase telemetry into *ks. On the encoded modes
/// the build table is keyed by compact binary keys (one arena append per
/// distinct key, no per-probe allocation); kLegacy runs the historical
/// KeyView containers. When `columnar` is set (and the mode is encoded — the
/// legacy path has no block form), the build side is consumed column-wise: a
/// block-resident right partition is used in place, a row list (broadcast or
/// legacy handoff) packs into a typed block once (counted into *col_bytes);
/// probe keys encode straight from the left view's arenas. The legacy path's
/// containers retain Row pointers, so block-resident inputs materialize row
/// vectors there — the one surviving in-memory conversion site, counted into
/// *conversions. All paths count build/probe/chain identically — key
/// identity coincides, so the counters are mode-invariant.
Status LocalJoin(const PartView& left, const PartView& right,
                 const std::vector<int>& lk, const std::vector<int>& rk,
                 JoinType type, const Schema& right_schema, bool columnar,
                 KeyedMode mode, PartSink sink, uint64_t* out_bytes,
                 uint64_t* col_bytes, uint64_t* conversions,
                 key_codec::KeyStats* ks) {
  *out_bytes = 0;
  *col_bytes = 0;
  *conversions = 0;
  const size_t right_width = right_schema.size();
  auto emit = [&](Row&& row) {
    *out_bytes += RowDeepSize(row);
    sink.Append(std::move(row));
  };
  auto emit_matches = [&](const Row& l, const std::vector<const Row*>& rows) {
    for (const Row* r : rows) emit(ConcatRows(l, *r));
  };
  auto emit_miss = [&](const Row& l) {
    if (type == JoinType::kLeftOuter) emit(NullPadRight(l, right_width));
  };
  if (mode != KeyedMode::kLegacy && columnar) {
    return WithKeyIndex(mode, [&](auto tag) -> Status {
      typename decltype(tag)::type built(right.size());
      column::PartitionBlock packed;
      const column::PartitionBlock* rb = right.block;
      if (rb == nullptr) {
        packed = column::PartitionBlock::FromRows(right_schema, *right.rows);
        *col_bytes += packed.ByteFootprint();
        rb = &packed;
      }
      // Dense per-key chains of row offsets into the block — the flat table
      // references (block, row-offset) pairs, never materialized Rows.
      std::vector<std::vector<uint32_t>> chains;
      chains.reserve(right.size());
      key_codec::KeyEncoder enc;
      const size_t rn = rb->NumRows();
      for (size_t i = 0; i < rn; ++i) {
        bool null_key = false;
        for (int c : rk) {
          if (rb->IsNull(i, static_cast<size_t>(c))) {
            null_key = true;
            break;
          }
        }
        if (null_key) continue;
        enc.Begin();
        for (int c : rk) {
          TRANCE_RETURN_NOT_OK(enc.Append(rb->FieldAt(i, static_cast<size_t>(c))));
        }
        auto [gi, inserted] = built.FindOrInsert(enc.Finish());
        if (inserted) {
          chains.emplace_back();
          ks->build_rows++;
        } else {
          ks->probe_hits++;
        }
        chains[gi].push_back(static_cast<uint32_t>(i));
        if (chains[gi].size() > ks->max_chain) ks->max_chain = chains[gi].size();
      }
      const size_t ln = left.size();
      for (size_t j = 0; j < ln; ++j) {
        bool matched = false;
        if (!left.HasNullKeyAt(j, lk)) {
          TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                                  left.EncodeKey(&enc, j, lk));
          uint32_t gi = built.Find(k);
          if (gi != decltype(built)::kNotFound) {
            matched = true;
            ks->probe_hits++;
            Row l = left.MaterializeRow(j);
            for (uint32_t ri : chains[gi]) {
              emit(ConcatRows(l, rb->RowAt(ri)));
            }
          }
        }
        if (!matched && type == JoinType::kLeftOuter) {
          emit(NullPadRight(left.MaterializeRow(j), right_width));
        }
      }
      ks->encode_bytes += enc.bytes_encoded();
      NoteTableStats(built, ks);
      return Status::OK();
    });
  }
  if (mode != KeyedMode::kLegacy) {
    // Encoded row path (columnar off, so both views are row-resident).
    const std::vector<Row>& lrows = *left.rows;
    const std::vector<Row>& rrows = *right.rows;
    return WithKeyIndex(mode, [&](auto tag) -> Status {
      typename decltype(tag)::type built(rrows.size());
      // Dense per-key row chains, indexed by the table's insertion-order
      // index (the map-based path stored them in the node values).
      std::vector<std::vector<const Row*>> chains;
      chains.reserve(rrows.size());
      key_codec::KeyEncoder enc;
      for (const auto& r : rrows) {
        if (HasNullKey(r, rk)) continue;
        TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k, enc.Encode(r, rk));
        auto [gi, inserted] = built.FindOrInsert(k);
        if (inserted) {
          chains.emplace_back();
          ks->build_rows++;
        } else {
          ks->probe_hits++;
        }
        chains[gi].push_back(&r);
        if (chains[gi].size() > ks->max_chain) ks->max_chain = chains[gi].size();
      }
      for (const auto& l : lrows) {
        bool matched = false;
        if (!HasNullKey(l, lk)) {
          TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                                  enc.Encode(l, lk));
          uint32_t gi = built.Find(k);
          if (gi != decltype(built)::kNotFound) {
            matched = true;
            ks->probe_hits++;
            emit_matches(l, chains[gi]);
          }
        }
        if (!matched) emit_miss(l);
      }
      ks->encode_bytes += enc.bytes_encoded();
      NoteTableStats(built, ks);
      return Status::OK();
    });
  }
  // Legacy containers retain Row pointers, so block-resident inputs
  // materialize whole row vectors here (each row counted).
  std::vector<Row> lmat, rmat;
  const std::vector<Row>* lrows = left.rows;
  const std::vector<Row>* rrows = right.rows;
  if (left.block_backed()) {
    lmat = left.block->ToRows();
    *conversions += lmat.size();
    lrows = &lmat;
  }
  if (right.block_backed()) {
    rmat = right.block->ToRows();
    *conversions += rmat.size();
    rrows = &rmat;
  }
  std::unordered_map<KeyView, std::vector<const Row*>, KeyViewHash, KeyViewEq>
      built;
  built.reserve(rrows->size());
  for (const auto& r : *rrows) {
    if (HasNullKey(r, rk)) continue;
    auto [it, inserted] = built.try_emplace(ExtractKey(r, rk));
    if (inserted) {
      ks->build_rows++;
    } else {
      ks->probe_hits++;
    }
    it->second.push_back(&r);
    if (it->second.size() > ks->max_chain) ks->max_chain = it->second.size();
  }
  for (const auto& l : *lrows) {
    bool matched = false;
    if (!HasNullKey(l, lk)) {
      auto it = built.find(ExtractKey(l, lk));
      if (it != built.end()) {
        matched = true;
        ks->probe_hits++;
        emit_matches(l, it->second);
      }
    }
    if (!matched) emit_miss(l);
  }
  return Status::OK();
}

// Stage barrier shared with the fused-stage runner.
using detail::FinishStage;

}  // namespace

StatusOr<Dataset> Source(Cluster* cluster, Schema schema,
                         std::vector<Row> rows, const std::string& name) {
  const size_t n = static_cast<size_t>(cluster->num_partitions());
  Dataset ds;
  ds.schema = std::move(schema);
  ds.partitioning = Partitioning::None();
  StageStats stage;
  stage.op = "source(" + name + ")";
  if (cluster->columnar_enabled()) {
    // Columnar sources land block-resident: the driver appends each row to
    // its round-robin partition block, so downstream stages start from
    // columns without a packing step. Driver-sequential, so the footprint
    // charge is thread-count-invariant.
    ds.store.InitBlocks(n, ds.schema);
    for (size_t i = 0; i < rows.size(); ++i) {
      ds.store.block(i % n).AppendRow(rows[i]);
    }
    for (size_t p = 0; p < n; ++p) {
      stage.columnar_bytes += ds.store.block(p).ByteFootprint();
    }
  } else {
    ds.store.InitRows(n);
    for (size_t i = 0; i < rows.size(); ++i) {
      ds.store.rows(i % n).push_back(std::move(rows[i]));
    }
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
  Dataset ds;
  ds.schema = std::move(schema);
  StageStats stage;
  stage.op = "source_partitioned(" + name + ")";
  if (cluster->columnar_enabled()) {
    ds.store.InitBlocks(n, ds.schema);
    for (const auto& row : rows) {
      int target = cluster->PartitionOf(key_codec::KeyHashOn(row, key_cols));
      ds.store.block(static_cast<size_t>(target)).AppendRow(row);
    }
    for (size_t p = 0; p < n; ++p) {
      stage.columnar_bytes += ds.store.block(p).ByteFootprint();
    }
  } else {
    ds.store.InitRows(n);
    for (auto& row : rows) {
      int target = cluster->PartitionOf(key_codec::KeyHashOn(row, key_cols));
      ds.store.rows(static_cast<size_t>(target)).push_back(std::move(row));
    }
  }
  ds.partitioning = Partitioning::Hash(std::move(key_cols));
  stage.rows_in = ds.NumRows();
  stage.rows_out = ds.NumRows();
  cluster->RecordStage(std::move(stage));
  return ds;
}

StatusOr<Dataset> MapRows(Cluster* cluster, const Dataset& in,
                          Schema out_schema, const MapFn& fn,
                          const std::string& name, bool preserves_partitioning,
                          Partitioning out_partitioning) {
  return RunStagePipeline(
      cluster, in, std::move(out_schema), {RowTransform::Map(name, fn)},
      preserves_partitioning ? in.partitioning : std::move(out_partitioning),
      name);
}

StatusOr<Dataset> FilterRows(Cluster* cluster, const Dataset& in,
                             const PredFn& pred, const std::string& name) {
  return RunStagePipeline(cluster, in, in.schema,
                          {RowTransform::Filter(name, pred)}, in.partitioning,
                          name);
}

StatusOr<Dataset> FlatMapRows(Cluster* cluster, const Dataset& in,
                              Schema out_schema, const FlatMapFn& fn,
                              const std::string& name) {
  return RunStagePipeline(cluster, in, std::move(out_schema),
                          {RowTransform::FlatMap(name, fn)},
                          Partitioning::None(), name);
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
  // The shuffled partitions ARE the output — blocks stay resident.
  out.store = std::move(sp.store);
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
  const size_t nparts = lsp.store.NumPartitions();
  const KeyedMode mode =
      KeyedModeFor(cluster, KeyColsEncodable(left.schema, left_keys) &&
                                KeyColsEncodable(right.schema, right_keys));
  const bool columnar = cluster->columnar_enabled();
  // The output keeps the residence the local joins built it in: encoded
  // columnar joins append matches into resident blocks (footprint charged
  // per partition slot); the legacy path stays row-resident.
  const bool block_out = columnar && mode != KeyedMode::kLegacy;
  if (block_out) {
    out.store.InitBlocks(nparts, out.schema);
  } else {
    out.store.InitRows(nparts);
  }
  WorkMeter work(nparts);
  KeyStatsMeter kmeter(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<uint64_t> conv(nparts, 0);
  std::vector<Status> errs(nparts);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        errs[p] = LocalJoin(PartView::Of(lsp.store, p),
                            PartView::Of(rsp.store, p), left_keys, right_keys,
                            type, right.schema, columnar, mode,
                            PartSink{&out.store, p}, &out_bytes[p],
                            &col_bytes[p], &conv[p], &kmeter.slot(p));
        if (block_out) col_bytes[p] += out.store.block(p).ByteFootprint();
        work.Add(p, lsp.bytes[p] + rsp.bytes[p] + out_bytes[p]);
      },
      [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        conv[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  for (uint64_t r : conv) stage.column_to_row_conversions += r;
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
  // The broadcast replicates the right side to every partition. One parallel
  // sizing pass covers the movement accounting and the send histogram.
  // Collect is a true row boundary (replication leaves the partition store).
  std::vector<Row> bcast = right.Collect(cluster->num_threads());
  std::vector<uint64_t> right_bytes =
      right.PartitionBytes(cluster->num_threads());
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
          .U64("rows_moved", static_cast<uint64_t>(bcast.size()) * n)
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

  Dataset out;
  out.schema = JoinSchema(left.schema, right.schema);
  const size_t nparts = left.NumPartitions();
  const KeyedMode mode =
      KeyedModeFor(cluster, KeyColsEncodable(left.schema, left_keys) &&
                                KeyColsEncodable(right.schema, right_keys));
  const bool columnar = cluster->columnar_enabled();
  const bool block_out = columnar && mode != KeyedMode::kLegacy;
  if (block_out) {
    out.store.InitBlocks(nparts, out.schema);
  } else {
    out.store.InitRows(nparts);
  }
  std::vector<uint64_t> left_bytes =
      left.PartitionBytes(cluster->num_threads());
  WorkMeter work(nparts);
  KeyStatsMeter kmeter(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<uint64_t> conv(nparts, 0);
  std::vector<Status> errs(nparts);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        // Columnar mode packs the broadcast row list into a typed block per
        // receiving partition inside LocalJoin (each pack is counted).
        errs[p] = LocalJoin(PartView::Of(left.store, p),
                            PartView::OfRowList(bcast), left_keys, right_keys,
                            type, right.schema, columnar, mode,
                            PartSink{&out.store, p}, &out_bytes[p],
                            &col_bytes[p], &conv[p], &kmeter.slot(p));
        if (block_out) col_bytes[p] += out.store.block(p).ByteFootprint();
        work.Add(p, left_bytes[p] + bcast_bytes + out_bytes[p]);
      },
      [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        conv[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  for (uint64_t r : conv) stage.column_to_row_conversions += r;
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
  const size_t nparts = sp.store.NumPartitions();
  const KeyedMode mode =
      KeyedModeFor(cluster, KeyColsEncodable(in.schema, key_cols));
  const bool block_out =
      cluster->columnar_enabled() && mode != KeyedMode::kLegacy;
  if (block_out) {
    out.store.InitBlocks(nparts, out_schema);
  } else {
    out.store.InitRows(nparts);
  }
  WorkMeter work(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<uint64_t> conv(nparts, 0);
  KeyStatsMeter kmeter(nparts);
  std::vector<Status> errs(nparts);
  auto nest_task = [&](size_t p) {
    // Group storage is mode-independent: (key fields of the first row that
    // created the group, members), in first-seen order. The two key paths
    // only differ in how a row finds its group index.
    PartView v = PartView::Of(sp.store, p);
    std::vector<std::pair<std::vector<Field>, std::vector<Row>>> groups;
    std::vector<uint64_t> group_rows;  // rows mapped per group (chain stat)
    key_codec::KeyStats& ks = kmeter.slot(p);
    // Members project straight from the view (arena reads on block-resident
    // inputs); only the inner Row of a non-miss member materializes.
    auto add_row = [&](size_t gi, size_t i) {
      if (++group_rows[gi] > ks.max_chain) ks.max_chain = group_rows[gi];
      // NULL-to-empty-bag cast: a miss row marks a key with no inner
      // elements (outer join/unnest miss); it creates the group only.
      bool miss = !miss_cols.empty();
      for (int c : miss_cols) {
        if (!v.IsNullAt(i, static_cast<size_t>(c))) {
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
        groups[gi].second.push_back(std::move(inner));
      }
    };
    const size_t rows = v.size();
    if (mode != KeyedMode::kLegacy) {
      bool failed = WithKeyIndex(mode, [&](auto tag) -> bool {
        typename decltype(tag)::type index;
        key_codec::KeyEncoder enc;
        for (size_t i = 0; i < rows; ++i) {
          auto kv = v.EncodeKey(&enc, i, key_cols);
          if (!kv.ok()) {
            errs[p] = kv.status();
            return true;
          }
          auto [gi, inserted] = index.FindOrInsert(kv.value());
          if (inserted) {
            groups.emplace_back(v.KeyFields(i, key_cols), std::vector<Row>{});
            group_rows.push_back(0);
            ks.build_rows++;
          } else {
            ks.probe_hits++;
          }
          add_row(gi, i);
        }
        ks.encode_bytes += enc.bytes_encoded();
        NoteTableStats(index, &ks);
        return false;
      });
      if (failed) return;
    } else {
      // Legacy containers key on materialized rows; a block-resident input
      // materializes each row here (counted).
      std::unordered_map<KeyView, size_t, KeyViewHash, KeyViewEq> index;
      for (size_t i = 0; i < rows; ++i) {
        Row row = v.MaterializeRow(i);
        if (v.block_backed()) ++conv[p];
        auto [it, inserted] =
            index.try_emplace(ExtractKey(row, key_cols), groups.size());
        size_t gi = it->second;
        if (inserted) {
          groups.emplace_back(it->first.fields, std::vector<Row>{});
          group_rows.push_back(0);
          ks.build_rows++;
        } else {
          ks.probe_hits++;
        }
        add_row(gi, i);
      }
    }
    PartSink sink{&out.store, p};
    for (auto& [key_fields, members] : groups) {
      Row row;
      row.fields = std::move(key_fields);
      row.fields.push_back(Field::Bag(std::move(members)));
      out_bytes[p] += RowDeepSize(row);
      sink.Append(std::move(row));
    }
    if (block_out) col_bytes[p] += out.store.block(p).ByteFootprint();
    work.Add(p, sp.bytes[p] + out_bytes[p]);
  };
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage, nest_task, [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        conv[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  for (uint64_t r : conv) stage.column_to_row_conversions += r;
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
  const KeyedMode mode =
      KeyedModeFor(cluster, KeyColsEncodable(in.schema, key_cols));
  const bool block_out =
      cluster->columnar_enabled() && mode != KeyedMode::kLegacy;

  // Local aggregation of one partition view into (key, sums) rows appended
  // to `sink`. A row whose value fields are all NULL marks an outer miss: it
  // creates the group but contributes nothing; groups with no contribution
  // emit NULL values. Reads only its arguments and the (const) captured
  // column metadata, so the partition-parallel loops below may share it.
  // Group storage and emission are mode-independent (key fields of the first
  // row that created the group, in first-seen order); only the group lookup
  // differs — the encoded path keys straight off the view (arena reads on
  // blocks), the legacy path materializes each row (counted into *conv on
  // block-resident inputs).
  struct Acc {
    std::vector<double> sums;
    bool seen = false;
  };
  auto aggregate = [&](const PartView& v, bool rows_are_partial,
                       key_codec::KeyStats* ks, PartSink sink,
                       uint64_t* emitted_bytes, uint64_t* conv) -> Status {
    std::vector<std::pair<std::vector<Field>, Acc>> groups;
    std::vector<uint64_t> group_rows;
    const std::vector<int>& cols = rows_are_partial ? partial_keys : key_cols;
    auto value_col_of = [&](size_t vi) {
      return rows_are_partial ? key_cols.size() + vi
                              : static_cast<size_t>(value_cols[vi]);
    };
    auto fold = [&](size_t gi, size_t i) {
      if (++group_rows[gi] > ks->max_chain) ks->max_chain = group_rows[gi];
      Acc& acc = groups[gi].second;
      bool all_null = !value_cols.empty();
      for (size_t vi = 0; vi < value_cols.size(); ++vi) {
        if (!v.IsNullAt(i, value_col_of(vi))) all_null = false;
      }
      if (all_null) return;  // miss marker: group exists, no contribution
      acc.seen = true;
      for (size_t vi = 0; vi < value_cols.size(); ++vi) {
        Field f = v.FieldAt(i, value_col_of(vi));
        if (!f.is_null()) acc.sums[vi] += f.AsNumber();  // lone NULL casts to 0
      }
    };
    auto new_group = [&](std::vector<Field> key_fields) {
      Acc acc;
      acc.sums.assign(value_cols.size(), 0.0);
      groups.emplace_back(std::move(key_fields), std::move(acc));
      group_rows.push_back(0);
      ks->build_rows++;
    };
    const size_t rows = v.size();
    if (mode != KeyedMode::kLegacy) {
      TRANCE_RETURN_NOT_OK(WithKeyIndex(mode, [&](auto tag) -> Status {
        typename decltype(tag)::type index;
        key_codec::KeyEncoder enc;
        for (size_t i = 0; i < rows; ++i) {
          TRANCE_ASSIGN_OR_RETURN(key_codec::EncodedKeyView k,
                                  v.EncodeKey(&enc, i, cols));
          auto [gi, inserted] = index.FindOrInsert(k);
          if (inserted) {
            new_group(v.KeyFields(i, cols));
          } else {
            ks->probe_hits++;
          }
          fold(gi, i);
        }
        ks->encode_bytes += enc.bytes_encoded();
        NoteTableStats(index, ks);
        return Status::OK();
      }));
    } else {
      auto key_fields_of = [&](const Row& row) {
        return rows_are_partial
                   ? std::vector<Field>{row.fields.begin(),
                                        row.fields.begin() +
                                            static_cast<long>(key_cols.size())}
                   : ExtractKey(row, key_cols).fields;
      };
      std::unordered_map<KeyView, size_t, KeyViewHash, KeyViewEq> index;
      for (size_t i = 0; i < rows; ++i) {
        Row row = v.MaterializeRow(i);
        if (v.block_backed()) ++*conv;
        auto [it, inserted] =
            index.try_emplace(KeyView{key_fields_of(row)}, groups.size());
        size_t gi = it->second;
        if (inserted) {
          new_group(it->first.fields);
        } else {
          ks->probe_hits++;
        }
        fold(gi, i);
      }
    }
    for (auto& [key_fields, acc] : groups) {
      Row row;
      row.fields = std::move(key_fields);
      for (size_t i = 0; i < acc.sums.size(); ++i) {
        if (!acc.seen) {
          row.fields.push_back(Field::Null());
        } else {
          row.fields.push_back(
              is_int[i] ? Field::Int(static_cast<int64_t>(acc.sums[i]))
                        : Field::Real(acc.sums[i]));
        }
      }
      *emitted_bytes += RowDeepSize(row);
      sink.Append(std::move(row));
    }
    return Status::OK();
  };

  const size_t in_parts = in.NumPartitions();
  WorkMeter work(in_parts);
  Dataset partial;
  partial.schema = out_schema;
  if (block_out) {
    partial.store.InitBlocks(in_parts, out_schema);
  } else {
    partial.store.InitRows(in_parts);
  }
  std::vector<uint64_t> pre_col_bytes(in_parts, 0);
  std::vector<uint64_t> pre_conv(in_parts, 0);
  // The aggregate runs up to three task loops over the same work meter, so
  // each loop accumulates into its own local vector (folded into the meter
  // after its barrier): a recovery reset may then zero the current loop's
  // slot without destroying an earlier loop's contribution.
  {
    std::vector<uint64_t> local_work(in_parts, 0);
    if (map_side_combine) {
      std::vector<uint64_t> in_bytes =
          in.PartitionBytes(cluster->num_threads());
      KeyStatsMeter kmeter(in_parts);
      std::vector<Status> errs(in_parts);
      TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
          name + ".combine", in_parts, &stage,
          [&](size_t p) {
            uint64_t partial_bytes = 0;
            errs[p] = aggregate(PartView::Of(in.store, p), false,
                                &kmeter.slot(p), PartSink{&partial.store, p},
                                &partial_bytes, &pre_conv[p]);
            if (block_out) {
              pre_col_bytes[p] += partial.store.block(p).ByteFootprint();
            }
            local_work[p] = in_bytes[p] + partial_bytes;
          },
          [&](size_t p) {
            partial.store.Clear(p);
            local_work[p] = 0;
            pre_col_bytes[p] = 0;
            pre_conv[p] = 0;
            kmeter.Reset(p);
            errs[p] = Status::OK();
          }));
      TRANCE_RETURN_NOT_OK(FirstError(errs));
      kmeter.Finalize(&stage);
    } else {
      // Reshape rows to (key, value) layout without combining. Cells project
      // straight from the view; no keyed container, so no conversion.
      TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
          name + ".reshape", in_parts, &stage,
          [&](size_t p) {
            PartView v = PartView::Of(in.store, p);
            PartSink sink{&partial.store, p};
            uint64_t in_bytes = 0;
            const size_t rows = v.size();
            for (size_t i = 0; i < rows; ++i) {
              in_bytes += v.RowBytes(i);
              Row r;
              r.fields.reserve(key_cols.size() + value_cols.size());
              for (int c : key_cols) {
                r.fields.push_back(v.FieldAt(i, static_cast<size_t>(c)));
              }
              for (size_t vi = 0; vi < value_cols.size(); ++vi) {
                // NULLs pass through so the final aggregation pass can apply
                // the miss-marker rule uniformly.
                r.fields.push_back(
                    v.FieldAt(i, static_cast<size_t>(value_cols[vi])));
              }
              sink.Append(std::move(r));
            }
            if (block_out) {
              pre_col_bytes[p] += partial.store.block(p).ByteFootprint();
            }
            local_work[p] = in_bytes;
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
  for (uint64_t r : pre_conv) stage.column_to_row_conversions += r;
  partial.partitioning = in.partitioning.IsHashOn(key_cols)
                             ? Partitioning::Hash(partial_keys)
                             : Partitioning::None();

  TRANCE_ASSIGN_OR_RETURN(ShuffledParts sp,
                          ShuffleOrReuse(cluster, partial, partial_keys,
                                         &stage));

  Dataset out;
  out.schema = out_schema;
  const size_t nparts = sp.store.NumPartitions();
  if (block_out) {
    out.store.InitBlocks(nparts, out_schema);
  } else {
    out.store.InitRows(nparts);
  }
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> fin_col_bytes(nparts, 0);
  std::vector<uint64_t> fin_conv(nparts, 0);
  {
    std::vector<uint64_t> local_work(nparts, 0);
    KeyStatsMeter kmeter(nparts);
    std::vector<Status> errs(nparts);
    TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
        name, nparts, &stage,
        [&](size_t p) {
          errs[p] = aggregate(PartView::Of(sp.store, p), true,
                              &kmeter.slot(p), PartSink{&out.store, p},
                              &out_bytes[p], &fin_conv[p]);
          if (block_out) {
            fin_col_bytes[p] += out.store.block(p).ByteFootprint();
          }
          local_work[p] = sp.bytes[p] + out_bytes[p];
        },
        [&](size_t p) {
          out.store.Clear(p);
          out_bytes[p] = 0;
          fin_col_bytes[p] = 0;
          fin_conv[p] = 0;
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
  for (uint64_t r : fin_conv) stage.column_to_row_conversions += r;
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
  const bool columnar = cluster->columnar_enabled();
  if (columnar) {
    out.store.InitBlocks(nparts, a.schema);
  } else {
    out.store.InitRows(nparts);
  }
  StageStats stage;
  stage.op = name;
  stage.rows_in = a.NumRows() + b.NumRows();
  std::vector<uint64_t> col_bytes(nparts, 0);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        if (columnar) {
          // Either input may be row-resident (legacy producer handoff);
          // AppendRowFrom/AppendRow of identical values build identical
          // footprints, so the union's charge is input-residence-invariant.
          column::PartitionBlock& dst = out.store.block(p);
          auto append_all = [&](const Dataset& d) {
            if (p >= d.NumPartitions()) return;
            PartView v = PartView::Of(d.store, p);
            const size_t rows = v.size();
            for (size_t i = 0; i < rows; ++i) {
              if (v.block_backed()) {
                dst.AppendRowFrom(*v.block, i);
              } else {
                dst.AppendRow((*v.rows)[i]);
              }
            }
          };
          append_all(a);
          append_all(b);
          col_bytes[p] = dst.ByteFootprint();
        } else {
          // Columnar off: every producer is row-resident, so direct row
          // access is safe.
          std::vector<Row>& dst = out.store.rows(p);
          size_t total =
              (p < a.NumPartitions() ? a.store.rows(p).size() : 0) +
              (p < b.NumPartitions() ? b.store.rows(p).size() : 0);
          dst.reserve(total);
          if (p < a.NumPartitions()) {
            dst.insert(dst.end(), a.store.rows(p).begin(),
                       a.store.rows(p).end());
          }
          if (p < b.NumPartitions()) {
            dst.insert(dst.end(), b.store.rows(p).begin(),
                       b.store.rows(p).end());
          }
        }
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
  const size_t nparts = sp.store.NumPartitions();
  // Dedup keys on every column, so any bag-typed column sends the whole
  // operator down the legacy path (bag keys compare structurally there).
  const KeyedMode mode =
      KeyedModeFor(cluster, KeyColsEncodable(in.schema, all_cols));
  const bool block_out =
      cluster->columnar_enabled() && mode != KeyedMode::kLegacy;
  if (block_out) {
    out.store.InitBlocks(nparts, in.schema);
  } else {
    out.store.InitRows(nparts);
  }
  WorkMeter work(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  KeyStatsMeter kmeter(nparts);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<uint64_t> conv(nparts, 0);
  std::vector<Status> errs(nparts);
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage,
      [&](size_t p) {
        key_codec::KeyStats& ks = kmeter.slot(p);
        PartView v = PartView::Of(sp.store, p);
        PartSink sink{&out.store, p};
        const size_t rows = v.size();
        if (mode != KeyedMode::kLegacy) {
          // The membership test encodes straight off the view (column arenas
          // on block-resident input) and probes without materializing; the
          // first occurrence of each key copies column-to-column into the
          // output block. Per-key duplicate counts (the chain stat) live
          // densely beside the index.
          WithKeyIndex(mode, [&](auto tag) {
            typename decltype(tag)::type seen;
            std::vector<uint64_t> counts;
            key_codec::KeyEncoder enc;
            for (size_t i = 0; i < rows; ++i) {
              auto kv = v.EncodeAllCols(&enc, i);
              if (!kv.ok()) {
                errs[p] = kv.status();
                return;
              }
              auto [gi, inserted] = seen.FindOrInsert(kv.value());
              if (inserted) {
                counts.push_back(1);
                ks.build_rows++;
                if (ks.max_chain < 1) ks.max_chain = 1;
                out_bytes[p] += v.RowBytes(i);
                sink.AppendFrom(v, i);
              } else {
                ks.probe_hits++;
                if (++counts[gi] > ks.max_chain) ks.max_chain = counts[gi];
              }
            }
            ks.encode_bytes += enc.bytes_encoded();
            NoteTableStats(seen, &ks);
          });
          if (!errs[p].ok()) return;
        } else {
          std::unordered_map<KeyView, uint64_t, KeyViewHash, KeyViewEq> seen;
          for (size_t i = 0; i < rows; ++i) {
            Row row = v.MaterializeRow(i);
            if (v.block_backed()) ++conv[p];
            auto [it, inserted] = seen.try_emplace(KeyView{row.fields}, 1);
            if (inserted) {
              ks.build_rows++;
              if (ks.max_chain < 1) ks.max_chain = 1;
              out_bytes[p] += RowDeepSize(row);
              sink.Append(std::move(row));
            } else {
              ks.probe_hits++;
              if (++it->second > ks.max_chain) ks.max_chain = it->second;
            }
          }
        }
        if (block_out) col_bytes[p] += out.store.block(p).ByteFootprint();
        work.Add(p, sp.bytes[p] + out_bytes[p]);
      },
      [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        conv[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  for (uint64_t r : conv) stage.column_to_row_conversions += r;
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
  const size_t nparts = lsp.store.NumPartitions();
  const KeyedMode mode =
      KeyedModeFor(cluster, KeyColsEncodable(left.schema, left_keys) &&
                                KeyColsEncodable(right.schema, right_keys));
  const bool block_out =
      cluster->columnar_enabled() && mode != KeyedMode::kLegacy;
  if (block_out) {
    out.store.InitBlocks(nparts, out.schema);
  } else {
    out.store.InitRows(nparts);
  }
  WorkMeter work(nparts);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<uint64_t> conv(nparts, 0);
  KeyStatsMeter kmeter(nparts);
  std::vector<Status> errs(nparts);
  auto cogroup_task = [&](size_t p) {
    key_codec::KeyStats& ks = kmeter.slot(p);
    PartView vl = PartView::Of(lsp.store, p);
    PartView vr = PartView::Of(rsp.store, p);
    PartSink sink{&out.store, p};
    auto emit = [&](Row&& row) {
      uint64_t sz = RowDeepSize(row);
      work.Add(p, sz);
      out_bytes[p] += sz;
      sink.Append(std::move(row));
    };
    if (mode != KeyedMode::kLegacy) {
      WithKeyIndex(mode, [&](auto tag) {
        typename decltype(tag)::type built;
        std::vector<std::vector<Row>> chains;  // dense index -> right rows
        key_codec::KeyEncoder enc;
        const size_t rrows = vr.size();
        for (size_t i = 0; i < rrows; ++i) {
          if (vr.HasNullKeyAt(i, right_keys)) continue;
          auto kv = vr.EncodeKey(&enc, i, right_keys);
          if (!kv.ok()) {
            errs[p] = kv.status();
            return;
          }
          auto [gi, inserted] = built.FindOrInsert(kv.value());
          if (inserted) {
            chains.emplace_back();
            ks.build_rows++;
          } else {
            ks.probe_hits++;
          }
          // The bag member projects straight from the view — no whole-row
          // materialization on block-resident input.
          Row proj;
          proj.fields.reserve(right_value_cols.size());
          for (int c : right_value_cols) {
            proj.fields.push_back(vr.FieldAt(i, static_cast<size_t>(c)));
          }
          chains[gi].push_back(std::move(proj));
          if (chains[gi].size() > ks.max_chain) {
            ks.max_chain = chains[gi].size();
          }
        }
        const size_t lrows = vl.size();
        for (size_t j = 0; j < lrows; ++j) {
          const std::vector<Row>* matches = nullptr;
          if (!vl.HasNullKeyAt(j, left_keys)) {
            auto kv = vl.EncodeKey(&enc, j, left_keys);
            if (!kv.ok()) {
              errs[p] = kv.status();
              return;
            }
            uint32_t gi = built.Find(kv.value());
            if (gi != decltype(built)::kNotFound) {
              ks.probe_hits++;
              matches = &chains[gi];
            }
          }
          Row row = vl.MaterializeRow(j);  // transient: emitted immediately
          row.fields.push_back(matches == nullptr
                                   ? Field::Bag(std::vector<Row>{})
                                   : Field::Bag(*matches));
          emit(std::move(row));
        }
        ks.encode_bytes += enc.bytes_encoded();
        NoteTableStats(built, &ks);
      });
      if (!errs[p].ok()) return;
    } else {
      auto project_right = [&](const Row& r) {
        Row proj;
        proj.fields.reserve(right_value_cols.size());
        for (int c : right_value_cols) {
          proj.fields.push_back(r.fields[static_cast<size_t>(c)]);
        }
        return proj;
      };
      std::unordered_map<KeyView, std::vector<Row>, KeyViewHash, KeyViewEq>
          built;
      const size_t rrows = vr.size();
      for (size_t i = 0; i < rrows; ++i) {
        // The KeyView container retains key fields from the materialized row,
        // so a block-resident input converts here (counted) before the
        // null-key filter even looks at it.
        Row r = vr.MaterializeRow(i);
        if (vr.block_backed()) ++conv[p];
        if (HasNullKey(r, right_keys)) continue;
        auto [it, inserted] = built.try_emplace(ExtractKey(r, right_keys));
        if (inserted) {
          ks.build_rows++;
        } else {
          ks.probe_hits++;
        }
        it->second.push_back(project_right(r));
        if (it->second.size() > ks.max_chain) {
          ks.max_chain = it->second.size();
        }
      }
      const size_t lrows = vl.size();
      for (size_t j = 0; j < lrows; ++j) {
        Row l = vl.MaterializeRow(j);
        if (vl.block_backed()) ++conv[p];
        const std::vector<Row>* matches = nullptr;
        if (!HasNullKey(l, left_keys)) {
          auto it = built.find(ExtractKey(l, left_keys));
          if (it != built.end()) {
            ks.probe_hits++;
            matches = &it->second;
          }
        }
        Row row = std::move(l);
        row.fields.push_back(matches == nullptr ? Field::Bag(std::vector<Row>{})
                                                : Field::Bag(*matches));
        emit(std::move(row));
      }
    }
    work.Add(p, lsp.bytes[p] + rsp.bytes[p]);
    if (block_out) col_bytes[p] += out.store.block(p).ByteFootprint();
  };
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      name, nparts, &stage, cogroup_task, [&](size_t p) {
        out.store.Clear(p);
        out_bytes[p] = 0;
        col_bytes[p] = 0;
        conv[p] = 0;
        work.Reset(p);
        kmeter.Reset(p);
        errs[p] = Status::OK();
      }));
  TRANCE_RETURN_NOT_OK(FirstError(errs));
  work.Finalize(&stage);
  kmeter.Finalize(&stage);
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  for (uint64_t r : conv) stage.column_to_row_conversions += r;
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
