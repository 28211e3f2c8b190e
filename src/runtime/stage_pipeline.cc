#include "runtime/stage_pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

namespace trance {
namespace runtime {

namespace detail {

void NoteSpill(Cluster* cluster, StageStats* stage, const std::string& op,
               size_t partition, uint64_t partition_bytes,
               const spill::SpillCounters& c) {
  stage->spill_bytes_written += c.bytes_written;
  stage->spill_bytes_read += c.bytes_read;
  stage->spill_runs += c.runs;
  stage->spill_merge_passes += c.merge_passes;
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
      .Emit();
}

Status FinishStage(Cluster* cluster, StageStats stage, Dataset* result,
                   const std::string& name,
                   std::vector<uint64_t> part_bytes) {
  stage.rows_out = result->NumRows();
  if (part_bytes.empty()) {
    part_bytes = result->PartitionBytes();
  }
  for (uint64_t b : part_bytes) {
    if (b > stage.mem_high_water_bytes) stage.mem_high_water_bytes = b;
  }
  // Out-of-core fallback: partitions whose output footprint crosses the
  // spill threshold are written to disk runs and streamed back (identical
  // row sequence — see runtime/spill.h), turning what the memory check below
  // would fail into a slow-but-correct stage. Driver-side, in partition
  // order, so spill counters and events are thread-count-invariant; the
  // recorded peak bytes are untouched, keeping mem_high_water /
  // peak_partition_bytes bit-identical to an uncapped run.
  Status spill_status = Status::OK();
  std::vector<uint8_t> spilled(part_bytes.size(), 0);
  bool any_spilled = false;
  if (cluster->spill_enabled()) {
    uint64_t threshold = std::min(cluster->spill_threshold_bytes(),
                                  cluster->config().partition_memory_cap);
    for (size_t p = 0; p < part_bytes.size(); ++p) {
      if (part_bytes[p] <= threshold) continue;
      spill::SpillCounters pc;
      // Blocks round-trip as columnar serde records (no disk-side
      // rowification) and come back block-resident.
      spill_status = cluster->spill_manager()->SpillAndRestoreBlock(
          cluster->current_job_id(), name, p, result->schema,
          &result->store.block(p), &pc);
      if (!spill_status.ok()) break;
      spilled[p] = 1;
      any_spilled = true;
      NoteSpill(cluster, &stage, name, p, part_bytes[p], pc);
    }
  }
  cluster->RecordStage(std::move(stage));
  TRANCE_RETURN_NOT_OK(spill_status);
  return cluster->CheckMemoryBytes(part_bytes, name,
                                   any_spilled ? &spilled : nullptr);
}

}  // namespace detail

namespace {

using K = RowTransform::Kind;

/// Whether the standalone form of this transform charges its emitted rows to
/// the work meter (select and add-index historically charge input only /
/// nothing; the others charge input + output).
bool ChargesEmitted(K k) {
  switch (k) {
    case K::kOuterSelect:
    case K::kProject:
    case K::kUnnest:
    case K::kOuterUnnest:
      return true;
    case K::kSelect:
    case K::kAddIndex:
      return false;
  }
  return false;
}

/// The NULL that outer-select and outer-unnest cells borrow.
const Field& NullField() {
  static const Field kNull;
  return kNull;
}

constexpr uint64_t kUnknownBytes = ~uint64_t{0};

uint64_t RowBytes(const Cell* cells, size_t n) {
  uint64_t s = 8;  // RowDeepSize row overhead
  for (size_t c = 0; c < n; ++c) s += cells[c].Bytes();
  return s;
}

/// The bag a cell holds, or nullptr when it holds no bag (a NULL BagPtr, a
/// NULL or a scalar cell).
const BagRows* BagOf(const Cell& cell) {
  const Field* f = cell.AsField();
  return f != nullptr && f->is_bag() ? f->AsBag().get() : nullptr;
}

/// One partition's walk of a chain: the per-level scratch every emitted
/// cell borrows from, plus the task-local counters the task folds into the
/// stage's per-partition slots once, at its end. The walk is depth-first,
/// so a level's scratch stays untouched while the row it produced travels
/// down the rest of the chain.
class ChainWalk {
 public:
  ChainWalk(const std::vector<RowTransform>& chain, size_t p,
            bool charge_final, Dataset* out)
      : rows(chain.size(), 0),
        chain_(chain),
        p_(p),
        charge_final_(charge_final),
        out_(out),
        levels_(chain.size()) {
    for (size_t i = 0; i < chain.size(); ++i) {
      const RowTransform& t = chain[i];
      if (t.kind == K::kProject) levels_[i].computed.resize(t.columns.size());
      if (t.kind == K::kOuterUnnest || t.kind == K::kAddIndex) {
        levels_[i].computed.resize(1);  // the id cell
      }
    }
  }

  /// Runs transform i (and everything after it) on one row of cells.
  /// `in_bytes` is the row's Field-accounting size when the caller already
  /// knows it, else kUnknownBytes.
  void Feed(size_t i, const Cell* in, size_t n, uint64_t in_bytes);

  uint64_t work = 0;       // emitted bytes charged to the work meter
  uint64_t out_bytes = 0;  // final output footprint
  uint64_t avoided = 0;    // intermediate bytes never materialized
  std::vector<uint64_t> rows;  // rows emitted per transform

 private:
  struct Level {
    std::vector<Cell> cells;     // this transform's output row
    std::vector<Field> computed;  // computed cells (fixed size: stable)
    int64_t uid = 0;             // kOuterUnnest / kAddIndex id counter
  };

  void Emit(size_t i, const Cell* cells, size_t n, uint64_t bytes);
  void Output(const Cell* cells, size_t n);
  /// Appends `in` minus the bag column to the level's cells; returns the
  /// resulting width (where each bag element's fields start).
  size_t BagPrefix(Level* level, const Cell* in, size_t n, int bag_col);
  /// Emits one row per bag element: the level's first `prefix` cells
  /// followed by the element's borrowed fields.
  void EmitElements(size_t i, Level* level, size_t prefix,
                    const BagRows& bag);

  const std::vector<RowTransform>& chain_;
  const size_t p_;
  const bool charge_final_;
  Dataset* const out_;
  std::vector<Level> levels_;
};

void ChainWalk::Emit(size_t i, const Cell* cells, size_t n, uint64_t bytes) {
  ++rows[i];
  if (bytes == kUnknownBytes) bytes = RowBytes(cells, n);
  if (i + 1 < chain_.size()) {
    avoided += bytes;
    Feed(i + 1, cells, n, bytes);
    return;
  }
  out_bytes += bytes;
  if (charge_final_) work += bytes;
  Output(cells, n);
}

void ChainWalk::Output(const Cell* cells, size_t n) {
  column::PartitionBlock& block = out_->store.block(p_);
  TRANCE_CHECK(n == block.NumCols(),
               "RunStagePipeline: chain row width " + std::to_string(n) +
                   " != output schema width " +
                   std::to_string(block.NumCols()));
  block.AppendColumns(1, [cells](size_t c, column::AnyColumn* col) {
    cells[c].AppendTo(col);
  });
}

size_t ChainWalk::BagPrefix(Level* level, const Cell* in, size_t n,
                            int bag_col) {
  for (size_t c = 0; c < n; ++c) {
    if (static_cast<int>(c) != bag_col) level->cells.push_back(in[c]);
  }
  return level->cells.size();
}

void ChainWalk::EmitElements(size_t i, Level* level, size_t prefix,
                             const BagRows& bag) {
  for (const Row& element : bag) {
    level->cells.resize(prefix);
    for (const Field& f : element.fields) {
      level->cells.push_back(Cell::Borrow(&f));
    }
    Emit(i, level->cells.data(), level->cells.size(), kUnknownBytes);
  }
}

void ChainWalk::Feed(size_t i, const Cell* in, size_t n, uint64_t in_bytes) {
  const RowTransform& t = chain_[i];
  Level& level = levels_[i];
  switch (t.kind) {
    case K::kSelect:
      if (t.cell_pred(CellRow(in, n))) Emit(i, in, n, in_bytes);
      return;
    case K::kOuterSelect: {
      if (t.cell_pred(CellRow(in, n))) {
        Emit(i, in, n, in_bytes);
        return;
      }
      level.cells.assign(in, in + n);
      for (size_t c = 0; c < n; ++c) {
        if (c >= t.keep.size() || !t.keep[c]) {
          level.cells[c] = Cell::Borrow(&NullField());
        }
      }
      Emit(i, level.cells.data(), n, kUnknownBytes);
      return;
    }
    case K::kProject: {
      level.cells.clear();
      if (t.extend) level.cells.assign(in, in + n);
      const CellRow row(in, n);
      for (size_t k = 0; k < t.columns.size(); ++k) {
        const ProjectColumn& c = t.columns[k];
        if (c.src >= 0) {
          level.cells.push_back(in[static_cast<size_t>(c.src)]);
        } else {
          level.computed[k] = c.fn(row);
          level.cells.push_back(Cell::Borrow(&level.computed[k]));
        }
      }
      Emit(i, level.cells.data(), level.cells.size(), kUnknownBytes);
      return;
    }
    case K::kUnnest: {
      const BagRows* bag = BagOf(in[static_cast<size_t>(t.bag_col)]);
      if (bag == nullptr) return;
      level.cells.clear();
      EmitElements(i, &level, BagPrefix(&level, in, n, t.bag_col), *bag);
      return;
    }
    case K::kOuterUnnest: {
      const int64_t u = (static_cast<int64_t>(p_) << 40) | level.uid++;
      level.cells.clear();
      if (t.with_id) {
        level.computed[0] = Field::Int(u);
        level.cells.push_back(Cell::Borrow(&level.computed[0]));
      }
      const size_t prefix = BagPrefix(&level, in, n, t.bag_col);
      const BagRows* bag = BagOf(in[static_cast<size_t>(t.bag_col)]);
      if (bag != nullptr && !bag->empty()) {
        EmitElements(i, &level, prefix, *bag);
        return;
      }
      for (size_t k = 0; k < t.inner_width; ++k) {
        level.cells.push_back(Cell::Borrow(&NullField()));
      }
      Emit(i, level.cells.data(), level.cells.size(), kUnknownBytes);
      return;
    }
    case K::kAddIndex: {
      level.computed[0] =
          Field::Int((static_cast<int64_t>(p_) << 40) | level.uid++);
      level.cells.assign(in, in + n);
      level.cells.push_back(Cell::Borrow(&level.computed[0]));
      Emit(i, level.cells.data(), level.cells.size(), kUnknownBytes);
      return;
    }
  }
}

}  // namespace

RowTransform RowTransform::Select(std::string op, CellPredFn pred) {
  RowTransform t;
  t.kind = Kind::kSelect;
  t.op = std::move(op);
  t.cell_pred = std::move(pred);
  return t;
}

RowTransform RowTransform::OuterSelect(std::string op, CellPredFn pred,
                                       std::vector<bool> keep) {
  RowTransform t;
  t.kind = Kind::kOuterSelect;
  t.op = std::move(op);
  t.cell_pred = std::move(pred);
  t.keep = std::move(keep);
  return t;
}

RowTransform RowTransform::Project(std::string op, bool extend,
                                   std::vector<ProjectColumn> columns) {
  RowTransform t;
  t.kind = Kind::kProject;
  t.op = std::move(op);
  t.extend = extend;
  t.columns = std::move(columns);
  return t;
}

RowTransform RowTransform::Unnest(std::string op, int bag_col) {
  RowTransform t;
  t.kind = Kind::kUnnest;
  t.op = std::move(op);
  t.bag_col = bag_col;
  return t;
}

RowTransform RowTransform::OuterUnnest(std::string op, int bag_col,
                                       bool with_id, size_t inner_width) {
  RowTransform t;
  t.kind = Kind::kOuterUnnest;
  t.op = std::move(op);
  t.bag_col = bag_col;
  t.with_id = with_id;
  t.inner_width = inner_width;
  return t;
}

RowTransform RowTransform::AddIndex(std::string op) {
  RowTransform t;
  t.kind = Kind::kAddIndex;
  t.op = std::move(op);
  return t;
}

StatusOr<Dataset> RunStagePipeline(Cluster* cluster, const Dataset& in,
                                   Schema out_schema,
                                   const std::vector<RowTransform>& chain,
                                   Partitioning out_partitioning,
                                   const std::string& stage_name) {
  TRANCE_CHECK(!chain.empty(), "RunStagePipeline: empty chain");
  const size_t len = chain.size();

  // Work-charge policy. An unfused pipeline would charge every transform's
  // input; the fused stage reads the input once and emits the final rows
  // once, so it charges exactly those two walks (preserving the standalone
  // operators' historical accounting for single-transform chains). Bytes the
  // unfused pipeline would have materialized in between are tracked
  // separately as intermediate_bytes_avoided.
  bool charge_input = false;
  for (const auto& t : chain) {
    if (t.kind != K::kAddIndex) charge_input = true;
  }
  const bool charge_final = ChargesEmitted(chain.back().kind);
  const bool track_work = charge_input || charge_final;

  Dataset out;
  out.schema = std::move(out_schema);
  const size_t nparts = in.NumPartitions();
  out.store.InitBlocks(nparts, out.schema);
  out.partitioning = std::move(out_partitioning);

  // Per-partition accumulator slots, merged in partition order after the
  // barrier (bit-identical stats at any thread count).
  std::vector<uint64_t> work(nparts, 0);
  std::vector<uint64_t> rows_in(nparts, 0);
  std::vector<uint64_t> out_bytes(nparts, 0);
  std::vector<uint64_t> avoided(nparts, 0);
  std::vector<uint64_t> col_bytes(nparts, 0);
  std::vector<std::vector<uint64_t>> transform_rows(
      nparts, std::vector<uint64_t>(len, 0));

  // One cell walk: block inputs feed block cells, and the output appends
  // column to column into the partition's resident block. Blocks are
  // lossless and every byte charge is the Field accounting of the identical
  // values, so each stat matches the row-level definition bit-for-bit. No
  // row is materialized on the way (column_to_row_conversions in
  // docs/METRICS.md).
  auto task = [&](size_t p) {
    // The walk's per-level id counters reproduce the standalone operators'
    // uid scheme exactly: ids depend only on the partition and the row
    // order, both of which fusion preserves (and they live inside the task,
    // so a recovery re-execution restarts them from zero).
    ChainWalk walk(chain, p, charge_final, &out);
    uint64_t in_work = 0;
    const column::PartitionBlock& block = in.store.block(p);
    std::vector<Cell> cells;
    for (size_t c = 0; c < block.NumCols(); ++c) {
      cells.push_back(Cell::Block(&block.col(c), 0));
    }
    for (size_t r = 0; r < block.NumRows(); ++r) {
      for (Cell& cell : cells) cell.row = r;
      uint64_t bytes = kUnknownBytes;
      if (charge_input) {
        bytes = block.RowBytesAt(r);
        in_work += bytes;
      }
      walk.Feed(0, cells.data(), cells.size(), bytes);
    }
    rows_in[p] = in.store.RowCount(p);
    work[p] = in_work + walk.work;
    out_bytes[p] = walk.out_bytes;
    avoided[p] = walk.avoided;
    transform_rows[p] = std::move(walk.rows);
    col_bytes[p] = out.store.block(p).ByteFootprint();
  };

  StageStats stage;
  stage.op = stage_name;
  // Injected crash faults discard the partition's accumulator slots; the
  // retry recomputes them from the input partition, which the chain never
  // mutates.
  TRANCE_RETURN_NOT_OK(cluster->RunRecoverableTasks(
      stage_name, nparts, &stage, task, [&](size_t p) {
        out.store.Clear(p);
        work[p] = 0;
        rows_in[p] = 0;
        out_bytes[p] = 0;
        avoided[p] = 0;
        col_bytes[p] = 0;
        transform_rows[p].assign(len, 0);
      }));

  // Pre-set attribution to the chain's last plan node (RecordStage falls
  // back to the cluster scope stack only when this stays empty).
  stage.scope = chain.back().scope;
  for (uint64_t n : rows_in) stage.rows_in += n;
  if (track_work) {
    for (uint64_t w : work) {
      stage.total_work_bytes += w;
      if (w > stage.max_partition_work_bytes) {
        stage.max_partition_work_bytes = w;
      }
    }
    stage.partition_work_bytes = std::move(work);
  }
  for (uint64_t b : avoided) stage.intermediate_bytes_avoided += b;
  for (uint64_t b : col_bytes) stage.columnar_bytes += b;
  if (len > 1) {
    stage.fused_transforms.resize(len);
    for (size_t i = 0; i < len; ++i) {
      stage.fused_transforms[i].op = chain[i].op;
      stage.fused_transforms[i].scope = chain[i].scope;
      for (size_t p = 0; p < nparts; ++p) {
        stage.fused_transforms[i].rows_out += transform_rows[p][i];
      }
    }
    obs::MetricRegistry& metrics = cluster->metrics();
    metrics
        .GetCounter("trance_fused_stages_total",
                    "stages that ran a fused chain of narrow transforms")
        ->Increment();
    metrics
        .GetCounter("trance_intermediate_bytes_avoided_total",
                    "bytes fusion kept from materializing between transforms")
        ->Add(stage.intermediate_bytes_avoided);
    metrics
        .GetHistogram("trance_fused_chain_length",
                      "narrow transforms per fused stage",
                      {1.0, 2.0, 3.0, 4.0, 6.0, 8.0})
        ->Observe(static_cast<double>(len));
  }
  TRANCE_RETURN_NOT_OK(detail::FinishStage(cluster, std::move(stage), &out,
                                           stage_name, std::move(out_bytes)));
  return out;
}

}  // namespace runtime
}  // namespace trance
