// Fused narrow-stage execution over cell references.
//
// A RowTransform is one partition-local ("narrow") operator: select,
// outer-select, project/extend, unnest, outer-unnest or add-index, plus the
// opaque Row-closure steps of the MapRows/FilterRows/FlatMapRows API.
// RunStagePipeline runs a *chain* of transforms as one stage: every input
// row is fed through the whole chain in a single per-partition pass, so
// nothing between two narrow operators is ever materialized as a Dataset —
// only the chain's final output is. This mirrors how Spark fuses narrow
// dependencies into one pipelined stage (only shuffle boundaries
// materialize), which the paper's generated bulk programs rely on.
//
// Rows flow through the chain as *cell references*, not Rows. A Cell is
// either a resident block cell (column, row) or a borrowed `const Field*`:
// a field of a ragged block row or of a bag element; a value a transform computed into its per-level scratch (stable
// for the downstream walk of the row that produced it); or a shared NULL.
// Structured transforms are pass-through column indices plus compiled
// computed columns (scalar expressions compiled against the CellRow
// accessor), so a chain of them over a block-resident input builds no Row:
// select tests a predicate on the cells, project/extend rearrange cell
// references, unnest borrows the bag's inner fields, and the last step
// appends column to column (typed AnyColumn::AppendFrom copies for block
// cells, Append(Field) for borrowed ones). Only the opaque closure steps
// and ragged output (a width the output block's schema does not have) build
// Rows.
//
// The standalone bulk operators (MapRows, FilterRows, FlatMapRows, Unnest,
// OuterUnnest, AddIndexColumn in runtime/ops.cc) are single-transform
// chains of the same runner, so the fused and standalone paths share one
// implementation and one stats discipline.
//
// Stats contract:
//  - A single-transform chain records a StageStats bit-identical to the
//    historical standalone operator (same op name, same work accounting, and
//    no `fused_transforms`).
//  - A multi-transform chain records ONE StageStats whose work charge is the
//    input footprint plus the final transform's emitted bytes; the bytes the
//    unfused pipeline would have materialized between transforms are summed
//    into `intermediate_bytes_avoided`, and each transform reports its own
//    emitted-row count in `fused_transforms` (EXPLAIN ANALYZE expands these
//    back into one line per plan operator).
//  - Every byte charge is Field accounting (RowDeepSize), computed from the
//    cells without materializing them: PartitionBlock::RowBytesAt for input
//    rows, AnyColumn::CellBytes / Field::DeepSize per emitted cell.
//  - Per-row counters accumulate in task-local variables and are folded into
//    per-partition slots once per task; the slots merge in partition order
//    after the stage barrier, so outputs and stats are identical at any
//    thread count. Per-partition uid counters reproduce the exact ids the
//    standalone OuterUnnest/AddIndexColumn operators would have assigned.
//  - The memory cap is enforced against the fused chain's peak — the final
//    output partitions, the only rows the chain holds at once (intermediate
//    rows stream through one at a time).
#ifndef TRANCE_RUNTIME_STAGE_PIPELINE_H_
#define TRANCE_RUNTIME_STAGE_PIPELINE_H_

#include <functional>
#include <string>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/column.h"
#include "runtime/dataset.h"
#include "util/status.h"

namespace trance {
namespace runtime {

/// One cell of a row flowing through a fused stage: a resident block cell
/// (`col`, `row`) when `col` is set, else the borrowed Field `field`.
struct Cell {
  const column::AnyColumn* col = nullptr;
  size_t row = 0;
  const Field* field = nullptr;

  static Cell Block(const column::AnyColumn* c, size_t r) {
    Cell cell;
    cell.col = c;
    cell.row = r;
    return cell;
  }
  static Cell Borrow(const Field* f) {
    Cell cell;
    cell.field = f;
    return cell;
  }

  /// The cell's value (a copy of a borrowed Field; materialized from a
  /// block column).
  Field Get() const { return col != nullptr ? col->At(row) : *field; }
  /// The cell as a borrowable Field when it already is one (borrowed cells
  /// and variant block cells); nullptr for typed block cells, which hold
  /// scalars only.
  const Field* AsField() const {
    if (col == nullptr) return field;
    return col->kind() == column::AnyColumn::Kind::kVariant
               ? &col->variants()[row]
               : nullptr;
  }
  /// Field accounting bytes: Field::DeepSize of the value.
  uint64_t Bytes() const {
    return col != nullptr ? col->CellBytes(row) : field->DeepSize();
  }
  /// Appends the value to `dst`: a typed copy for block cells.
  void AppendTo(column::AnyColumn* dst) const {
    if (col != nullptr) {
      dst->AppendFrom(*col, row);
    } else {
      dst->Append(*field);
    }
  }
};

/// Read access to one row's cells; the accessor compiled scalar expressions
/// evaluate against. Wraps either a cell array (the fused runner) or a Row
/// (the Row adapters of exec/scalar_compiler.h).
class CellRow {
 public:
  CellRow(const Cell* cells, size_t n) : cells_(cells), n_(n) {}
  explicit CellRow(const Row& row) : row_(&row), n_(row.fields.size()) {}

  size_t size() const { return n_; }
  Field Get(size_t i) const {
    return row_ != nullptr ? row_->fields[i] : cells_[i].Get();
  }

 private:
  const Cell* cells_ = nullptr;
  const Row* row_ = nullptr;
  size_t n_ = 0;
};

using MapFn = std::function<Row(const Row&)>;
using FlatMapFn = std::function<void(const Row&, std::vector<Row>*)>;
using PredFn = std::function<bool(const Row&)>;
using CellScalarFn = std::function<Field(const CellRow&)>;
using CellPredFn = std::function<bool(const CellRow&)>;

/// One output column of a structured projection: the input column `src`
/// passed through when `src` >= 0, else the computed value `fn`.
struct ProjectColumn {
  int src = -1;
  CellScalarFn fn;
};

/// One narrow operator, runnable standalone or fused. Select, outer-select,
/// project and the bag steps are structured (they run on cell references);
/// kMap/kFilter/kFlatMap are opaque Row closures and build a Row per input.
struct RowTransform {
  enum class Kind {
    kSelect,
    kOuterSelect,
    kProject,
    kUnnest,
    kOuterUnnest,
    kAddIndex,
    kMap,
    kFilter,
    kFlatMap,
  };

  Kind kind = Kind::kMap;
  /// Display name of the operator (e.g. "select", "project.h"); becomes the
  /// stage op for single-transform chains and a fused_transforms entry
  /// otherwise.
  std::string op;
  /// Plan-node attribution for EXPLAIN ANALYZE; empty outside plan execution.
  std::string scope;

  CellPredFn cell_pred;     // kSelect / kOuterSelect
  /// kOuterSelect: columns a failing row keeps; the others (and any column
  /// past the mask) become NULL.
  std::vector<bool> keep;
  /// kProject: emit every input cell first, then `columns` (extend).
  bool extend = false;
  std::vector<ProjectColumn> columns;  // kProject
  int bag_col = -1;         // kUnnest / kOuterUnnest
  bool with_id = false;     // kOuterUnnest: prepend a unique id column
  size_t inner_width = 0;   // kOuterUnnest: NULL pad width for empty bags
  MapFn map;                // kMap
  PredFn pred;              // kFilter
  FlatMapFn flat_map;       // kFlatMap

  static RowTransform Select(std::string op, CellPredFn pred);
  static RowTransform OuterSelect(std::string op, CellPredFn pred,
                                  std::vector<bool> keep);
  static RowTransform Project(std::string op, bool extend,
                              std::vector<ProjectColumn> columns);
  static RowTransform Map(std::string op, MapFn fn);
  static RowTransform Filter(std::string op, PredFn fn);
  static RowTransform FlatMap(std::string op, FlatMapFn fn);
  static RowTransform Unnest(std::string op, int bag_col);
  static RowTransform OuterUnnest(std::string op, int bag_col, bool with_id,
                                  size_t inner_width);
  static RowTransform AddIndex(std::string op);
};

/// Runs `chain` (non-empty) over `in` as one fused stage. `out_schema` is the
/// schema after the whole chain; `out_partitioning` the guarantee the caller
/// derived for the chain's output. `stage_name` is the recorded op and the
/// name memory-cap failures report.
StatusOr<Dataset> RunStagePipeline(Cluster* cluster, const Dataset& in,
                                   Schema out_schema,
                                   const std::vector<RowTransform>& chain,
                                   Partitioning out_partitioning,
                                   const std::string& stage_name);

namespace detail {
/// Stage barrier shared by the bulk operators and the fused-stage runner:
/// finalizes row counts, stamps the memory high-water mark, records the
/// stage and enforces the per-partition cap. `part_bytes`, when provided, is
/// the precomputed footprint of `result`'s partitions (from the operator's
/// own single sizing pass); when empty the result is walked here (in
/// parallel).
Status FinishStage(Cluster* cluster, StageStats stage, Dataset* result,
                   const std::string& name,
                   std::vector<uint64_t> part_bytes = {});
}  // namespace detail

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_STAGE_PIPELINE_H_
