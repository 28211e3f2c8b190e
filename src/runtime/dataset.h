// A Dataset is a partitioned distributed collection of rows, with the
// partitioning guarantee tracked the way Section 3 describes Spark
// partitioners: key-based (all rows with the same key on the same partition),
// inherited / preserved / dropped / redefined by operators.
//
// Partitions are stored as typed column::PartitionBlocks (runtime/column.h),
// the one representation every operator consumes and produces. Blocks are
// lossless — RowAt / RowBytesAt / HashRowOn observe the exact Field values
// that went in — so every consumer that sizes, hashes, or materializes rows
// sees the values the row-level definitions (RowDeepSize, RowHashOn) would.
#ifndef TRANCE_RUNTIME_DATASET_H_
#define TRANCE_RUNTIME_DATASET_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "runtime/column.h"
#include "runtime/field.h"
#include "runtime/schema.h"
#include "util/thread_pool.h"

namespace trance {
namespace runtime {

/// Partitioning guarantee of a dataset.
struct Partitioning {
  enum class Kind {
    kNone,  // no guarantee (fresh input or guarantee-dropping operator)
    kHash,  // hash-partitioned on `key_cols`
  };
  Kind kind = Kind::kNone;
  std::vector<int> key_cols;

  static Partitioning None() { return {}; }
  static Partitioning Hash(std::vector<int> cols) {
    return {Kind::kHash, std::move(cols)};
  }
  /// True when the guarantee covers hashing on `cols` in ANY order: the
  /// partitioner (RowHashOn) combines per-column hashes commutatively, so a
  /// dataset hashed on {a,b} places every row exactly where hashing on
  /// {b,a} would — a permuted key list needs no re-shuffle.
  ///
  /// This runs once per keyed operator, so the common short-key case (≤4
  /// columns) compares occurrence counts in place — no allocation, no sort.
  /// Counting (rather than membership tests) keeps duplicate-bearing lists
  /// correct: {1,1,2} is not a permutation of {1,2,2}.
  bool IsHashOn(const std::vector<int>& cols) const {
    if (kind != Kind::kHash || key_cols.size() != cols.size()) return false;
    if (key_cols == cols) return true;
    size_t n = cols.size();
    if (n <= 4) {
      for (size_t i = 0; i < n; ++i) {
        int needle = cols[i];
        int in_cols = 0, in_keys = 0;
        for (size_t j = 0; j < n; ++j) {
          in_cols += cols[j] == needle;
          in_keys += key_cols[j] == needle;
        }
        if (in_cols != in_keys) return false;
      }
      return true;
    }
    std::vector<int> a = key_cols;
    std::vector<int> b = cols;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  }
};

/// Partition storage: one typed columnar block per partition. Every
/// operator output is block-resident, so there is a single representation
/// under the whole runtime.
///
/// Row boundaries are explicit: MaterializeRows / RowAt are the only ways
/// rows leave the store (transient reads, result collection, tests).
class PartitionStore {
 public:
  PartitionStore() = default;

  static PartitionStore OfBlocks(Schema schema,
                                 std::vector<column::PartitionBlock> blocks) {
    PartitionStore s;
    s.schema_ = std::move(schema);
    s.blocks_ = std::move(blocks);
    return s;
  }

  /// Resets to `n` empty blocks typed by `schema` (kept for partition
  /// resets).
  void InitBlocks(size_t n, const Schema& schema) {
    schema_ = schema;
    blocks_.assign(n, column::PartitionBlock(schema));
  }

  size_t NumPartitions() const { return blocks_.size(); }

  column::PartitionBlock& block(size_t p) { return blocks_[p]; }
  const column::PartitionBlock& block(size_t p) const { return blocks_[p]; }

  size_t RowCount(size_t p) const { return blocks_[p].NumRows(); }
  size_t NumRows() const {
    size_t n = 0;
    for (const auto& b : blocks_) n += b.NumRows();
    return n;
  }
  /// Materializes row i of partition p (transient read).
  Row RowAt(size_t p, size_t i) const { return blocks_[p].RowAt(i); }
  /// Field-accounting bytes of partition p (PartitionBlock::TotalRowBytes ==
  /// the RowDeepSize sum of its rows).
  uint64_t PartitionRowBytes(size_t p) const {
    return blocks_[p].TotalRowBytes();
  }
  /// Empties partition p to a fresh schema-typed block (the recovery/spill
  /// reset).
  void Clear(size_t p) { blocks_[p] = column::PartitionBlock(schema_); }
  std::vector<Row> MaterializeRows(size_t p) const {
    return blocks_[p].ToRows();
  }

 private:
  Schema schema_;  // typed resets
  std::vector<column::PartitionBlock> blocks_;
};

struct Dataset {
  Schema schema;
  PartitionStore store;
  Partitioning partitioning;

  size_t NumPartitions() const { return store.NumPartitions(); }
  size_t PartitionRowCount(size_t p) const { return store.RowCount(p); }
  Row RowAt(size_t p, size_t i) const { return store.RowAt(p, i); }
  /// Partition p as a row vector (copy / materialization; tests and true row
  /// boundaries only).
  std::vector<Row> PartitionRows(size_t p) const {
    return store.MaterializeRows(p);
  }

  size_t NumRows() const { return store.NumRows(); }
  /// Total deep-size footprint. The accounting walk recurses into nested
  /// bags and is a hot path; `num_threads > 1` sizes partitions
  /// concurrently (per-partition slots summed in partition order, so the
  /// result is identical for any thread count).
  uint64_t DeepSizeBytes(int num_threads = 1) const {
    uint64_t s = 0;
    for (uint64_t b : PartitionBytes(num_threads)) s += b;
    return s;
  }
  /// Byte footprint of each partition: the block's own accounting
  /// (TotalRowBytes, no row materialization), bit-identical to the
  /// RowDeepSize sum of the same rows.
  std::vector<uint64_t> PartitionBytes(int num_threads = 1) const {
    std::vector<uint64_t> out(store.NumPartitions(), 0);
    util::ParallelFor(num_threads, out.size(), [&](size_t i) {
      out[i] = store.PartitionRowBytes(i);
    });
    return out;
  }
  /// All rows gathered into one vector, in partition order (tests / result
  /// collection / broadcast — a true row boundary). Mirrors PartitionBytes:
  /// `num_threads > 1` copies partitions concurrently into pre-computed
  /// offsets, so the output is identical for any thread count.
  std::vector<Row> Collect(int num_threads = 1) const {
    const size_t nparts = store.NumPartitions();
    std::vector<size_t> offsets(nparts + 1, 0);
    for (size_t i = 0; i < nparts; ++i) {
      offsets[i + 1] = offsets[i] + store.RowCount(i);
    }
    std::vector<Row> out(offsets.back());
    util::ParallelFor(num_threads, nparts, [&](size_t i) {
      for (size_t r = 0; r < store.RowCount(i); ++r) {
        out[offsets[i] + r] = store.RowAt(i, r);
      }
    });
    return out;
  }
};

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_DATASET_H_
