// Columnar partition blocks: schema-typed column storage under the operators.
//
// A PartitionBlock stores one Dataset partition as typed columns instead of
// std::vector<Row> of variant Fields: int64/double/uint8 values live in
// contiguous ColumnVector<T> arrays, strings in a shared char arena with
// offsets, and label/bag-typed (or type-unstable) cells in a variant fallback
// column. Every column carries a null bitmap. Blocks are lossless: RowAt /
// ToRows reproduce the exact Field values that went in, so Field::Hash,
// Field::DeepSize, RowHashOn, and the key codec observe exactly the values
// the row-level definitions would — the invariant that keeps results,
// placement, shuffle bytes, and every Field-accounting stat independent of
// the storage layout. Blocks are the runtime's only partition
// representation (runtime/dataset.h).
//
// Layout follows the ClickHouse ColumnVector<T> idiom (flat typed arrays, no
// per-value dispatch on scan) and Thrill's cache-friendly flat item storage.
#ifndef TRANCE_RUNTIME_COLUMN_H_
#define TRANCE_RUNTIME_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nrc/type.h"
#include "runtime/field.h"
#include "runtime/schema.h"
#include "util/hash.h"
#include "util/status.h"

namespace trance {
namespace runtime {
namespace column {

/// Flat typed array; the ClickHouse ColumnVector shape. T is a POD cell type.
template <typename T>
class ColumnVector {
 public:
  void Append(T v) { data_.push_back(v); }
  T operator[](size_t i) const { return data_[i]; }
  size_t size() const { return data_.size(); }
  const T* data() const { return data_.data(); }
  void Reserve(size_t n) { data_.reserve(n); }
  uint64_t ByteFootprint() const { return data_.capacity() * sizeof(T); }

 private:
  std::vector<T> data_;
};

/// String column: contiguous char arena + end offsets (offset[i] is the end
/// of value i; value i spans [offset[i-1], offset[i])).
class StringColumn {
 public:
  void Append(std::string_view s) {
    chars_.append(s.data(), s.size());
    offsets_.push_back(chars_.size());
  }
  std::string_view At(size_t i) const {
    uint64_t begin = i == 0 ? 0 : offsets_[i - 1];
    return std::string_view(chars_.data() + begin, offsets_[i] - begin);
  }
  size_t size() const { return offsets_.size(); }
  /// Arena length: the summed length of every value.
  uint64_t arena_size() const { return chars_.size(); }
  uint64_t ByteFootprint() const {
    return chars_.capacity() + offsets_.capacity() * sizeof(uint64_t);
  }

 private:
  std::string chars_;
  std::vector<uint64_t> offsets_;
};

/// Per-column null bitmap, one bit per row, packed into 64-bit words, with
/// a running count of the set bits.
class NullBitmap {
 public:
  void Append(bool is_null) {
    size_t word = size_ / 64;
    if (word == words_.size()) words_.push_back(0);
    if (is_null) {
      words_[word] |= uint64_t{1} << (size_ % 64);
      ++null_count_;
    }
    ++size_;
  }
  bool IsNull(size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }
  /// The `count` (<= 64) bits starting at bit `first`, packed from bit 0;
  /// first + count must not exceed size().
  uint64_t BitsAt(size_t first, size_t count) const {
    if (count == 0) return 0;
    size_t w = first / 64, off = first % 64;
    uint64_t bits = words_[w] >> off;
    if (off != 0 && w + 1 < words_.size()) bits |= words_[w + 1] << (64 - off);
    return count == 64 ? bits : bits & ((uint64_t{1} << count) - 1);
  }
  bool any() const { return null_count_ != 0; }
  size_t null_count() const { return null_count_; }
  size_t size() const { return size_; }
  uint64_t ByteFootprint() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
  size_t null_count_ = 0;
};

/// One schema column in typed form. Scalar int/real/bool/string columns use
/// the flat representations above; label/bag/date-typed columns — and any
/// column whose runtime values do not match the declared scalar type — fall
/// back to a variant column of whole Fields.
class AnyColumn {
 public:
  enum class Kind { kInt64, kReal, kBool, kString, kVariant };

  /// Storage kind for a declared NRC column type. Label, bag, tuple, dict,
  /// and date columns use the variant fallback.
  static Kind KindForType(const nrc::TypePtr& type) {
    if (type == nullptr || !type->is_scalar()) return Kind::kVariant;
    switch (type->scalar_kind()) {
      case nrc::ScalarKind::kInt: return Kind::kInt64;
      case nrc::ScalarKind::kReal: return Kind::kReal;
      case nrc::ScalarKind::kBool: return Kind::kBool;
      case nrc::ScalarKind::kString: return Kind::kString;
      case nrc::ScalarKind::kDate: return Kind::kVariant;
    }
    return Kind::kVariant;
  }

  /// True iff a non-NULL `f` can be stored in a column of kind `k` without
  /// demoting it to kVariant.
  static bool FieldMatchesKind(const Field& f, Kind k) {
    switch (k) {
      case Kind::kInt64: return f.is_int();
      case Kind::kReal: return f.is_real();
      case Kind::kBool: return f.is_bool();
      case Kind::kString: return f.is_string();
      case Kind::kVariant: return true;
    }
    return true;
  }

  explicit AnyColumn(Kind kind = Kind::kVariant) : kind_(kind) {}

  Kind kind() const { return kind_; }
  size_t size() const { return nulls_.size(); }

  /// Appends one cell. NULLs set the bitmap bit and a default value slot; a
  /// value that does not match the column's typed kind demotes the whole
  /// column to kVariant first (losslessly), so blocks never reject data.
  void Append(const Field& f);

  /// Typed-copy append from another column; falls back to Append(At(i)) when
  /// the kinds differ.
  void AppendFrom(const AnyColumn& src, size_t i);

  /// Row index that AppendGather turns into a NULL cell (a join's pad).
  static constexpr uint32_t kPadRow = 0xFFFFFFFFu;

  /// Column gather: appends src[rows[k]] for each k in order, a NULL for
  /// kPadRow. Cell for cell the same as AppendFrom / Append(Field::Null()),
  /// including a demotion part-way through, but the kind dispatch runs once
  /// per call when the kinds agree. Appends one cell at a time and never
  /// reserves, so the storage grows (and ByteFootprint reads) exactly as
  /// per-row appends of the same cells would.
  void AppendGather(const AnyColumn& src, const std::vector<uint32_t>& rows);
  /// AppendGather of the rows [begin, end) of src.
  void AppendRange(const AnyColumn& src, size_t begin, size_t end);

  // Typed appends for column-wise bulk loads (the spill restore). The column
  // must already be of the matching kind; a NULL cell stores the default
  // value slot, exactly as Append(Field::Null()) does, so the storage and
  // its growth sequence equal per-Field appends of the same cells.
  void AppendInt(int64_t v, bool null) {
    ints_.Append(null ? 0 : v);
    nulls_.Append(null);
  }
  void AppendReal(double v, bool null) {
    reals_.Append(null ? 0.0 : v);
    nulls_.Append(null);
  }
  void AppendBool(bool v, bool null) {
    bools_.Append(!null && v ? 1 : 0);
    nulls_.Append(null);
  }
  void AppendString(std::string_view s, bool null) {
    strs_.Append(null ? std::string_view() : s);
    nulls_.Append(null);
  }

  bool IsNull(size_t i) const { return nulls_.IsNull(i); }

  /// Materializes cell i as a Field, bit-identical to the Field appended.
  Field At(size_t i) const;

  /// Bytes that Field accounting (Field::DeepSize) would charge for cell i.
  /// Matches field.cc exactly: 8 for null/int/real/bool, 32 + length for
  /// strings, DeepSize of the stored Field for variant cells.
  uint64_t CellBytes(size_t i) const;

  /// Field::Hash of cell i without materializing scalar cells.
  uint64_t CellHash(size_t i) const;

  /// Sum of CellBytes over the column in O(1): 8 per int/real/bool cell;
  /// 8 per NULL, 32 per value plus the arena length for strings; the
  /// running DeepSize sum for variant cells.
  uint64_t TotalCellBytes() const;

  uint64_t ByteFootprint() const;

  // Typed readers for tight scan loops; valid only for the matching kind.
  const int64_t* ints() const { return ints_.data(); }
  const double* reals() const { return reals_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  const StringColumn& strings() const { return strs_; }
  const Field* variants() const { return variant_.data(); }
  const NullBitmap& nulls() const { return nulls_; }

 private:
  void DemoteToVariant();
  template <typename RowOf>
  void AppendCells(const AnyColumn& src, size_t n, RowOf row_of);

  Kind kind_;
  ColumnVector<int64_t> ints_;
  ColumnVector<double> reals_;
  ColumnVector<uint8_t> bools_;
  StringColumn strs_;
  std::vector<Field> variant_;
  NullBitmap nulls_;
  uint64_t variant_bytes_ = 0;  // accumulated DeepSize of variant cells
};

/// One partition in columnar form. Constructed from a Schema (column kinds
/// derive from the declared NRC types) and filled row-by-row or from an
/// existing std::vector<Row>. Every row has the schema's width: a row of
/// another width is an engine bug (TRANCE_CHECK), since the boundaries that
/// take outside rows (Source, SourcePartitioned, the spill reader) reject
/// it with a Status first.
class PartitionBlock {
 public:
  PartitionBlock() = default;
  explicit PartitionBlock(const Schema& schema);

  static PartitionBlock FromRows(const Schema& schema,
                                 const std::vector<Row>& rows);

  void AppendRow(const Row& r);
  /// Column-wise copy of row i of src, a block of the same width.
  void AppendRowFrom(const PartitionBlock& src, size_t i);
  /// Appends the rows `rows` of src (same width), in order, one column at a
  /// time (AnyColumn::AppendGather): the cells, RowBytesAt and
  /// ByteFootprint equal AppendRowFrom of each listed row.
  void AppendGather(const PartitionBlock& src,
                    const std::vector<uint32_t>& rows);
  /// Appends every row of src (same width), column by column.
  void AppendBlock(const PartitionBlock& src);
  /// Column-wise bulk append of n rows: fill(c, &column) appends exactly n
  /// cells to column c. Column order does not matter, since each column
  /// grows independently of the others.
  template <typename Fill>
  void AppendColumns(size_t n, Fill&& fill) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      fill(c, &cols_[c]);
      TRANCE_CHECK(cols_[c].size() == num_rows_ + n,
                   "PartitionBlock::AppendColumns: column length mismatch");
    }
    num_rows_ += n;
  }

  size_t NumRows() const { return num_rows_; }
  size_t NumCols() const { return cols_.size(); }

  /// Materializes row i; bit-identical to the row appended.
  Row RowAt(size_t i) const;
  /// Materializes cell (row, col).
  Field FieldAt(size_t row, size_t col) const;
  bool IsNull(size_t row, size_t col) const;

  std::vector<Row> ToRows() const;
  void AppendRowsTo(std::vector<Row>* out) const;

  /// Bytes Field accounting charges for row i — identical to
  /// RowDeepSize(RowAt(i)) without materializing.
  uint64_t RowBytesAt(size_t i) const;
  /// RowBytesAt of every row, computed one column at a time.
  std::vector<uint64_t> RowBytesOfAll() const;
  /// Σ RowBytesAt over the block in O(columns): 8 per row plus each
  /// column's TotalCellBytes. An operator takes the bytes of the rows it
  /// appended as the difference of two readings.
  uint64_t TotalRowBytes() const;

  /// RowHashOn(RowAt(i), cols) of every row i, computed one key column at
  /// a time without materializing scalar cells.
  std::vector<uint64_t> HashRowsOn(const std::vector<int>& cols) const;

  /// In-memory footprint of the columnar storage itself (arena capacity, not
  /// Field accounting); feeds the columnar_bytes counter.
  uint64_t ByteFootprint() const;

  const AnyColumn& col(size_t i) const { return cols_[i]; }

 private:
  std::vector<AnyColumn> cols_;
  size_t num_rows_ = 0;
};

}  // namespace column
}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_COLUMN_H_
