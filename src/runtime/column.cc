#include "runtime/column.h"

#include "util/status.h"

namespace trance {
namespace runtime {
namespace column {

void AnyColumn::DemoteToVariant() {
  size_t n = size();
  std::vector<Field> cells;
  cells.reserve(n);
  for (size_t i = 0; i < n; ++i) cells.push_back(At(i));
  variant_ = std::move(cells);
  variant_bytes_ = 0;
  for (const auto& f : variant_) variant_bytes_ += f.DeepSize();
  ints_ = ColumnVector<int64_t>();
  reals_ = ColumnVector<double>();
  bools_ = ColumnVector<uint8_t>();
  strs_ = StringColumn();
  kind_ = Kind::kVariant;
}

void AnyColumn::Append(const Field& f) {
  if (kind_ != Kind::kVariant && !f.is_null() && !FieldMatchesKind(f, kind_)) {
    DemoteToVariant();
  }
  bool null = f.is_null();
  switch (kind_) {
    case Kind::kInt64:
      ints_.Append(null ? 0 : f.AsInt());
      break;
    case Kind::kReal:
      reals_.Append(null ? 0.0 : f.AsReal());
      break;
    case Kind::kBool:
      bools_.Append(null ? 0 : (f.AsBool() ? 1 : 0));
      break;
    case Kind::kString:
      strs_.Append(null ? std::string_view() : std::string_view(f.AsString()));
      break;
    case Kind::kVariant:
      variant_.push_back(f);
      variant_bytes_ += f.DeepSize();
      break;
  }
  nulls_.Append(null);
}

void AnyColumn::AppendFrom(const AnyColumn& src, size_t i) {
  if (kind_ != src.kind_) {
    Append(src.At(i));
    return;
  }
  bool null = src.nulls_.IsNull(i);
  switch (kind_) {
    case Kind::kInt64:
      ints_.Append(src.ints_[i]);
      break;
    case Kind::kReal:
      reals_.Append(src.reals_[i]);
      break;
    case Kind::kBool:
      bools_.Append(src.bools_[i]);
      break;
    case Kind::kString:
      strs_.Append(src.strs_.At(i));
      break;
    case Kind::kVariant:
      variant_.push_back(src.variant_[i]);
      variant_bytes_ += src.variant_[i].DeepSize();
      break;
  }
  nulls_.Append(null);
}

template <typename RowOf>
void AnyColumn::AppendCells(const AnyColumn& src, size_t n, RowOf row_of) {
  if (kind_ != src.kind_) {
    // Cell-by-cell, so a demotion lands at the same cell as per-row appends.
    for (size_t k = 0; k < n; ++k) {
      size_t i = row_of(k);
      if (i == kPadRow) {
        Append(Field::Null());
      } else {
        AppendFrom(src, i);
      }
    }
    return;
  }
  switch (kind_) {
    case Kind::kInt64:
      for (size_t k = 0; k < n; ++k) {
        size_t i = row_of(k);
        bool pad = i == kPadRow;
        ints_.Append(pad ? 0 : src.ints_[i]);
        nulls_.Append(pad || src.nulls_.IsNull(i));
      }
      break;
    case Kind::kReal:
      for (size_t k = 0; k < n; ++k) {
        size_t i = row_of(k);
        bool pad = i == kPadRow;
        reals_.Append(pad ? 0.0 : src.reals_[i]);
        nulls_.Append(pad || src.nulls_.IsNull(i));
      }
      break;
    case Kind::kBool:
      for (size_t k = 0; k < n; ++k) {
        size_t i = row_of(k);
        bool pad = i == kPadRow;
        bools_.Append(pad ? 0 : src.bools_[i]);
        nulls_.Append(pad || src.nulls_.IsNull(i));
      }
      break;
    case Kind::kString:
      for (size_t k = 0; k < n; ++k) {
        size_t i = row_of(k);
        bool pad = i == kPadRow;
        strs_.Append(pad ? std::string_view() : src.strs_.At(i));
        nulls_.Append(pad || src.nulls_.IsNull(i));
      }
      break;
    case Kind::kVariant:
      for (size_t k = 0; k < n; ++k) {
        size_t i = row_of(k);
        if (i == kPadRow) {
          Append(Field::Null());
          continue;
        }
        const Field& f = src.variant_[i];
        variant_.push_back(f);
        variant_bytes_ += f.DeepSize();
        nulls_.Append(src.nulls_.IsNull(i));
      }
      break;
  }
}

void AnyColumn::AppendGather(const AnyColumn& src,
                             const std::vector<uint32_t>& rows) {
  AppendCells(src, rows.size(), [&](size_t k) -> size_t { return rows[k]; });
}

void AnyColumn::AppendRange(const AnyColumn& src, size_t begin, size_t end) {
  AppendCells(src, end - begin, [&](size_t k) { return begin + k; });
}

Field AnyColumn::At(size_t i) const {
  if (kind_ != Kind::kVariant && nulls_.IsNull(i)) return Field::Null();
  switch (kind_) {
    case Kind::kInt64: return Field::Int(ints_[i]);
    case Kind::kReal: return Field::Real(reals_[i]);
    case Kind::kBool: return Field::Bool(bools_[i] != 0);
    case Kind::kString: return Field::Str(std::string(strs_.At(i)));
    case Kind::kVariant: return variant_[i];
  }
  return Field::Null();
}

uint64_t AnyColumn::CellBytes(size_t i) const {
  switch (kind_) {
    case Kind::kInt64:
    case Kind::kReal:
    case Kind::kBool:
      return 8;  // null/int/real/bool all charge 8 (field.cc)
    case Kind::kString:
      return nulls_.IsNull(i) ? 8 : 32 + strs_.At(i).size();
    case Kind::kVariant:
      return variant_[i].DeepSize();
  }
  return 8;
}

uint64_t AnyColumn::CellHash(size_t i) const {
  if (kind_ != Kind::kVariant && nulls_.IsNull(i)) return 0x9E11;
  switch (kind_) {
    case Kind::kInt64:
      return Mix64(static_cast<uint64_t>(ints_[i]) ^ 0x11);
    case Kind::kReal:
      return HashDouble(reals_[i]);
    case Kind::kBool:
      return Mix64(bools_[i] != 0 ? 0xB001u : 0xB000u);
    case Kind::kString: {
      std::string_view s = strs_.At(i);
      return HashBytes(s.data(), s.size());
    }
    case Kind::kVariant:
      return variant_[i].Hash();
  }
  return 0x9E11;
}

uint64_t AnyColumn::TotalCellBytes() const {
  switch (kind_) {
    case Kind::kInt64:
    case Kind::kReal:
    case Kind::kBool:
      return 8 * size();
    case Kind::kString: {
      const uint64_t nulls = nulls_.null_count();
      return 8 * nulls + 32 * (size() - nulls) + strs_.arena_size();
    }
    case Kind::kVariant:
      return variant_bytes_;
  }
  return 8 * size();
}

uint64_t AnyColumn::ByteFootprint() const {
  uint64_t b = nulls_.ByteFootprint();
  switch (kind_) {
    case Kind::kInt64: return b + ints_.ByteFootprint();
    case Kind::kReal: return b + reals_.ByteFootprint();
    case Kind::kBool: return b + bools_.ByteFootprint();
    case Kind::kString: return b + strs_.ByteFootprint();
    case Kind::kVariant:
      return b + variant_.capacity() * sizeof(Field) + variant_bytes_;
  }
  return b;
}

PartitionBlock::PartitionBlock(const Schema& schema) {
  cols_.reserve(schema.size());
  for (const auto& c : schema.columns()) {
    cols_.emplace_back(AnyColumn::KindForType(c.type));
  }
}

PartitionBlock PartitionBlock::FromRows(const Schema& schema,
                                        const std::vector<Row>& rows) {
  PartitionBlock b(schema);
  for (const auto& r : rows) b.AppendRow(r);
  return b;
}

void PartitionBlock::AppendRow(const Row& r) {
  TRANCE_CHECK(r.fields.size() == cols_.size(),
               "PartitionBlock::AppendRow: row width " +
                   std::to_string(r.fields.size()) + " != schema width " +
                   std::to_string(cols_.size()));
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].Append(r.fields[c]);
  ++num_rows_;
}

void PartitionBlock::AppendRowFrom(const PartitionBlock& src, size_t i) {
  TRANCE_CHECK(src.cols_.size() == cols_.size(),
               "PartitionBlock::AppendRowFrom: source width " +
                   std::to_string(src.cols_.size()) + " != schema width " +
                   std::to_string(cols_.size()));
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendFrom(src.cols_[c], i);
  }
  ++num_rows_;
}

void PartitionBlock::AppendGather(const PartitionBlock& src,
                                  const std::vector<uint32_t>& rows) {
  TRANCE_CHECK(src.cols_.size() == cols_.size(),
               "PartitionBlock::AppendGather: width mismatch");
  AppendColumns(rows.size(), [&](size_t c, AnyColumn* col) {
    col->AppendGather(src.cols_[c], rows);
  });
}

void PartitionBlock::AppendBlock(const PartitionBlock& src) {
  TRANCE_CHECK(src.cols_.size() == cols_.size(),
               "PartitionBlock::AppendBlock: width mismatch");
  AppendColumns(src.num_rows_, [&](size_t c, AnyColumn* col) {
    col->AppendRange(src.cols_[c], 0, src.num_rows_);
  });
}

Row PartitionBlock::RowAt(size_t i) const {
  Row r;
  r.fields.reserve(cols_.size());
  for (const auto& c : cols_) r.fields.push_back(c.At(i));
  return r;
}

Field PartitionBlock::FieldAt(size_t row, size_t col) const {
  return cols_[col].At(row);
}

bool PartitionBlock::IsNull(size_t row, size_t col) const {
  return cols_[col].IsNull(row);
}

std::vector<Row> PartitionBlock::ToRows() const {
  std::vector<Row> out;
  AppendRowsTo(&out);
  return out;
}

void PartitionBlock::AppendRowsTo(std::vector<Row>* out) const {
  size_t n = NumRows();
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) out->push_back(RowAt(i));
}

uint64_t PartitionBlock::RowBytesAt(size_t i) const {
  uint64_t s = 8;  // RowDeepSize row overhead
  for (const auto& c : cols_) s += c.CellBytes(i);
  return s;
}

std::vector<uint64_t> PartitionBlock::RowBytesOfAll() const {
  std::vector<uint64_t> out(num_rows_, 8);  // RowDeepSize row overhead
  for (const auto& c : cols_) {
    for (size_t i = 0; i < num_rows_; ++i) out[i] += c.CellBytes(i);
  }
  return out;
}

uint64_t PartitionBlock::TotalRowBytes() const {
  uint64_t s = 8 * static_cast<uint64_t>(num_rows_);
  for (const auto& c : cols_) s += c.TotalCellBytes();
  return s;
}

std::vector<uint64_t> PartitionBlock::HashRowsOn(
    const std::vector<int>& cols) const {
  // The combine of field.cc RowHashOn (commutative sum of finalized
  // per-column hashes), accumulated one column at a time.
  std::vector<uint64_t> h(num_rows_, 0x5EED);
  for (int c : cols) {
    TRANCE_CHECK(c >= 0 && static_cast<size_t>(c) < cols_.size(),
                 "PartitionBlock::HashRowsOn: bad column");
    const AnyColumn& col = cols_[static_cast<size_t>(c)];
    for (size_t i = 0; i < num_rows_; ++i) h[i] += SplitMix64(col.CellHash(i));
  }
  for (uint64_t& x : h) x = SplitMix64(x);
  return h;
}

uint64_t PartitionBlock::ByteFootprint() const {
  uint64_t s = 0;
  for (const auto& c : cols_) s += c.ByteFootprint();
  return s;
}

}  // namespace column
}  // namespace runtime
}  // namespace trance
