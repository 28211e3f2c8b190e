#include "runtime/serde.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>
#include <string_view>

namespace trance {
namespace runtime {
namespace serde {

namespace {

// Field tags of the recursive field encoding (docs/STORAGE.md). The scalar
// tags deliberately mirror runtime/key_codec.h so the two byte formats read
// alike in a hex dump.
constexpr uint8_t kFieldNull = 0x00;
constexpr uint8_t kFieldInt = 0x01;
constexpr uint8_t kFieldReal = 0x02;
constexpr uint8_t kFieldString = 0x03;
constexpr uint8_t kFieldBool = 0x04;
constexpr uint8_t kFieldLabel = 0x05;
constexpr uint8_t kFieldBag = 0x06;

// Column kind codes inside kRecordBlock payloads.
constexpr uint8_t kColInt64 = 0;
constexpr uint8_t kColReal = 1;
constexpr uint8_t kColBool = 2;
constexpr uint8_t kColString = 3;
constexpr uint8_t kColVariant = 4;

std::string Errno(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

// --- little-endian primitive append/parse --------------------------------
// The format is defined little-endian; memcpy of the native representation
// is correct on every platform this simulator targets (and the bytes are
// what docs/STORAGE.md specifies regardless).

template <typename T>
void AppendPod(T v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void AppendU8(uint8_t v, std::string* out) { AppendPod(v, out); }
void AppendU32(uint32_t v, std::string* out) { AppendPod(v, out); }
void AppendU64(uint64_t v, std::string* out) { AppendPod(v, out); }

Status Truncated(const char* what) {
  return Status::Invalid(std::string("serde: truncated record payload (") +
                         what + ")");
}

template <typename T>
Status ParsePod(const char* data, size_t size, size_t* pos, T* out,
                const char* what) {
  if (size - *pos < sizeof(T)) return Truncated(what);
  std::memcpy(out, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return Status::OK();
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- BufferedFileWriter --------------------------------------------------

BufferedFileWriter::~BufferedFileWriter() {
  if (fd_ >= 0) Close().ok();  // best effort; errors surfaced via Close()
}

Status BufferedFileWriter::Open(const std::string& path,
                                size_t buffer_bytes) {
  if (fd_ >= 0) return Status::Internal("serde: writer already open");
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return Status::Internal(Errno("serde: cannot create", path));
  path_ = path;
  buf_.assign(buffer_bytes > 0 ? buffer_bytes : 1, 0);
  used_ = 0;
  bytes_written_ = 0;
  return Status::OK();
}

Status BufferedFileWriter::Append(const void* data, size_t n) {
  if (fd_ < 0) return Status::Internal("serde: write on closed file");
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    if (used_ == 0 && n >= buf_.size()) {
      // Large appends bypass the buffer: straight from the caller's bytes.
      TRANCE_RETURN_NOT_OK(WriteFully(p, n));
      bytes_written_ += n;
      return Status::OK();
    }
    if (used_ == buf_.size()) {
      Status s = Flush();
      if (!s.ok()) return s;
    }
    size_t take = std::min(n, buf_.size() - used_);
    std::memcpy(buf_.data() + used_, p, take);
    used_ += take;
    p += take;
    n -= take;
    bytes_written_ += take;
  }
  return Status::OK();
}

Status BufferedFileWriter::WriteFully(const char* p, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd_, p + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("serde: write failed on", path_));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status BufferedFileWriter::Flush() {
  TRANCE_RETURN_NOT_OK(WriteFully(buf_.data(), used_));
  used_ = 0;
  return Status::OK();
}

Status BufferedFileWriter::Close() {
  if (fd_ < 0) return Status::OK();
  Status s = Flush();
  if (::close(fd_) != 0 && s.ok()) {
    s = Status::Internal(Errno("serde: close failed on", path_));
  }
  fd_ = -1;
  return s;
}

// --- BufferedFileReader --------------------------------------------------

BufferedFileReader::~BufferedFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status BufferedFileReader::Open(const std::string& path,
                                size_t buffer_bytes) {
  if (fd_ >= 0) return Status::Internal("serde: reader already open");
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) return Status::Internal(Errno("serde: cannot open", path));
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    Status s = Status::Internal(Errno("serde: cannot stat", path));
    ::close(fd_);
    fd_ = -1;
    return s;
  }
  file_size_ = static_cast<uint64_t>(st.st_size);
  path_ = path;
  buf_.assign(buffer_bytes > 0 ? buffer_bytes : 1, 0);
  used_ = pos_ = 0;
  bytes_read_ = 0;
  return Status::OK();
}

Status BufferedFileReader::Refill() {
  pos_ = used_ = 0;
  for (;;) {
    ssize_t r = ::read(fd_, buf_.data(), buf_.size());
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("serde: read failed on", path_));
    }
    used_ = static_cast<size_t>(r);
    return Status::OK();
  }
}

Status BufferedFileReader::Read(void* dst, size_t n) {
  if (fd_ < 0) return Status::Internal("serde: read on closed file");
  char* p = static_cast<char*>(dst);
  while (n > 0) {
    if (pos_ == used_) {
      size_t got = 0;
      if (n >= buf_.size()) {
        // Large reads bypass the buffer: straight from the descriptor.
        ssize_t r = ::read(fd_, p, n);
        if (r < 0) {
          if (errno == EINTR) continue;
          return Status::Internal(Errno("serde: read failed on", path_));
        }
        got = static_cast<size_t>(r);
        p += got;
        n -= got;
        bytes_read_ += got;
      } else {
        Status s = Refill();
        if (!s.ok()) return s;
        got = used_;
      }
      if (got == 0) {
        return Status::Invalid("serde: truncated file '" + path_ + "' (" +
                               std::to_string(n) + " bytes missing)");
      }
      continue;
    }
    size_t take = std::min(n, used_ - pos_);
    std::memcpy(p, buf_.data() + pos_, take);
    pos_ += take;
    p += take;
    n -= take;
    bytes_read_ += take;
  }
  return Status::OK();
}

StatusOr<bool> BufferedFileReader::AtEof() {
  if (fd_ < 0) return Status::Internal("serde: AtEof on closed file");
  if (pos_ < used_) return false;
  Status s = Refill();
  if (!s.ok()) return s;
  return used_ == 0;
}

Status BufferedFileReader::Close() {
  if (fd_ < 0) return Status::OK();
  Status s = Status::OK();
  if (::close(fd_) != 0) {
    s = Status::Internal(Errno("serde: close failed on", path_));
  }
  fd_ = -1;
  return s;
}

// --- field / row codecs --------------------------------------------------

void AppendField(const Field& f, std::string* out) {
  if (f.is_null()) {
    AppendU8(kFieldNull, out);
  } else if (f.is_int()) {
    AppendU8(kFieldInt, out);
    AppendPod<int64_t>(f.AsInt(), out);
  } else if (f.is_real()) {
    AppendU8(kFieldReal, out);
    uint64_t bits;
    double v = f.AsReal();
    std::memcpy(&bits, &v, sizeof(bits));
    AppendU64(bits, out);
  } else if (f.is_string()) {
    AppendU8(kFieldString, out);
    const std::string& s = f.AsString();
    AppendU32(static_cast<uint32_t>(s.size()), out);
    out->append(s);
  } else if (f.is_bool()) {
    AppendU8(kFieldBool, out);
    AppendU8(f.AsBool() ? 1 : 0, out);
  } else if (f.is_label()) {
    AppendU8(kFieldLabel, out);
    const LabelPtr& l = f.AsLabel();
    if (l == nullptr) {
      AppendU32(0, out);
      return;
    }
    AppendU32(static_cast<uint32_t>(l->params.size()), out);
    for (const auto& [name, value] : l->params) {
      AppendU32(static_cast<uint32_t>(name.size()), out);
      out->append(name);
      AppendField(value, out);
    }
  } else {  // bag
    AppendU8(kFieldBag, out);
    const BagPtr& b = f.AsBag();
    uint64_t n = b == nullptr ? 0 : b->size();
    AppendU64(n, out);
    if (b != nullptr) {
      for (const Row& r : *b) {
        AppendU32(static_cast<uint32_t>(r.fields.size()), out);
        for (const Field& ff : r.fields) AppendField(ff, out);
      }
    }
  }
}

namespace {

Status ParseRow(const char* data, size_t size, size_t* pos, Row* out) {
  uint32_t nfields = 0;
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &nfields, "row width"));
  out->fields.clear();
  // Every encoded field takes at least one byte: bound the reserve by what
  // the payload can hold, not by a possibly corrupt width.
  out->fields.reserve(std::min<size_t>(nfields, size - *pos));
  for (uint32_t i = 0; i < nfields; ++i) {
    Field f;
    TRANCE_RETURN_NOT_OK(ParseField(data, size, pos, &f));
    out->fields.push_back(std::move(f));
  }
  return Status::OK();
}

}  // namespace

Status ParseField(const char* data, size_t size, size_t* pos, Field* out) {
  uint8_t tag = 0;
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &tag, "field tag"));
  switch (tag) {
    case kFieldNull:
      *out = Field::Null();
      return Status::OK();
    case kFieldInt: {
      int64_t v = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &v, "int field"));
      *out = Field::Int(v);
      return Status::OK();
    }
    case kFieldReal: {
      uint64_t bits = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &bits, "real field"));
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      *out = Field::Real(v);
      return Status::OK();
    }
    case kFieldString: {
      uint32_t len = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &len, "string length"));
      if (size - *pos < len) return Truncated("string bytes");
      *out = Field::Str(std::string(data + *pos, len));
      *pos += len;
      return Status::OK();
    }
    case kFieldBool: {
      uint8_t v = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &v, "bool field"));
      *out = Field::Bool(v != 0);
      return Status::OK();
    }
    case kFieldLabel: {
      uint32_t nparams = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &nparams, "label arity"));
      auto label = std::make_shared<RtLabel>();
      // Each param takes at least a name length and a field tag.
      label->params.reserve(std::min<size_t>(nparams, (size - *pos) / 5));
      for (uint32_t i = 0; i < nparams; ++i) {
        uint32_t name_len = 0;
        TRANCE_RETURN_NOT_OK(
            ParsePod(data, size, pos, &name_len, "label param name length"));
        if (size - *pos < name_len) return Truncated("label param name");
        std::string name(data + *pos, name_len);
        *pos += name_len;
        Field value;
        TRANCE_RETURN_NOT_OK(ParseField(data, size, pos, &value));
        label->params.emplace_back(std::move(name), std::move(value));
      }
      *out = Field::Label(std::move(label));
      return Status::OK();
    }
    case kFieldBag: {
      uint64_t nrows = 0;
      TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &nrows, "bag size"));
      std::vector<Row> rows;
      // Guard the reserve: a corrupt length must not OOM before the
      // element-wise truncation checks reject it.
      rows.reserve(static_cast<size_t>(std::min<uint64_t>(nrows, 4096)));
      for (uint64_t i = 0; i < nrows; ++i) {
        Row r;
        TRANCE_RETURN_NOT_OK(ParseRow(data, size, pos, &r));
        rows.push_back(std::move(r));
      }
      *out = Field::Bag(std::move(rows));
      return Status::OK();
    }
    default:
      return Status::Invalid("serde: unknown field tag " +
                             std::to_string(static_cast<int>(tag)));
  }
}

void AppendRowBatchPayload(const std::vector<Row>& rows, std::string* out) {
  AppendU64(rows.size(), out);
  for (const Row& r : rows) {
    AppendU32(static_cast<uint32_t>(r.fields.size()), out);
    for (const Field& f : r.fields) AppendField(f, out);
  }
}

namespace {

using Kind = column::AnyColumn::Kind;

void AppendBlockHeader(size_t ncols, size_t rows, std::string* out) {
  AppendU32(static_cast<uint32_t>(ncols), out);
  AppendU64(rows, out);
  AppendU8(0, out);  // flag byte: always 0 (readers reject anything else)
}

/// The kind a fresh column of kind `start` ends in after AnyColumn::Append
/// of rows [begin, end) of `col` (what PartitionBlock::AppendRowFrom does):
/// `start`, unless some non-NULL cell does not fit it, which demotes the
/// column to kVariant.
Kind SliceKind(const column::AnyColumn& col, Kind start, size_t begin,
               size_t end) {
  if (start == col.kind() || start == Kind::kVariant) return start;
  for (size_t i = begin; i < end; ++i) {
    if (col.IsNull(i)) continue;
    if (col.kind() != Kind::kVariant ||
        !column::AnyColumn::FieldMatchesKind(col.variants()[i], start)) {
      return Kind::kVariant;
    }
  }
  return start;
}

/// Encodes rows [begin, end) of `col` as one block-record column of kind
/// `kind` (col.kind(), or the SliceKind of a chunk). The bytes equal
/// AppendBlockPayload's column of a block holding just those cells: NULLs
/// keep their default value slot, typed cells copy straight from the source
/// arrays, and a typed `kind` differing from col.kind() only arises when
/// every non-NULL cell is a variant Field of that kind.
void AppendColumnSlice(const column::AnyColumn& col, Kind kind, size_t begin,
                       size_t end, std::string* out) {
  const size_t rows = end - begin;
  const column::NullBitmap& nulls = col.nulls();
  bool has_nulls = false;
  for (size_t i = begin; nulls.any() && i < end && !has_nulls; i += 64) {
    has_nulls = nulls.BitsAt(i, std::min<size_t>(64, end - i)) != 0;
  }
  AppendU8(has_nulls ? 1 : 0, out);
  if (has_nulls) {
    for (size_t i = begin; i < end; i += 64) {
      AppendU64(nulls.BitsAt(i, std::min<size_t>(64, end - i)), out);
    }
  }
  const bool direct = kind == col.kind();
  const Field* cells = col.variants();
  switch (kind) {
    case Kind::kInt64:
      AppendU8(kColInt64, out);
      if (direct) {
        out->append(reinterpret_cast<const char*>(col.ints() + begin),
                    rows * sizeof(int64_t));
      } else {
        for (size_t i = begin; i < end; ++i) {
          AppendPod<int64_t>(col.IsNull(i) ? 0 : cells[i].AsInt(), out);
        }
      }
      break;
    case Kind::kReal:
      AppendU8(kColReal, out);
      if (direct) {
        out->append(reinterpret_cast<const char*>(col.reals() + begin),
                    rows * sizeof(double));
      } else {
        for (size_t i = begin; i < end; ++i) {
          AppendPod<double>(col.IsNull(i) ? 0.0 : cells[i].AsReal(), out);
        }
      }
      break;
    case Kind::kBool:
      AppendU8(kColBool, out);
      if (direct) {
        out->append(reinterpret_cast<const char*>(col.bools() + begin), rows);
      } else {
        for (size_t i = begin; i < end; ++i) {
          AppendU8(!col.IsNull(i) && cells[i].AsBool() ? 1 : 0, out);
        }
      }
      break;
    case Kind::kString: {
      AppendU8(kColString, out);
      auto str = [&](size_t i) -> std::string_view {
        if (direct) return col.strings().At(i);
        return col.IsNull(i) ? std::string_view() : cells[i].AsString();
      };
      uint64_t chars = 0;
      for (size_t i = begin; i < end; ++i) chars += str(i).size();
      AppendU64(chars, out);
      if (direct) {
        // The arena is contiguous, so the slice's characters are one append.
        if (chars > 0) out->append(str(begin).data(), chars);
      } else {
        for (size_t i = begin; i < end; ++i) out->append(str(i));
      }
      uint64_t offset = 0;
      for (size_t i = begin; i < end; ++i) {
        offset += str(i).size();
        AppendU64(offset, out);
      }
      break;
    }
    case Kind::kVariant:
      AppendU8(kColVariant, out);
      for (size_t i = begin; i < end; ++i) {
        if (col.kind() == Kind::kVariant) {
          AppendField(cells[i], out);
        } else {
          AppendField(col.At(i), out);
        }
      }
      break;
  }
}

}  // namespace

void AppendBlockPayload(const column::PartitionBlock& block,
                        std::string* out) {
  const size_t rows = block.NumRows();
  AppendBlockHeader(block.NumCols(), rows, out);
  for (size_t c = 0; c < block.NumCols(); ++c) {
    AppendColumnSlice(block.col(c), block.col(c).kind(), 0, rows, out);
  }
}

void AppendBlockSlicePayload(const column::PartitionBlock& block,
                             const Schema& schema, size_t begin, size_t end,
                             std::string* out) {
  TRANCE_CHECK(block.NumCols() == schema.size(),
               "AppendBlockSlicePayload: block width " +
                   std::to_string(block.NumCols()) + " != schema width " +
                   std::to_string(schema.size()));
  AppendBlockHeader(schema.size(), end - begin, out);
  for (size_t c = 0; c < schema.size(); ++c) {
    const column::AnyColumn& col = block.col(c);
    Kind start = column::AnyColumn::KindForType(schema.columns()[c].type);
    AppendColumnSlice(col, SliceKind(col, start, begin, end), begin, end,
                      out);
  }
}

namespace {

template <typename T>
T LoadPod(const char* base, size_t i) {
  T v;
  std::memcpy(&v, base + i * sizeof(T), sizeof(T));
  return v;
}

/// One column of a validated block record: views into the payload for typed
/// kinds, parsed cells for the variant kind.
struct ColumnView {
  uint8_t kind = 0;
  const char* null_words = nullptr;  // nullptr when the column has no NULLs
  const char* values = nullptr;      // typed values, or string end offsets
  const char* arena = nullptr;       // string characters
  std::vector<Field> cells;          // variant cells

  bool IsNull(size_t i) const {
    return null_words != nullptr &&
           ((LoadPod<uint64_t>(null_words, i / 64) >> (i % 64)) & 1) != 0;
  }
  std::string_view Str(size_t i) const {
    uint64_t begin = i == 0 ? 0 : LoadPod<uint64_t>(values, i - 1);
    uint64_t end = LoadPod<uint64_t>(values, i);
    return std::string_view(arena + begin, static_cast<size_t>(end - begin));
  }
  /// Cell i as the row path materializes it: a NULL bit overrides a typed
  /// cell's stored slot; variant cells are moved out as parsed.
  Field TakeField(size_t i) {
    if (kind == kColVariant) return std::move(cells[i]);
    if (IsNull(i)) return Field::Null();
    switch (kind) {
      case kColInt64: return Field::Int(LoadPod<int64_t>(values, i));
      case kColReal: return Field::Real(LoadPod<double>(values, i));
      case kColBool: return Field::Bool(LoadPod<uint8_t>(values, i) != 0);
      default: return Field::Str(std::string(Str(i)));
    }
  }
};

/// A fully validated kRecordBlock payload.
struct BlockRecord {
  size_t nrows = 0;
  std::vector<ColumnView> cols;
};

Status ParseColumn(const char* data, size_t size, size_t* pos, size_t n,
                   ColumnView* col) {
  uint8_t has_nulls = 0;
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &has_nulls, "null flag"));
  if (has_nulls != 0) {
    size_t words = n / 64 + (n % 64 != 0 ? 1 : 0);
    if (words > (size - *pos) / 8) return Truncated("null bitmap");
    col->null_words = data + *pos;
    *pos += words * 8;
  }
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, pos, &col->kind, "column kind"));
  switch (col->kind) {
    case kColInt64:
    case kColReal:
      if (n > (size - *pos) / 8) {
        return Truncated(col->kind == kColInt64 ? "int column" : "real column");
      }
      col->values = data + *pos;
      *pos += n * 8;
      return Status::OK();
    case kColBool:
      if (n > size - *pos) return Truncated("bool column");
      col->values = data + *pos;
      *pos += n;
      return Status::OK();
    case kColString: {
      uint64_t chars = 0;
      TRANCE_RETURN_NOT_OK(
          ParsePod(data, size, pos, &chars, "string arena length"));
      if (size - *pos < chars) return Truncated("string arena");
      col->arena = data + *pos;
      *pos += static_cast<size_t>(chars);
      if (n > (size - *pos) / 8) return Truncated("string offsets");
      col->values = data + *pos;
      *pos += n * 8;
      uint64_t prev = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t end = LoadPod<uint64_t>(col->values, i);
        if (end < prev || end > chars) {
          return Status::Invalid(
              "serde: corrupt string offsets (non-monotonic or out of arena)");
        }
        prev = end;
      }
      return Status::OK();
    }
    case kColVariant:
      // Every encoded field takes at least one byte: bound the reserve by
      // what the payload can hold, not by a possibly corrupt row count.
      col->cells.reserve(std::min(n, size - *pos));
      for (size_t i = 0; i < n; ++i) {
        Field f;
        TRANCE_RETURN_NOT_OK(ParseField(data, size, pos, &f));
        col->cells.push_back(std::move(f));
      }
      return Status::OK();
    default:
      return Status::Invalid("serde: unknown column kind " +
                             std::to_string(static_cast<int>(col->kind)));
  }
}

Status CheckConsumed(size_t pos, size_t size) {
  if (pos != size) {
    return Status::Invalid("serde: record payload has " +
                           std::to_string(size - pos) + " trailing bytes");
  }
  return Status::OK();
}

/// Validates a whole block record — header, every bitmap, value region,
/// string offset and variant field, and trailing bytes — before any caller
/// appends a cell of it.
Status ParseBlockRecord(const char* data, size_t size, BlockRecord* rec) {
  size_t pos = 0;
  uint32_t ncols = 0;
  uint64_t nrows = 0;
  uint8_t flag = 0;
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &ncols, "column count"));
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &nrows, "row count"));
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &flag, "block flag"));
  if (flag != 0) {
    return Status::Invalid("serde: block record has flag byte " +
                           std::to_string(static_cast<int>(flag)) +
                           " (must be 0): corrupt record");
  }
  rec->nrows = static_cast<size_t>(nrows);
  // Each column spends at least its null flag and kind byte.
  if (ncols > (size - pos) / 2) return Truncated("column headers");
  rec->cols.resize(ncols);
  for (ColumnView& col : rec->cols) {
    TRANCE_RETURN_NOT_OK(ParseColumn(data, size, &pos, rec->nrows, &col));
  }
  return CheckConsumed(pos, size);
}

/// Appends a validated record's rows to *out.
void AppendRecordRows(BlockRecord* rec, std::vector<Row>* out) {
  out->reserve(out->size() + std::min<size_t>(rec->nrows, 1 << 20));
  for (size_t i = 0; i < rec->nrows; ++i) {
    Row r;
    r.fields.reserve(rec->cols.size());
    for (ColumnView& col : rec->cols) r.fields.push_back(col.TakeField(i));
    out->push_back(std::move(r));
  }
}

/// Appends a validated block record to a block of the same width, column by
/// column. Typed cells go straight into a destination column of the matching
/// kind; variant cells, and typed cells whose kind differs from the
/// destination's, take AnyColumn::Append(Field), which replays the row
/// path's demotion exactly.
void AppendRecordColumns(BlockRecord* rec, column::PartitionBlock* out) {
  const size_t n = rec->nrows;
  out->AppendColumns(n, [&](size_t c, column::AnyColumn* dst) {
    ColumnView& v = rec->cols[c];
    switch (v.kind) {
      case kColInt64:
        if (dst->kind() != Kind::kInt64) break;
        for (size_t i = 0; i < n; ++i) {
          dst->AppendInt(LoadPod<int64_t>(v.values, i), v.IsNull(i));
        }
        return;
      case kColReal:
        if (dst->kind() != Kind::kReal) break;
        for (size_t i = 0; i < n; ++i) {
          dst->AppendReal(LoadPod<double>(v.values, i), v.IsNull(i));
        }
        return;
      case kColBool:
        if (dst->kind() != Kind::kBool) break;
        for (size_t i = 0; i < n; ++i) {
          dst->AppendBool(LoadPod<uint8_t>(v.values, i) != 0, v.IsNull(i));
        }
        return;
      case kColString:
        if (dst->kind() != Kind::kString) break;
        for (size_t i = 0; i < n; ++i) dst->AppendString(v.Str(i), v.IsNull(i));
        return;
    }
    for (size_t i = 0; i < n; ++i) dst->Append(v.TakeField(i));
  });
}

Status ParsePayload(uint8_t kind, const char* data, size_t size,
                    std::vector<Row>* out) {
  if (kind == kRecordBlock) {
    BlockRecord rec;
    TRANCE_RETURN_NOT_OK(ParseBlockRecord(data, size, &rec));
    AppendRecordRows(&rec, out);
    return Status::OK();
  }
  if (kind != kRecordRowBatch) {
    return Status::Invalid("serde: unknown record kind " +
                           std::to_string(static_cast<int>(kind)));
  }
  size_t pos = 0;
  uint64_t nrows = 0;
  TRANCE_RETURN_NOT_OK(ParsePod(data, size, &pos, &nrows, "batch size"));
  out->reserve(out->size() +
               static_cast<size_t>(std::min<uint64_t>(nrows, 1 << 20)));
  for (uint64_t i = 0; i < nrows; ++i) {
    Row r;
    TRANCE_RETURN_NOT_OK(ParseRow(data, size, &pos, &r));
    out->push_back(std::move(r));
  }
  return CheckConsumed(pos, size);
}

}  // namespace

Status ParseRecordPayload(uint8_t kind, const std::string& payload,
                          std::vector<Row>* out) {
  return ParsePayload(kind, payload.data(), payload.size(), out);
}

// --- file-level writer / reader ------------------------------------------

Status BlockFileWriter::Open(const std::string& path, size_t buffer_bytes) {
  TRANCE_RETURN_NOT_OK(out_.Open(path, buffer_bytes));
  std::string header;
  AppendU32(kMagic, &header);
  AppendPod<uint16_t>(kFormatVersion, &header);
  AppendPod<uint16_t>(0, &header);  // flags, reserved
  return out_.Append(header.data(), header.size());
}

Status BlockFileWriter::WriteRecord(uint8_t kind, const std::string& payload) {
  const uint64_t len = payload.size();
  const uint64_t sum = Fnv1a64(payload.data(), payload.size());
  TRANCE_RETURN_NOT_OK(out_.Append(&kind, sizeof(kind)));
  TRANCE_RETURN_NOT_OK(out_.Append(&len, sizeof(len)));
  TRANCE_RETURN_NOT_OK(out_.Append(payload.data(), payload.size()));
  return out_.Append(&sum, sizeof(sum));
}

Status BlockFileWriter::WriteBlock(const column::PartitionBlock& block) {
  std::string payload;
  AppendBlockPayload(block, &payload);
  return WriteRecord(kRecordBlock, payload);
}

Status BlockFileWriter::WriteBlockSlice(const column::PartitionBlock& block,
                                        const Schema& schema, size_t begin,
                                        size_t end) {
  std::string payload;
  AppendBlockSlicePayload(block, schema, begin, end, &payload);
  return WriteRecord(kRecordBlock, payload);
}

Status BlockFileWriter::WriteRows(const std::vector<Row>& rows) {
  std::string payload;
  AppendRowBatchPayload(rows, &payload);
  return WriteRecord(kRecordRowBatch, payload);
}

Status BlockFileWriter::Close() { return out_.Close(); }

Status BlockFileReader::Open(const std::string& path, size_t buffer_bytes) {
  TRANCE_RETURN_NOT_OK(in_.Open(path, buffer_bytes));
  uint32_t magic = 0;
  uint16_t version = 0, flags = 0;
  TRANCE_RETURN_NOT_OK(in_.Read(&magic, sizeof(magic)));
  TRANCE_RETURN_NOT_OK(in_.Read(&version, sizeof(version)));
  TRANCE_RETURN_NOT_OK(in_.Read(&flags, sizeof(flags)));
  if (magic != kMagic) {
    return Status::Invalid("serde: bad magic in '" + path +
                           "' (not a trance block file)");
  }
  if (version != kFormatVersion) {
    return Status::Invalid("serde: unsupported format version " +
                           std::to_string(version) + " in '" + path +
                           "' (this reader speaks version " +
                           std::to_string(kFormatVersion) + ")");
  }
  return Status::OK();
}

StatusOr<bool> BlockFileReader::ReadRecord(uint8_t* kind) {
  TRANCE_ASSIGN_OR_RETURN(bool eof, in_.AtEof());
  if (eof) return false;
  uint64_t payload_len = 0;
  TRANCE_RETURN_NOT_OK(in_.Read(kind, sizeof(*kind)));
  TRANCE_RETURN_NOT_OK(in_.Read(&payload_len, sizeof(payload_len)));
  if (payload_len > (uint64_t{1} << 40)) {
    return Status::Invalid("serde: implausible record length " +
                           std::to_string(payload_len) + " (corrupt frame)");
  }
  // Validate against what the file can actually hold (payload + trailer)
  // BEFORE allocating: a corrupt length must produce a clean Status, not a
  // giant allocation.
  uint64_t remaining = in_.file_size() - in_.bytes_read();
  if (payload_len + sizeof(uint64_t) > remaining) {
    return Status::Invalid(
        "serde: truncated record: frame claims " +
        std::to_string(payload_len) + " payload bytes with only " +
        std::to_string(remaining) + " bytes left in the file");
  }
  payload_size_ = static_cast<size_t>(payload_len);
  if (payload_size_ > payload_capacity_) {
    // Grown, never zero-filled: Read overwrites every byte that is parsed.
    payload_ = std::make_unique_for_overwrite<char[]>(payload_size_);
    payload_capacity_ = payload_size_;
  }
  TRANCE_RETURN_NOT_OK(in_.Read(payload_.get(), payload_size_));
  uint64_t stored_sum = 0;
  TRANCE_RETURN_NOT_OK(in_.Read(&stored_sum, sizeof(stored_sum)));
  uint64_t actual_sum = Fnv1a64(payload_.get(), payload_size_);
  if (stored_sum != actual_sum) {
    return Status::Invalid("serde: checksum mismatch (stored " +
                           std::to_string(stored_sum) + ", computed " +
                           std::to_string(actual_sum) + "): corrupt record");
  }
  return true;
}

StatusOr<bool> BlockFileReader::ReadBatch(std::vector<Row>* out,
                                          uint8_t* kind) {
  uint8_t record_kind = 0;
  TRANCE_ASSIGN_OR_RETURN(bool more, ReadRecord(&record_kind));
  if (!more) return false;
  TRANCE_RETURN_NOT_OK(
      ParsePayload(record_kind, payload_.get(), payload_size_, out));
  if (kind != nullptr) *kind = record_kind;
  return true;
}

StatusOr<bool> BlockFileReader::ReadBatchInto(column::PartitionBlock* out,
                                              uint8_t* kind) {
  uint8_t record_kind = 0;
  TRANCE_ASSIGN_OR_RETURN(bool more, ReadRecord(&record_kind));
  if (!more) return false;
  // Every check runs before the first append, so a rejected record leaves
  // *out unchanged.
  if (record_kind == kRecordBlock) {
    BlockRecord rec;
    TRANCE_RETURN_NOT_OK(ParseBlockRecord(payload_.get(), payload_size_, &rec));
    if (rec.cols.size() != out->NumCols()) {
      return Status::Invalid(
          "serde: block record has width " + std::to_string(rec.cols.size()) +
          ", destination block has width " + std::to_string(out->NumCols()));
    }
    AppendRecordColumns(&rec, out);
  } else {
    std::vector<Row> rows;
    TRANCE_RETURN_NOT_OK(
        ParsePayload(record_kind, payload_.get(), payload_size_, &rows));
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].fields.size() != out->NumCols()) {
        return Status::Invalid(
            "serde: row-batch record row " + std::to_string(i) +
            " has width " + std::to_string(rows[i].fields.size()) +
            ", destination block has width " +
            std::to_string(out->NumCols()));
      }
    }
    for (const Row& r : rows) out->AppendRow(r);
  }
  if (kind != nullptr) *kind = record_kind;
  return true;
}

Status BlockFileReader::Close() { return in_.Close(); }

}  // namespace serde
}  // namespace runtime
}  // namespace trance
