#include "runtime/key_codec.h"

#include <cstring>

namespace trance {
namespace runtime {
namespace key_codec {

namespace {

// One tag byte per field. Tags also separate the int/real/bool/string type
// lattice: Field::operator== calls Int(1) and Real(1.0) equal, but their
// Field::Hash values differ, so a hash container over Fields (hash first,
// equality only within a bucket) keeps them apart — distinct tags reproduce
// that exactly.
enum Tag : unsigned char {
  kNull = 0x00,
  kInt = 0x01,
  kReal = 0x02,
  kString = 0x03,
  kBool = 0x04,
  kLabel = 0x05,
  kNullLabel = 0x06,  // LabelPtr that is nullptr (hash 0x1AB, != empty label)
};

void PutU32(std::string* out, uint32_t v) {
  unsigned char b[4] = {static_cast<unsigned char>(v),
                        static_cast<unsigned char>(v >> 8),
                        static_cast<unsigned char>(v >> 16),
                        static_cast<unsigned char>(v >> 24)};
  out->append(reinterpret_cast<const char*>(b), 4);
}

void PutU64(std::string* out, uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  out->append(reinterpret_cast<const char*>(b), 8);
}

Status EncodeField(const Field& f, std::string* out) {
  if (f.is_null()) {
    out->push_back(static_cast<char>(kNull));
    return Status::OK();
  }
  if (f.is_int()) {
    out->push_back(static_cast<char>(kInt));
    PutU64(out, static_cast<uint64_t>(f.AsInt()));
    return Status::OK();
  }
  if (f.is_real()) {
    // Normalize -0.0 to 0.0: Field::operator== and HashDouble both treat
    // them as the same key, so their encodings must be byte-identical too.
    double d = f.AsReal();
    if (d == 0.0) d = 0.0;
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    out->push_back(static_cast<char>(kReal));
    PutU64(out, bits);
    return Status::OK();
  }
  if (f.is_string()) {
    const std::string& s = f.AsString();
    out->push_back(static_cast<char>(kString));
    PutU32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
    return Status::OK();
  }
  if (f.is_bool()) {
    out->push_back(static_cast<char>(kBool));
    out->push_back(f.AsBool() ? '\1' : '\0');
    return Status::OK();
  }
  if (f.is_label()) {
    const LabelPtr& l = f.AsLabel();
    if (l == nullptr) {
      out->push_back(static_cast<char>(kNullLabel));
      return Status::OK();
    }
    out->push_back(static_cast<char>(kLabel));
    PutU32(out, static_cast<uint32_t>(l->params.size()));
    for (const auto& [name, param] : l->params) {
      PutU32(out, static_cast<uint32_t>(name.size()));
      out->append(name);
      TRANCE_RETURN_NOT_OK(EncodeField(param, out));
    }
    return Status::OK();
  }
  return Status::TypeError(
      "key codec: bag-typed field cannot be a key (keys must be flat)");
}

}  // namespace

StatusOr<EncodedKeyView> KeyEncoder::Encode(const Row& row,
                                            const std::vector<int>& cols) {
  buf_.clear();
  uint64_t h = 0x5EED;  // the RowHashOn commutative combine, accumulated here
  for (int c : cols) {
    TRANCE_CHECK(c >= 0 && static_cast<size_t>(c) < row.fields.size(),
                 "KeyEncoder::Encode: bad column");
    const Field& f = row.fields[static_cast<size_t>(c)];
    h += SplitMix64(f.Hash());
    TRANCE_RETURN_NOT_OK(EncodeField(f, &buf_));
  }
  bytes_encoded_ += buf_.size();
  return EncodedKeyView{SplitMix64(h), std::string_view(buf_)};
}

StatusOr<uint64_t> KeyEncoder::EncodeCell(const column::AnyColumn& col,
                                          size_t i) {
  using Kind = column::AnyColumn::Kind;
  // Typed cells encode from the arrays exactly as EncodeField would encode
  // the Field that At(i) materializes; variant cells encode by reference.
  if (col.kind() == Kind::kVariant) {
    const Field& f = col.variants()[i];
    TRANCE_RETURN_NOT_OK(EncodeField(f, &buf_));
    return f.Hash();
  }
  if (col.IsNull(i)) {
    buf_.push_back(static_cast<char>(kNull));
    return col.CellHash(i);
  }
  switch (col.kind()) {
    case Kind::kInt64:
      buf_.push_back(static_cast<char>(kInt));
      PutU64(&buf_, static_cast<uint64_t>(col.ints()[i]));
      break;
    case Kind::kReal: {
      double d = col.reals()[i];
      if (d == 0.0) d = 0.0;  // -0.0 encodes as 0.0 (see EncodeField)
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      buf_.push_back(static_cast<char>(kReal));
      PutU64(&buf_, bits);
      break;
    }
    case Kind::kBool:
      buf_.push_back(static_cast<char>(kBool));
      buf_.push_back(col.bools()[i] != 0 ? '\1' : '\0');
      break;
    case Kind::kString: {
      std::string_view s = col.strings().At(i);
      buf_.push_back(static_cast<char>(kString));
      PutU32(&buf_, static_cast<uint32_t>(s.size()));
      buf_.append(s.data(), s.size());
      break;
    }
    case Kind::kVariant:
      break;
  }
  return col.CellHash(i);
}

StatusOr<EncodedKeyView> KeyEncoder::EncodeAt(
    const column::PartitionBlock& block, size_t i,
    const std::vector<int>& cols) {
  buf_.clear();
  uint64_t h = 0x5EED;
  for (int c : cols) {
    TRANCE_ASSIGN_OR_RETURN(uint64_t ch,
                            EncodeCell(block.col(static_cast<size_t>(c)), i));
    h += SplitMix64(ch);
  }
  bytes_encoded_ += buf_.size();
  return EncodedKeyView{SplitMix64(h), std::string_view(buf_)};
}

StatusOr<EncodedKeyView> KeyEncoder::EncodeRowAt(
    const column::PartitionBlock& block, size_t i) {
  buf_.clear();
  uint64_t h = 0x5EED;
  for (size_t c = 0; c < block.NumCols(); ++c) {
    TRANCE_ASSIGN_OR_RETURN(uint64_t ch, EncodeCell(block.col(c), i));
    h += SplitMix64(ch);
  }
  bytes_encoded_ += buf_.size();
  return EncodedKeyView{SplitMix64(h), std::string_view(buf_)};
}

uint64_t KeyHashOn(const Row& row, const std::vector<int>& cols) {
  return RowHashOn(row, cols);
}

}  // namespace key_codec
}  // namespace runtime
}  // namespace trance
