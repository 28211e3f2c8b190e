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

StatusOr<EncodedKeyView> KeyEncoder::EncodeRow(const Row& row) {
  buf_.clear();
  uint64_t h = 0x5EED;
  for (const Field& f : row.fields) {
    h += SplitMix64(f.Hash());
    TRANCE_RETURN_NOT_OK(EncodeField(f, &buf_));
  }
  bytes_encoded_ += buf_.size();
  return EncodedKeyView{SplitMix64(h), std::string_view(buf_)};
}

StatusOr<EncodedKeyView> KeyEncoder::EncodeAt(
    const column::PartitionBlock& block, size_t i,
    const std::vector<int>& cols) {
  if (block.ragged()) return Encode(block.ragged_row(i), cols);
  Begin();
  for (int c : cols) {
    TRANCE_RETURN_NOT_OK(Append(block.FieldAt(i, static_cast<size_t>(c))));
  }
  return Finish();
}

StatusOr<EncodedKeyView> KeyEncoder::EncodeRowAt(
    const column::PartitionBlock& block, size_t i) {
  if (block.ragged()) return EncodeRow(block.ragged_row(i));
  Begin();
  for (size_t c = 0; c < block.NumCols(); ++c) {
    TRANCE_RETURN_NOT_OK(Append(block.FieldAt(i, c)));
  }
  return Finish();
}

void KeyEncoder::Begin() {
  buf_.clear();
  hash_acc_ = 0x5EED;
}

Status KeyEncoder::Append(const Field& f) {
  hash_acc_ += SplitMix64(f.Hash());
  return EncodeField(f, &buf_);
}

EncodedKeyView KeyEncoder::Finish() {
  bytes_encoded_ += buf_.size();
  return EncodedKeyView{SplitMix64(hash_acc_), std::string_view(buf_)};
}

uint64_t KeyHashOn(const Row& row, const std::vector<int>& cols) {
  return RowHashOn(row, cols);
}

}  // namespace key_codec
}  // namespace runtime
}  // namespace trance
