// Compact binary key codec: the one key representation every keyed runtime
// path shares (join build/probe, cogroup, nest, reduce-by-key, dedup, the
// skew sampler's heavy-key set, and hash partitioning).
//
// An EncodedKey is a type-tagged, length-prefixed byte string over the
// projected key columns plus the commutative key hash:
//
//   bytes:  per column, one tag byte followed by the value encoding
//           (see key_codec.cc for the exact layout; strings and label
//           parameter names are u32-length-prefixed, labels encode their
//           captured params recursively);
//   hash:   identical to RowHashOn(row, cols) — the order-insensitive
//           per-column combine, so permuted key-column lists hash (and
//           therefore partition) identically, preserving the
//           Partitioning::IsHashOn reuse guarantee.
//
// Equality is memcmp over the bytes. Two keys are byte-identical exactly
// when they are Field-equal AND Field-hash-equal per column — the identity
// structural hash containers over Field vectors would give them (asserted by
// tests/key_codec_test.cc over randomized values) — but keys are *values*:
// no per-probe std::vector<Field> deep copy, no variant dispatch per
// comparison.
//
// Bag-typed fields are rejected at encode time with a TypeError ("keys must
// be flat"): keyed operators require flat keys, which the typechecker and
// the unnester already guarantee for every NRC program (see
// docs/ARCHITECTURE.md, "Row & key encoding").
#ifndef TRANCE_RUNTIME_KEY_CODEC_H_
#define TRANCE_RUNTIME_KEY_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/column.h"
#include "runtime/field.h"
#include "util/status.h"

namespace trance {
namespace runtime {
namespace key_codec {

/// An owning encoded key (tests and benchmarks hold pre-encoded keys).
struct EncodedKey {
  uint64_t hash = 0;
  std::string bytes;
};

/// A non-owning view over an encoder's scratch buffer; valid until the next
/// Encode call on the same encoder. Probes use views so a lookup never
/// allocates.
struct EncodedKeyView {
  uint64_t hash = 0;
  std::string_view bytes;
};

/// Materializes a view into an owning key (one allocation).
inline EncodedKey Materialize(const EncodedKeyView& v) {
  return EncodedKey{v.hash, std::string(v.bytes)};
}

/// Encodes projected keys into a reusable scratch buffer. One encoder per
/// task/thread; not thread-safe. Tracks the cumulative bytes it encoded
/// (the stage's key_encode_bytes counter).
class KeyEncoder {
 public:
  /// Encodes row[cols] (in column-list order). The returned view aliases
  /// the internal buffer and is invalidated by the next Encode call.
  /// Fails with TypeError on bag-typed fields.
  StatusOr<EncodedKeyView> Encode(const Row& row, const std::vector<int>& cols);

  /// Encodes block[i][cols] straight from the block's typed arrays (a
  /// variant cell by reference, no Field copy); byte- and hash-identical to
  /// Encode(block.RowAt(i), cols).
  StatusOr<EncodedKeyView> EncodeAt(const column::PartitionBlock& block,
                                    size_t i, const std::vector<int>& cols);
  /// Encodes every cell of block row i (full-row key, e.g. dedup);
  /// identical to Encode(block.RowAt(i), all columns).
  StatusOr<EncodedKeyView> EncodeRowAt(const column::PartitionBlock& block,
                                       size_t i);

  /// Total bytes of all successful encodings since construction/reset.
  uint64_t bytes_encoded() const { return bytes_encoded_; }
  void ResetByteCount() { bytes_encoded_ = 0; }

 private:
  /// Appends cell i of `col` to buf_ and returns its Field::Hash.
  StatusOr<uint64_t> EncodeCell(const column::AnyColumn& col, size_t i);

  std::string buf_;
  uint64_t bytes_encoded_ = 0;
};

/// The codec's key hash without materializing bytes: exactly
/// RowHashOn(row, cols), the hash shuffle routing places rows by.
uint64_t KeyHashOn(const Row& row, const std::vector<int>& cols);

}  // namespace key_codec
}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_KEY_CODEC_H_
