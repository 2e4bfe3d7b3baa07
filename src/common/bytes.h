// Byte-string utilities and canonical (de)serialization.
//
// Every hashed or signed structure in the system (transactions, block
// headers, AC2T graphs, contract calls) is first converted to a canonical
// little-endian byte encoding via ByteWriter so that hashes and signatures
// are well-defined and reproducible. ByteReader is the Status-returning
// inverse used when validating network messages and evidence.
//
// Writing is on every transaction's sign, seal and verify path, so the
// writer is built to cost little:
//   - A fixed-width field is stored little-endian (StoreLe) into a stack
//     array and appended with one insert, inline here: one size change
//     of the buffer, not one push_back per byte. Encoders into fixed
//     stack buffers (BlockHeader::EncodeTo, the Schnorr hash prefixes)
//     use the same StoreLe, so there is one layout for each width.
//   - Reserve(n) lets an encoder that knows its exact size allocate once.
//   - A value type embedded in larger encodings (PublicKey, Signature,
//     MerkleStep) has EncodeTo(ByteWriter*), which appends its bytes to
//     the caller's writer; an Encode() beside it wraps EncodeTo. Encoders
//     call EncodeTo, never PutRaw(x.Encode()), which would build and free
//     a heap buffer per field.

#ifndef AC3_COMMON_BYTES_H_
#define AC3_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/status.h"

namespace ac3 {

/// Owned byte string; the universal currency between modules.
using Bytes = std::vector<uint8_t>;

/// Lower-case hex encoding of `data` ("" for empty input).
std::string ToHex(const Bytes& data);
/// Hex encoding of an arbitrary buffer.
std::string ToHex(const uint8_t* data, size_t len);

/// Parses lower/upper-case hex. Fails on odd length or non-hex characters.
Result<Bytes> FromHex(const std::string& hex);

/// Appends `suffix` to `dst`.
void AppendBytes(Bytes* dst, const Bytes& suffix);

/// Stores `v` little-endian at `out` and returns the byte after it: the one
/// fixed-width layout, shared by ByteWriter and by encoders that write
/// into a fixed buffer.
template <typename T>
inline uint8_t* StoreLe(uint8_t* out, T v) {
  static_assert(std::is_unsigned_v<T>);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return out + sizeof(T);
}

/// Builds canonical little-endian encodings. All multi-byte integers are
/// fixed-width little-endian; variable-length fields carry a u32 length
/// prefix. This is intentionally simple and unambiguous — one encoding per
/// value — because the encodings are inputs to SHA-256.
class ByteWriter {
 public:
  /// Room for `n` more bytes, so an encoder that knows its size ahead
  /// grows the buffer once.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLe(v); }
  void PutU32(uint32_t v) { PutLe(v); }
  void PutU64(uint64_t v) { PutLe(v); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// Length-prefixed byte string.
  void PutBytes(const Bytes& b) {
    PutU32(static_cast<uint32_t>(b.size()));
    PutRaw(b);
  }
  /// Length-prefixed UTF-8 string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  /// Raw bytes with NO length prefix (for fixed-width fields like hashes).
  void PutRaw(const uint8_t* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }
  void PutRaw(const Bytes& b) { PutRaw(b.data(), b.size()); }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  /// Appends `v` little-endian: one insert of its bytes from the stack.
  template <typename T>
  void PutLe(T v) {
    uint8_t le[sizeof(T)];
    StoreLe(le, v);
    buf_.insert(buf_.end(), le, le + sizeof(T));
  }

  Bytes buf_;
};

/// Status-returning decoder for ByteWriter encodings.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  /// Reads a length-prefixed byte string.
  Result<Bytes> GetBytes();
  /// Reads a length-prefixed string.
  Result<std::string> GetString();
  /// Reads exactly `len` raw bytes.
  Result<Bytes> GetRaw(size_t len);

  /// True when every byte has been consumed.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n) const;

  const Bytes& data_;
  size_t pos_ = 0;
};

}  // namespace ac3

#endif  // AC3_COMMON_BYTES_H_
