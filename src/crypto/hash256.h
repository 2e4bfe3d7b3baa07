// Hash256: the 32-byte digest value type used for every identifier.
//
// Transaction ids, block hashes, contract ids, addresses, hashlock values
// and Merkle nodes are all Hash256. The type is ordered and hashable so it
// can key std::map / std::unordered_map.

#ifndef AC3_CRYPTO_HASH256_H_
#define AC3_CRYPTO_HASH256_H_

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>

#include "src/common/bytes.h"

namespace ac3::crypto {

/// 32-byte value with lexicographic ordering.
class Hash256 {
 public:
  static constexpr size_t kSize = 32;

  /// Zero-initialized ("null") hash.
  Hash256() { data_.fill(0); }
  explicit Hash256(const std::array<uint8_t, kSize>& data) : data_(data) {}

  /// SHA-256 of `input` (Bytes, arrays, and stack buffers all bind here
  /// without an owning temporary).
  static Hash256 Of(std::span<const uint8_t> input);
  /// SHA-256 of the UTF-8 bytes of `input`.
  static Hash256 OfString(const std::string& input);
  /// Double SHA-256 (Bitcoin-style), used for proof-of-work header hashes.
  static Hash256 DoubleOf(std::span<const uint8_t> input);
  /// SHA-256 of the concatenation of two hashes (Merkle interior nodes).
  static Hash256 OfPair(const Hash256& left, const Hash256& right);
  /// Parses a 64-char hex string.
  static Result<Hash256> FromHex(const std::string& hex);

  const std::array<uint8_t, kSize>& data() const { return data_; }
  const uint8_t* bytes() const { return data_.data(); }

  /// True when every byte is zero.
  bool IsZero() const;

  /// Interprets the first 8 bytes as a big-endian integer — a cheap,
  /// monotone proxy for "numeric value" used by proof-of-work comparisons.
  uint64_t Prefix64() const { return WordAt(0); }

  /// Full lowercase hex.
  std::string ToHex() const;
  /// First 8 hex chars, for logs.
  std::string ShortHex() const;

  /// Wire form: the 32 bytes, raw.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.data_);
  }

  /// Byte-lexicographic order (memcmp's), compared as four big-endian
  /// 64-bit words: every tree probe and sort of ids runs it.
  std::strong_ordering operator<=>(const Hash256& other) const {
    for (size_t at = 0; at < kSize; at += sizeof(uint64_t)) {
      const uint64_t a = WordAt(at);
      const uint64_t b = other.WordAt(at);
      if (a != b) {
        return a < b ? std::strong_ordering::less
                     : std::strong_ordering::greater;
      }
    }
    return std::strong_ordering::equal;
  }
  /// Byte-wise equality.
  bool operator==(const Hash256& other) const {
    return std::memcmp(data_.data(), other.data_.data(), kSize) == 0;
  }

 private:
  /// The 8 bytes at `at` as a big-endian integer, so that integer order
  /// is their byte order.
  uint64_t WordAt(size_t at) const {
    uint64_t word = 0;
    std::memcpy(&word, data_.data() + at, sizeof(word));
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    return word;
  }

  std::array<uint8_t, kSize> data_;
};

}  // namespace ac3::crypto

namespace std {
template <>
struct hash<ac3::crypto::Hash256> {
  size_t operator()(const ac3::crypto::Hash256& h) const noexcept {
    // The value is already uniform; fold the first bytes.
    size_t out;
    std::memcpy(&out, h.bytes(), sizeof(out));
    return out;
  }
};
}  // namespace std

#endif  // AC3_CRYPTO_HASH256_H_
