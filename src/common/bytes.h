// Byte strings and the canonical wire codec.
//
// Every hashed, signed or shipped structure (keys and signatures, block
// headers, transactions, receipts, Merkle proofs, AC2T graphs, ms(D),
// contract payloads, cross-chain evidence, protocol messages) declares its
// wire format once, as a field list in wire order, in the shape of
// Bitcoin Core's SERIALIZE_METHODS / READWRITE:
//
//   template <typename Self, typename Codec>
//   static void Fields(Self& self, Codec& codec) {
//     codec(self.a, self.b, Nested(self.c));
//   }
//
// `Self` is `const T` when the list is written or counted and `T` when it
// is read, so the encoder (Encode), the exact size (EncodedSize) and the
// canonical decoder (Decode) all come from that one list. This header
// holds each format rule once, its write half in ByteWriter::Put and its
// read half in ByteReader::Get:
//
//   - integers: fixed-width little-endian; bool: one byte, 0 or 1;
//   - enums: their underlying integer, within the EnumRange the enum
//     declares through a WireRange(E) overload beside it;
//   - std::array<uint8_t, N> (a Hash256's bytes): the N bytes, raw;
//   - std::string, std::string_view and Bytes: a u32 length, the bytes;
//   - std::vector<T>: a u32 count, then each element;
//   - Nested(x): x's encoding behind a u32 byte length, which it must fill
//     exactly; NestedEach(v): a u32 count, then each element Nested;
//   - VariantIndex(v): one byte, the active alternative's index + 1;
//     std::variant: the active alternative's fields;
//   - any other type: its Fields.
//
// One encoding per value: decoding rejects a short buffer, a bool byte
// other than 0 or 1, an enum or variant index out of range, a nested
// encoding that does not fill its prefix and, in Decode (the one
// top-level decode), trailing bytes. A field list adds a check of meaning
// (a type tag, a signature) with codec.Check, which runs only when
// decoding.
//
// Writing is on every transaction's sign, seal and verify path, so it
// costs little: Encode counts the fields' bytes first, allocates the
// buffer once at that exact size, and stores each fixed-width field with
// one StoreLe. EncodeInto writes a fixed-width format (the block header)
// into a caller's stack buffer from the same field list, with no
// allocation.

#ifndef AC3_COMMON_BYTES_H_
#define AC3_COMMON_BYTES_H_

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
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

/// Stores `v` little-endian at `out` and returns the byte after it: the one
/// fixed-width layout, shared by ByteWriter and by the Schnorr hash
/// prefixes, which write into fixed buffers.
template <typename T>
inline uint8_t* StoreLe(uint8_t* out, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(T));  // One store of the native bytes.
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
  return out + sizeof(T);
}

/// The first and last wire values of an enum field. An enum the codec
/// reads declares them with a `WireRange(E)` overload beside it, found by
/// argument-dependent lookup; decoding rejects a value outside.
template <typename E>
struct EnumRange {
  E first;  ///< Lowest accepted value.
  E last;   ///< Highest accepted value.
};

/// Field-list rule: `value`'s encoding behind a u32 byte length, which a
/// decode must fill exactly. Built by Nested().
template <typename T>
struct NestedField {
  T& value;  ///< The wrapped field.
};

/// Wraps `value` as a length-prefixed nested encoding.
template <typename T>
NestedField<T> Nested(T& value) {
  return {value};
}

/// Field-list rule: a u32 count, then each element of `values` Nested.
/// Built by NestedEach().
template <typename T>
struct NestedEachField {
  T& values;  ///< The wrapped std::vector.
};

/// Wraps the vector `values` as a count of length-prefixed elements.
template <typename T>
NestedEachField<T> NestedEach(T& values) {
  return {values};
}

/// Field-list rule: one byte, the index + 1 of `variant`'s active
/// alternative. Decoding checks the range and selects that alternative,
/// which a later field naming the variant itself then reads. Built by
/// VariantIndex().
template <typename V>
struct VariantIndexField {
  V& variant;  ///< The wrapped std::variant.
};

/// Wraps `variant` as its one-byte alternative tag.
template <typename V>
VariantIndexField<V> VariantIndex(V& variant) {
  return {variant};
}

/// Traits the codec dispatches on.
namespace codec_internal {

/// True for std::array<uint8_t, N>: N raw bytes.
template <typename T>
inline constexpr bool kIsByteArray = false;
/// The std::array<uint8_t, N> case.
template <size_t N>
inline constexpr bool kIsByteArray<std::array<uint8_t, N>> = true;

/// True for std::vector<T>: a u32 count, then each element.
template <typename T>
inline constexpr bool kIsVector = false;
/// The std::vector case.
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// True for std::variant: the active alternative.
template <typename T>
inline constexpr bool kIsVariant = false;
/// The std::variant case.
template <typename... Ts>
inline constexpr bool kIsVariant<std::variant<Ts...>> = true;

/// True when T is the field-list rule W<U> for some U.
template <typename T, template <typename> class W>
inline constexpr bool kIs = false;
/// The W<U> case.
template <typename T, template <typename> class W>
inline constexpr bool kIs<W<T>, W> = true;

/// True for the text types: a u32 length, then the characters.
template <typename T>
inline constexpr bool kIsText =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view>;

}  // namespace codec_internal

/// Writes field lists: at a buffer the caller sized with EncodedSize or,
/// built without one, only counting their bytes, so one walk of a list
/// gives both the size and the bytes.
class ByteWriter {
 public:
  /// Counts bytes, writing none.
  ByteWriter() = default;
  /// Writes at `out`, which must have room for every field written.
  explicit ByteWriter(uint8_t* out) : out_(out) {}

  /// Writes `fields` in order.
  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (Put(fields), ...);
  }

  /// A field list's check of meaning runs only when decoding: a no-op.
  template <typename F>
  void Check(F&&) {}

  /// Bytes written (or counted) so far.
  size_t size() const { return pos_; }

 private:
  void PutRaw(const uint8_t* data, size_t n) {
    if (out_ != nullptr && n > 0) std::memcpy(out_ + pos_, data, n);
    pos_ += n;
  }

  template <typename T>
  void Put(const T& v) {
    using namespace codec_internal;
    if constexpr (std::is_same_v<T, bool>) {
      Put(static_cast<uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_enum_v<T>) {
      Put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      if (out_ != nullptr) {
        StoreLe(out_ + pos_, static_cast<std::make_unsigned_t<T>>(v));
      }
      pos_ += sizeof(T);
    } else if constexpr (kIsByteArray<T>) {
      PutRaw(v.data(), v.size());
    } else if constexpr (kIsText<T> || std::is_same_v<T, Bytes>) {
      Put(static_cast<uint32_t>(v.size()));
      PutRaw(reinterpret_cast<const uint8_t*>(v.data()), v.size());
    } else if constexpr (kIsVector<T>) {
      Put(static_cast<uint32_t>(v.size()));
      for (const auto& element : v) Put(element);
    } else if constexpr (kIs<T, NestedField>) {
      // The length is patched in once the nested fields are written.
      const size_t at = pos_;
      pos_ += sizeof(uint32_t);
      Put(v.value);
      if (out_ != nullptr) {
        StoreLe(out_ + at,
                static_cast<uint32_t>(pos_ - at - sizeof(uint32_t)));
      }
    } else if constexpr (kIs<T, NestedEachField>) {
      Put(static_cast<uint32_t>(v.values.size()));
      for (const auto& element : v.values) Put(Nested(element));
    } else if constexpr (kIs<T, VariantIndexField>) {
      Put(static_cast<uint8_t>(v.variant.index() + 1));
    } else if constexpr (kIsVariant<T>) {
      std::visit([this](const auto& alternative) { Put(alternative); }, v);
    } else {
      T::Fields(v, *this);
    }
  }

  uint8_t* out_ = nullptr;
  size_t pos_ = 0;
};

/// Reads field lists canonically (see the file comment). Every read is
/// bounds-checked; the first failure is kept in status(), and every read
/// after it does nothing.
class ByteReader {
 public:
  /// Reads from `data`, which must outlive the reader.
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  /// Reads `fields` in order.
  template <typename... Ts>
  void operator()(Ts&&... fields) {
    (Get(fields), ...);
  }

  /// A field list's check of meaning: when every field so far decoded,
  /// runs `check()` and fails the decode with the Status it returns.
  template <typename F>
  void Check(F&& check) {
    if (status_.ok()) status_ = check();
  }

  /// Fails the decode unless every byte has been read: the one check
  /// behind both Decode's trailing-bytes rule and Nested's exact fill.
  void ExpectEnd() {
    if (status_.ok() && pos_ != data_.size()) {
      status_ = Status::InvalidArgument("trailing bytes after an encoding");
    }
  }

  /// OK while every read so far succeeded; the first failure after.
  const Status& status() const { return status_; }

 private:
  /// The next `n` bytes, or nullptr (recording the failure) when fewer
  /// remain or an earlier read failed.
  const uint8_t* Take(size_t n) {
    if (!status_.ok()) return nullptr;
    if (n > data_.size() - pos_) {
      status_ = Status::OutOfRange("buffer underrun while decoding");
      return nullptr;
    }
    const uint8_t* at = data_.data() + pos_;
    pos_ += n;
    return at;
  }

  void Fail(const char* what) {
    if (status_.ok()) status_ = Status::InvalidArgument(what);
  }

  /// Selects `variant`'s alternative `index` (in range), default-built.
  template <typename V, size_t... I>
  static void Select(V& variant, size_t index, std::index_sequence<I...>) {
    ((index == I ? (void)variant.template emplace<I>() : (void)0), ...);
  }

  template <typename T>
  void Get(T& v) {
    using namespace codec_internal;
    if constexpr (std::is_same_v<T, bool>) {
      uint8_t raw = 0;
      Get(raw);
      if (raw > 1) Fail("bool byte not 0 or 1");
      v = raw == 1;
    } else if constexpr (std::is_enum_v<T>) {
      using U = std::underlying_type_t<T>;
      U raw = 0;
      Get(raw);
      const EnumRange<T> range = WireRange(T{});
      if (raw < static_cast<U>(range.first) ||
          raw > static_cast<U>(range.last)) {
        Fail("enum value out of range");
      }
      v = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T>) {
      using U = std::make_unsigned_t<T>;
      const uint8_t* at = Take(sizeof(T));
      if (at == nullptr) return;
      U u = 0;
      for (size_t i = 0; i < sizeof(T); ++i) {
        u = static_cast<U>(u | static_cast<U>(at[i]) << (8 * i));
      }
      v = static_cast<T>(u);
    } else if constexpr (kIsByteArray<T>) {
      const uint8_t* at = Take(v.size());
      if (at != nullptr) std::memcpy(v.data(), at, v.size());
    } else if constexpr (std::is_same_v<T, std::string> ||
                         std::is_same_v<T, Bytes>) {
      uint32_t n = 0;
      Get(n);
      const uint8_t* at = Take(n);
      if (at != nullptr) v.assign(at, at + n);
    } else if constexpr (kIsVector<T>) {
      uint32_t n = 0;
      Get(n);
      v.clear();
      for (uint32_t i = 0; i < n && status_.ok(); ++i) Get(v.emplace_back());
    } else if constexpr (kIs<T, NestedField>) {
      uint32_t n = 0;
      Get(n);
      const uint8_t* at = Take(n);
      if (at == nullptr) return;
      ByteReader nested({at, n});
      nested(v.value);
      nested.ExpectEnd();
      status_ = std::move(nested.status_);
    } else if constexpr (kIs<T, NestedEachField>) {
      uint32_t n = 0;
      Get(n);
      v.values.clear();
      for (uint32_t i = 0; i < n && status_.ok(); ++i) {
        auto element = Nested(v.values.emplace_back());
        Get(element);
      }
    } else if constexpr (kIs<T, VariantIndexField>) {
      using V = std::remove_const_t<std::remove_reference_t<decltype(v.variant)>>;
      constexpr size_t kCount = std::variant_size_v<V>;
      uint8_t tag = 0;
      Get(tag);
      if (!status_.ok()) return;
      if (tag < 1 || tag > kCount) return Fail("variant index out of range");
      Select(v.variant, tag - 1, std::make_index_sequence<kCount>());
    } else if constexpr (kIsVariant<T>) {
      std::visit([this](auto& alternative) { Get(alternative); }, v);
    } else {
      T::Fields(v, *this);
    }
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  Status status_;
};

/// The number of bytes `fields` encode to, counted without writing.
template <typename... Ts>
size_t EncodedSize(const Ts&... fields) {
  ByteWriter counter;
  counter(fields...);
  return counter.size();
}

/// The canonical encoding of `fields`, in order, in one allocation of the
/// exact size.
template <typename... Ts>
Bytes Encode(const Ts&... fields) {
  Bytes out(EncodedSize(fields...));
  ByteWriter writer(out.data());
  writer(fields...);
  return out;
}

/// Writes `fields` into `out`, whose N bytes they must fill exactly: the
/// allocation-free path for a fixed-width format.
template <size_t N, typename... Ts>
void EncodeInto(uint8_t (&out)[N], const Ts&... fields) {
  ByteWriter writer(out);
  writer(fields...);
  assert(writer.size() == N);
}

/// Decodes one T from all of `encoded`: the one top-level decode, so the
/// one place that rejects trailing bytes.
template <typename T>
Result<T> Decode(std::span<const uint8_t> encoded) {
  T value{};
  ByteReader reader(encoded);
  reader(value);
  reader.ExpectEnd();
  if (!reader.status().ok()) return reader.status();
  return value;
}

}  // namespace ac3

#endif  // AC3_COMMON_BYTES_H_
