#include "src/crypto/hash256.h"

#include "src/crypto/sha256.h"

namespace ac3::crypto {

Hash256 Hash256::Of(std::span<const uint8_t> input) {
  return Hash256(Sha256::Digest(input));
}

Hash256 Hash256::OfString(const std::string& input) {
  return Of(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(input.data()), input.size()));
}

Hash256 Hash256::DoubleOf(std::span<const uint8_t> input) {
  auto first = Sha256::Digest(input);
  Sha256 h;
  h.Update(first.data(), first.size());
  return Hash256(h.Finish());
}

Hash256 Hash256::OfPair(const Hash256& left, const Hash256& right) {
  Sha256 h;
  h.Update(left.bytes(), kSize);
  h.Update(right.bytes(), kSize);
  return Hash256(h.Finish());
}

Result<Hash256> Hash256::FromHex(const std::string& hex) {
  AC3_ASSIGN_OR_RETURN(Bytes raw, ::ac3::FromHex(hex));
  if (raw.size() != kSize) {
    return Status::InvalidArgument("Hash256 hex must be 64 characters");
  }
  std::array<uint8_t, kSize> data;
  std::memcpy(data.data(), raw.data(), kSize);
  return Hash256(data);
}

bool Hash256::IsZero() const {
  for (uint8_t b : data_) {
    if (b != 0) return false;
  }
  return true;
}

std::string Hash256::ToHex() const { return ::ac3::ToHex(data_.data(), kSize); }

std::string Hash256::ShortHex() const { return ToHex().substr(0, 8); }

}  // namespace ac3::crypto
