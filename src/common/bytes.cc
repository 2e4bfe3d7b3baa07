#include "src/common/bytes.h"

namespace ac3 {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string ToHex(const uint8_t* data, size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0x0f]);
  }
  return out;
}

std::string ToHex(const Bytes& data) { return ToHex(data.data(), data.size()); }

Result<Bytes> FromHex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

void AppendBytes(Bytes* dst, const Bytes& suffix) {
  dst->insert(dst->end(), suffix.begin(), suffix.end());
}

Status ByteReader::Need(size_t n) const {
  if (pos_ + n > data_.size()) {
    return Status::OutOfRange("buffer underrun while decoding");
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::GetU8() {
  AC3_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> ByteReader::GetU16() {
  AC3_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::GetU32() {
  AC3_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  AC3_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::GetI64() {
  AC3_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<Bytes> ByteReader::GetBytes() {
  AC3_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  return GetRaw(len);
}

Result<std::string> ByteReader::GetString() {
  AC3_ASSIGN_OR_RETURN(Bytes b, GetBytes());
  return std::string(b.begin(), b.end());
}

Result<Bytes> ByteReader::GetRaw(size_t len) {
  AC3_RETURN_IF_ERROR(Need(len));
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + len);
  pos_ += len;
  return out;
}

}  // namespace ac3
