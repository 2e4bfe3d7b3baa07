#include "src/chain/receipt.h"

namespace ac3::chain {

Bytes Receipt::Encode() const {
  ByteWriter w;
  w.Reserve(2 * crypto::Hash256::kSize + 1 + 4 + state_digest.size() + 4 +
            note.size());
  w.PutRaw(tx_id.bytes(), crypto::Hash256::kSize);
  w.PutU8(success ? 1 : 0);
  w.PutRaw(contract_id.bytes(), crypto::Hash256::kSize);
  w.PutBytes(state_digest);
  w.PutString(note);
  return w.Take();
}

Result<Receipt> Receipt::Decode(const Bytes& encoded) {
  ByteReader r(encoded);
  Receipt receipt;
  AC3_ASSIGN_OR_RETURN(Bytes tx_raw, r.GetRaw(crypto::Hash256::kSize));
  std::array<uint8_t, crypto::Hash256::kSize> arr{};
  std::copy(tx_raw.begin(), tx_raw.end(), arr.begin());
  receipt.tx_id = crypto::Hash256(arr);
  AC3_ASSIGN_OR_RETURN(uint8_t success, r.GetU8());
  if (success > 1) return Status::InvalidArgument("receipt flag not 0 or 1");
  receipt.success = success == 1;
  AC3_ASSIGN_OR_RETURN(Bytes contract_raw, r.GetRaw(crypto::Hash256::kSize));
  std::copy(contract_raw.begin(), contract_raw.end(), arr.begin());
  receipt.contract_id = crypto::Hash256(arr);
  AC3_ASSIGN_OR_RETURN(receipt.state_digest, r.GetBytes());
  AC3_ASSIGN_OR_RETURN(receipt.note, r.GetString());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after receipt");
  }
  return receipt;
}

crypto::Hash256 Receipt::LeafHash() const {
  return crypto::Hash256::Of(Encode());
}

}  // namespace ac3::chain
