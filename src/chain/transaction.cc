#include "src/chain/transaction.h"

namespace ac3::chain {

const char* TxTypeName(TxType type) {
  switch (type) {
    case TxType::kCoinbase:
      return "coinbase";
    case TxType::kTransfer:
      return "transfer";
    case TxType::kDeploy:
      return "deploy";
    case TxType::kCall:
      return "call";
  }
  return "?";
}

namespace {

/// The signing payload's domain tag, and the bytes PutString writes for
/// it.
constexpr char kSigningTag[] = "ac3/tx";
constexpr size_t kSigningTagSize = 4 + sizeof(kSigningTag) - 1;

/// Bytes EncodeCore writes for `tx`.
size_t CoreSize(const MutableTransaction& tx) {
  constexpr size_t kInput = crypto::Hash256::kSize + 4;
  constexpr size_t kOutput = 8 + crypto::PublicKey::kEncodedSize;
  return 1 + 4 + 4 + tx.inputs.size() * kInput + 4 +
         tx.outputs.size() * kOutput + 8 + crypto::PublicKey::kEncodedSize +
         8 + 4 + tx.contract_kind.size() + crypto::Hash256::kSize + 4 +
         tx.function.size() + 4 + tx.payload.size() + 8;
}

/// Everything but the signature. The caller reserves CoreSize(tx) plus
/// whatever it writes around it, so the buffer is allocated once.
void EncodeCore(const MutableTransaction& tx, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(tx.type));
  w->PutU32(tx.chain_id);
  w->PutU32(static_cast<uint32_t>(tx.inputs.size()));
  for (const OutPoint& in : tx.inputs) {
    w->PutRaw(in.tx_id.bytes(), crypto::Hash256::kSize);
    w->PutU32(in.index);
  }
  w->PutU32(static_cast<uint32_t>(tx.outputs.size()));
  for (const TxOutput& out : tx.outputs) {
    w->PutU64(out.value);
    out.owner.EncodeTo(w);
  }
  w->PutU64(tx.fee);
  tx.signer.EncodeTo(w);
  w->PutU64(tx.nonce);
  w->PutString(tx.contract_kind);
  w->PutRaw(tx.contract_id.bytes(), crypto::Hash256::kSize);
  w->PutString(tx.function);
  w->PutBytes(tx.payload);
  w->PutU64(tx.contract_value);
}

Result<crypto::Hash256> ReadHash(ByteReader* r) {
  AC3_ASSIGN_OR_RETURN(Bytes raw, r->GetRaw(crypto::Hash256::kSize));
  std::array<uint8_t, crypto::Hash256::kSize> arr{};
  std::copy(raw.begin(), raw.end(), arr.begin());
  return crypto::Hash256(arr);
}

}  // namespace

Bytes MutableTransaction::SigningPayload() const {
  ByteWriter w;
  w.Reserve(kSigningTagSize + CoreSize(*this));
  w.PutString(kSigningTag);
  EncodeCore(*this, &w);
  return w.Take();
}

Bytes MutableTransaction::Encode() const {
  ByteWriter w;
  w.Reserve(CoreSize(*this) + crypto::Signature::kEncodedSize);
  EncodeCore(*this, &w);
  signature.EncodeTo(&w);
  return w.Take();
}

void MutableTransaction::SignWith(const crypto::KeyPair& key) {
  signer = key.public_key();
  signature = key.Sign(SigningPayload());
}

Transaction::Transaction() {
  static const std::shared_ptr<const Rep> kDefault =
      Transaction(MutableTransaction()).rep_;
  rep_ = kDefault;
}

Transaction::Transaction(MutableTransaction tx) {
  // The one place a transaction is encoded whole to be hashed: its id and
  // encoded size are stored.
  const Bytes encoded = tx.Encode();
  rep_ = std::make_shared<const Rep>(std::move(tx),
                                     crypto::Hash256::Of(encoded),
                                     static_cast<uint32_t>(encoded.size()));
}

Result<Transaction> Transaction::Decode(const Bytes& encoded) {
  ByteReader r(encoded);
  MutableTransaction tx;
  AC3_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (type < 1 || type > 4) {
    return Status::InvalidArgument("unknown transaction type");
  }
  tx.type = static_cast<TxType>(type);
  AC3_ASSIGN_OR_RETURN(tx.chain_id, r.GetU32());
  AC3_ASSIGN_OR_RETURN(uint32_t n_in, r.GetU32());
  for (uint32_t i = 0; i < n_in; ++i) {
    OutPoint in;
    AC3_ASSIGN_OR_RETURN(in.tx_id, ReadHash(&r));
    AC3_ASSIGN_OR_RETURN(in.index, r.GetU32());
    tx.inputs.push_back(in);
  }
  AC3_ASSIGN_OR_RETURN(uint32_t n_out, r.GetU32());
  for (uint32_t i = 0; i < n_out; ++i) {
    TxOutput out;
    AC3_ASSIGN_OR_RETURN(out.value, r.GetU64());
    AC3_ASSIGN_OR_RETURN(out.owner, crypto::PublicKey::Decode(&r));
    tx.outputs.push_back(out);
  }
  AC3_ASSIGN_OR_RETURN(tx.fee, r.GetU64());
  AC3_ASSIGN_OR_RETURN(tx.signer, crypto::PublicKey::Decode(&r));
  AC3_ASSIGN_OR_RETURN(tx.nonce, r.GetU64());
  AC3_ASSIGN_OR_RETURN(tx.contract_kind, r.GetString());
  AC3_ASSIGN_OR_RETURN(tx.contract_id, ReadHash(&r));
  AC3_ASSIGN_OR_RETURN(tx.function, r.GetString());
  AC3_ASSIGN_OR_RETURN(tx.payload, r.GetBytes());
  AC3_ASSIGN_OR_RETURN(tx.contract_value, r.GetU64());
  AC3_ASSIGN_OR_RETURN(tx.signature, crypto::Signature::Decode(&r));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after transaction");
  }
  return Transaction(std::move(tx));
}

bool Transaction::VerifySignature() const {
  if (type() == TxType::kCoinbase) return true;
  const uint8_t known = rep_->verdict.load();
  if (known != kUnknown) return known == kValid;
  const bool valid = crypto::Verify(signer(), SigningPayload(), signature());
  rep_->verdict.store(valid ? kValid : kInvalid);
  return valid;
}

}  // namespace ac3::chain
