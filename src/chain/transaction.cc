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

/// The bytes the signature covers: the domain tag, then the signed fields.
struct SigningView {
  const MutableTransaction& tx;

  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(std::string_view("ac3/tx"));
    MutableTransaction::SignedFields(self.tx, codec);
  }
};

}  // namespace

Bytes MutableTransaction::SigningPayload() const {
  return Encode(SigningView{*this});
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
  const Bytes encoded = Encode(tx);
  rep_ = std::make_shared<const Rep>(std::move(tx),
                                     crypto::Hash256::Of(encoded),
                                     static_cast<uint32_t>(encoded.size()));
}

Result<Transaction> Transaction::Decode(const Bytes& encoded) {
  AC3_ASSIGN_OR_RETURN(MutableTransaction tx,
                       ac3::Decode<MutableTransaction>(encoded));
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
