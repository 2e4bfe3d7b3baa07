// Execution receipts: the verifiable record of a contract state change.
//
// Each block carries one receipt per transaction, committed by a dedicated
// Merkle root in the header (receipt_root). A receipt records whether the
// contract operation succeeded and the contract's state digest afterwards.
// Receipts are what cross-chain evidence proves (Section 4.3): "SCw's state
// is RDauth" becomes "a successful receipt whose state digest encodes
// RDauth is included in a witness-chain block buried under d blocks".
//
// Block validation checks each declared receipt against the one
// re-execution derives by value (operator==), not by encoding both. The
// two checks agree: the field list holds all five fields, each
// fixed-width or length-prefixed, so two receipts encode equally exactly
// when every field is equal (tests/chain_test.cc and
// tests/encoding_test.cc pin both the equivalence and the bytes).

#ifndef AC3_CHAIN_RECEIPT_H_
#define AC3_CHAIN_RECEIPT_H_

#include <string>

#include "src/common/bytes.h"
#include "src/crypto/hash256.h"

namespace ac3::chain {

struct Receipt {
  crypto::Hash256 tx_id;
  /// True when the operation's `requires(...)` guards all held.
  bool success = true;
  /// Target contract (zero hash for plain transfers / coinbases).
  crypto::Hash256 contract_id;
  /// Canonical digest of the contract state *after* this transaction (the
  /// pre-state when success is false). Empty for non-contract txs.
  Bytes state_digest;
  /// Human-readable note for logs ("redeemed", "guard failed: ...").
  std::string note;

  /// Field-wise; equal exactly when the encodings are equal.
  bool operator==(const Receipt&) const = default;

  /// Wire order: the fields in declaration order, the hashes raw,
  /// `success` as a bool byte, `state_digest` and `note` length-prefixed.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.tx_id, self.success, self.contract_id, self.state_digest,
          self.note);
  }

  /// Merkle leaf for the receipt tree.
  crypto::Hash256 LeafHash() const;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_RECEIPT_H_
