// Transactions: the paper's asset transactional model (Section 2.3).
//
// A transaction "takes one or more input assets owned by one identity and
// results in one or more output assets" — i.e. a UTXO model with merge and
// split (the paper's Figure 2). Two additional transaction types carry the
// smart-contract machinery of Section 2.3: contract deployment (with an
// optional locked msg.value) and contract function calls.
//
// Every transaction is a digital signature over its canonical encoding;
// miners validate that the signer owns all inputs and that value is
// conserved (inputs = outputs + fee + locked value).

#ifndef AC3_CHAIN_TRANSACTION_H_
#define AC3_CHAIN_TRANSACTION_H_

#include <atomic>
#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chain/params.h"
#include "src/common/bytes.h"
#include "src/crypto/hash256.h"
#include "src/crypto/schnorr.h"

namespace ac3::chain {

/// Reference to a prior transaction output (an unspent asset).
struct OutPoint {
  crypto::Hash256 tx_id;
  uint32_t index = 0;

  auto operator<=>(const OutPoint&) const = default;

  /// Wire order: the id raw, then the index.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.tx_id, self.index);
  }
};

/// One output asset: a value owned by an identity (public key).
struct TxOutput {
  Amount value = 0;
  crypto::PublicKey owner;

  auto operator<=>(const TxOutput&) const = default;

  /// Wire order: the value, then the owner.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.value, self.owner);
  }
};

enum class TxType : uint8_t {
  kCoinbase = 1,  ///< Miner reward; first transaction of a block.
  kTransfer = 2,  ///< Plain asset merge/split transfer (Figure 2).
  kDeploy = 3,    ///< Smart-contract deployment ("publishing").
  kCall = 4,      ///< Smart-contract function invocation.
};

const char* TxTypeName(TxType type);

/// TxType's wire values, for the codec's enum rule.
constexpr EnumRange<TxType> WireRange(TxType) {
  return {TxType::kCoinbase, TxType::kCall};
}

/// The editable form of a transaction (Bitcoin Core's
/// CMutableTransaction). Builders fill its fields and sign it: wallets,
/// the workload generator, genesis and coinbase construction; tests tamper
/// in this form too. Sealing it into a Transaction fixes the id.
///
/// For kDeploy, `contract_kind` selects the contract class and `payload`
/// carries the constructor arguments; `contract_value` is msg.value, locked
/// in the contract. For kCall, `contract_id` targets a deployed contract
/// and `function`/`payload` name the invocation.
struct MutableTransaction {
  TxType type = TxType::kTransfer;
  ChainId chain_id = 0;
  std::vector<OutPoint> inputs;
  std::vector<TxOutput> outputs;
  Amount fee = 0;
  /// Owner of every input and msg.sender of contract operations.
  crypto::PublicKey signer;
  /// Uniquifier so otherwise-identical transactions get distinct ids.
  uint64_t nonce = 0;

  // Contract fields (kDeploy / kCall).
  std::string contract_kind;
  crypto::Hash256 contract_id;
  std::string function;
  Bytes payload;
  Amount contract_value = 0;

  crypto::Signature signature;

  /// Wire order of the fields the signature covers: all but the
  /// signature, in declaration order.
  template <typename Self, typename Codec>
  static void SignedFields(Self& self, Codec& codec) {
    codec(self.type, self.chain_id, self.inputs, self.outputs, self.fee,
          self.signer, self.nonce, self.contract_kind, self.contract_id,
          self.function, self.payload, self.contract_value);
  }
  /// Wire order: the signed fields, then the signature.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    SignedFields(self, codec);
    codec(self.signature);
  }

  /// Canonical bytes covered by the signature: the "ac3/tx" domain tag,
  /// then the signed fields.
  Bytes SigningPayload() const;

  /// Signs with `key` and records the signer public key.
  void SignWith(const crypto::KeyPair& key);
};

/// A sealed, immutable transaction (Bitcoin Core's CTransaction). The
/// constructor encodes and hashes once, so Id() and EncodedSize() read
/// stored values.
/// Fields and id sit behind one shared const representation: copying a
/// Transaction (into the mempool, into each racing miner's block, into the
/// stored BlockEntry) is a reference-count increment. It has no move
/// operations, so a move copies and the source stays a valid transaction.
///
/// The representation also memoizes the signature verdict, so a
/// transaction verifies once however many copies check it: block
/// validation skips the Verify that selection from the mempool already
/// ran on the same rep (Bitcoin Core's signature cache, within one
/// process). The memo belongs to the rep, not to the id: a decoded
/// transaction, or one sealed from a ToMutable edit, is a new rep and
/// verifies again, so bytes from outside are never trusted on an id
/// match.
class Transaction {
 public:
  /// The sealed default MutableTransaction, one instance shared by every
  /// default-constructed Transaction: a placeholder for a slot a builder
  /// fills later.
  Transaction();
  explicit Transaction(MutableTransaction tx);
  Transaction(const Transaction&) = default;
  Transaction& operator=(const Transaction&) = default;

  /// Decodes a MutableTransaction canonically and seals it, so every
  /// accepted `encoded` has Id() == Hash256::Of(encoded).
  static Result<Transaction> Decode(const Bytes& encoded);

  /// Wire form: the sealed MutableTransaction's fields. Encode only;
  /// Decode above decodes a MutableTransaction and seals it.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.rep_->tx);
  }

  TxType type() const { return rep_->tx.type; }
  ChainId chain_id() const { return rep_->tx.chain_id; }
  const std::vector<OutPoint>& inputs() const { return rep_->tx.inputs; }
  const std::vector<TxOutput>& outputs() const { return rep_->tx.outputs; }
  Amount fee() const { return rep_->tx.fee; }
  const crypto::PublicKey& signer() const { return rep_->tx.signer; }
  uint64_t nonce() const { return rep_->tx.nonce; }
  const std::string& contract_kind() const { return rep_->tx.contract_kind; }
  const crypto::Hash256& contract_id() const { return rep_->tx.contract_id; }
  const std::string& function() const { return rep_->tx.function; }
  const Bytes& payload() const { return rep_->tx.payload; }
  Amount contract_value() const { return rep_->tx.contract_value; }
  const crypto::Signature& signature() const { return rep_->tx.signature; }

  /// Transaction id: SHA-256 of the full encoding, computed at sealing.
  const crypto::Hash256& Id() const { return rep_->id; }
  /// The encoding's size, recorded at sealing: the wire size, without
  /// encoding again.
  size_t EncodedSize() const { return rep_->encoded_size; }

  Bytes SigningPayload() const { return rep_->tx.SigningPayload(); }
  /// Verifies the signature against `signer` on the first call on this
  /// rep and returns the stored verdict after. Coinbases are unsigned.
  /// Safe to call from several threads at once.
  bool VerifySignature() const;

  /// A copy to edit; sealing the edit yields a new transaction.
  MutableTransaction ToMutable() const { return rep_->tx; }

 private:
  enum Verdict : uint8_t { kUnknown, kValid, kInvalid };

  struct Rep {
    Rep(MutableTransaction tx_in, const crypto::Hash256& id_in,
        uint32_t encoded_size_in)
        : tx(std::move(tx_in)), id(id_in), encoded_size(encoded_size_in) {}

    MutableTransaction tx;
    crypto::Hash256 id;
    /// 32 bits, like the gossip payload's tx_bytes; it fills padding the
    /// verdict leaves, so the rep is no larger than without it.
    uint32_t encoded_size;
    /// VerifySignature's memo. Racing first calls each verify and store
    /// the same verdict.
    mutable std::atomic<uint8_t> verdict{kUnknown};
  };
  std::shared_ptr<const Rep> rep_;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_TRANSACTION_H_
