// Blocks and block headers.
//
// The header commits to the transaction list and the receipt list via two
// Merkle roots and carries the proof-of-work fields. Header hashes use
// double SHA-256 (Bitcoin convention). Headers are what light-client
// evidence ships across chains (Section 4.3), so they encode/decode
// canonically.

#ifndef AC3_CHAIN_BLOCK_H_
#define AC3_CHAIN_BLOCK_H_

#include <vector>

#include "src/chain/params.h"
#include "src/chain/receipt.h"
#include "src/chain/transaction.h"
#include "src/common/sim_time.h"
#include "src/crypto/hash256.h"

namespace ac3::chain {

struct BlockHeader {
  ChainId chain_id = 0;
  uint64_t height = 0;
  crypto::Hash256 prev_hash;
  crypto::Hash256 tx_root;
  crypto::Hash256 receipt_root;
  /// Simulated mining timestamp.
  TimePoint time = 0;
  /// Required leading zero bits of Hash() (copied from chain params).
  uint32_t difficulty_bits = 0;
  uint64_t nonce = 0;

  /// Canonical encoding is fixed-width: 4 + 8 + 3*32 + 8 + 4 + 8 bytes,
  /// with the nonce as the final 8 bytes (what HeaderHasher varies).
  /// Hashing and proof-of-work write it into a stack buffer of this size
  /// with EncodeInto.
  static constexpr size_t kEncodedSize = 128;

  /// Wire order: the fields in declaration order, all fixed-width.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.chain_id, self.height, self.prev_hash, self.tx_root,
          self.receipt_root, self.time, self.difficulty_bits, self.nonce);
  }

  /// Double SHA-256 of the encoding — the block id and the PoW subject.
  crypto::Hash256 Hash() const;

  auto operator<=>(const BlockHeader&) const = default;
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> txs;
  std::vector<Receipt> receipts;

  /// Merkle roots over the current txs / receipts lists.
  crypto::Hash256 ComputeTxRoot() const;
  crypto::Hash256 ComputeReceiptRoot() const;

  /// Leaf hash vectors (exposed so evidence builders can produce proofs).
  std::vector<crypto::Hash256> TxLeaves() const;
  std::vector<crypto::Hash256> ReceiptLeaves() const;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_BLOCK_H_
