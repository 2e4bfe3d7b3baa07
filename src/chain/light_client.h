// A light node of a foreign blockchain — the second of Section 4.3's three
// cross-chain validation techniques.
//
// "A light node ... downloads only the block headers of a blockchain,
//  verifies the proof of work of these block headers, and downloads only
//  the blockchain branches that are associated with the transactions of
//  interest."
//
// The client ingests headers (in any order), verifies PoW and linkage,
// tracks the heaviest header chain, and answers inclusion queries from
// Merkle proofs served by full nodes. It stores O(headers) — no bodies, no
// UTXO set — which is the technique's advantage over full replication and
// its disadvantage versus the relay-contract approach (one checkpoint +
// per-query evidence) that the paper ultimately adopts; the ablation
// benchmark quantifies both.

#ifndef AC3_CHAIN_LIGHT_CLIENT_H_
#define AC3_CHAIN_LIGHT_CLIENT_H_

#include <optional>
#include <unordered_map>

#include "src/chain/block.h"
#include "src/chain/blockchain.h"
#include "src/crypto/merkle.h"

namespace ac3::chain {

/// Header-only view of one foreign chain.
class LightClient {
 public:
  /// `genesis` anchors the client; `difficulty_bits` is the PoW the chain's
  /// consensus demands of every header.
  LightClient(BlockHeader genesis, uint32_t difficulty_bits);

  /// Validates and stores one header: its parent must be known, and the
  /// header must extend it under the consensus difficulty (CheckHeaderLink).
  /// The head follows ForkChoicePrefers. Duplicates are accepted
  /// idempotently. Orphans (unknown parent) are NotFound — feed headers
  /// oldest-first.
  Status AcceptHeader(const BlockHeader& header);

  /// Convenience: accept a batch oldest-first, stopping at the first error.
  Status AcceptHeaders(const std::vector<BlockHeader>& headers);

  /// Syncs from a full node's canonical chain (what a real light client
  /// does over the P2P network).
  Status SyncFrom(const Blockchain& full_node);

  /// The heaviest known tip (ties broken by first arrival).
  const BlockHeader& head() const;
  uint64_t height() const { return head().height; }
  size_t header_count() const { return headers_.size(); }

  /// True when `hash` is on the heaviest known header chain.
  bool IsCanonical(const crypto::Hash256& hash) const;

  /// Confirmations of a canonical header: head height - header height.
  std::optional<uint64_t> ConfirmationsOf(const crypto::Hash256& hash) const;

  /// The light-client inclusion check: does `tx_root_leaf` (a transaction
  /// id as Merkle leaf) belong to the block `block_hash` under `proof`,
  /// with that block canonical and buried under >= `min_confirmations`?
  /// This is what "downloads only the branches associated with the
  /// transactions of interest" amounts to: the full node serves the proof,
  /// the light client verifies it against its header store.
  Status VerifyInclusion(const crypto::Hash256& block_hash,
                         const crypto::Hash256& tx_root_leaf,
                         const crypto::MerkleProof& proof,
                         uint64_t min_confirmations) const;

 private:
  struct Entry {
    BlockHeader header;
    double total_work = 0;
    uint64_t arrival_seq = 0;
  };

  uint32_t difficulty_bits_;
  std::unordered_map<crypto::Hash256, Entry> headers_;
  crypto::Hash256 genesis_hash_;
  crypto::Hash256 head_hash_;
  uint64_t next_arrival_seq_ = 0;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_LIGHT_CLIENT_H_
