#include "src/chain/light_client.h"

#include "src/chain/pow.h"

namespace ac3::chain {

LightClient::LightClient(BlockHeader genesis, uint32_t difficulty_bits)
    : difficulty_bits_(difficulty_bits) {
  Entry entry;
  entry.header = genesis;
  entry.total_work = 0;  // Genesis carries no PoW by convention.
  entry.arrival_seq = next_arrival_seq_++;
  genesis_hash_ = genesis.Hash();
  head_hash_ = genesis_hash_;
  headers_.emplace(genesis_hash_, std::move(entry));
}

Status LightClient::AcceptHeader(const BlockHeader& header) {
  const crypto::Hash256 hash = header.Hash();
  if (headers_.count(hash) > 0) return Status::OK();  // Idempotent.

  auto parent_it = headers_.find(header.prev_hash);
  if (parent_it == headers_.end()) {
    return Status::NotFound("orphan header: unknown parent " +
                            header.prev_hash.ShortHex());
  }
  const Entry& parent = parent_it->second;
  AC3_RETURN_IF_ERROR(CheckHeaderLink(header, parent.header, parent_it->first,
                                      difficulty_bits_));

  Entry entry;
  entry.header = header;
  entry.total_work = parent.total_work + WorkForDifficulty(difficulty_bits_);
  entry.arrival_seq = next_arrival_seq_++;
  const bool new_head = ForkChoicePrefers(entry, headers_.at(head_hash_));
  headers_.emplace(hash, std::move(entry));
  if (new_head) head_hash_ = hash;
  return Status::OK();
}

Status LightClient::AcceptHeaders(const std::vector<BlockHeader>& headers) {
  for (const BlockHeader& header : headers) {
    AC3_RETURN_IF_ERROR(AcceptHeader(header));
  }
  return Status::OK();
}

Status LightClient::SyncFrom(const Blockchain& full_node) {
  AC3_ASSIGN_OR_RETURN(std::vector<BlockHeader> headers,
                       full_node.HeadersAfter(genesis_hash_));
  return AcceptHeaders(headers);
}

const BlockHeader& LightClient::head() const {
  return headers_.at(head_hash_).header;
}

bool LightClient::IsCanonical(const crypto::Hash256& hash) const {
  auto it = headers_.find(hash);
  if (it == headers_.end()) return false;
  // Walk back from the head to the queried height.
  crypto::Hash256 cursor = head_hash_;
  while (true) {
    const Entry& entry = headers_.at(cursor);
    if (entry.header.height < it->second.header.height) return false;
    if (cursor == hash) return true;
    if (cursor == genesis_hash_) return false;
    cursor = entry.header.prev_hash;
  }
}

std::optional<uint64_t> LightClient::ConfirmationsOf(
    const crypto::Hash256& hash) const {
  if (!IsCanonical(hash)) return std::nullopt;
  return head().height - headers_.at(hash).header.height;
}

Status LightClient::VerifyInclusion(const crypto::Hash256& block_hash,
                                    const crypto::Hash256& tx_root_leaf,
                                    const crypto::MerkleProof& proof,
                                    uint64_t min_confirmations) const {
  auto confirmations = ConfirmationsOf(block_hash);
  if (!confirmations.has_value()) {
    return Status::NotFound("block is not on the canonical header chain");
  }
  if (*confirmations < min_confirmations) {
    return Status::VerificationFailed(
        "block not buried deep enough: " + std::to_string(*confirmations) +
        " < " + std::to_string(min_confirmations));
  }
  if (!crypto::VerifyMerkleProof(tx_root_leaf, proof,
                                 headers_.at(block_hash).header.tx_root)) {
    return Status::VerificationFailed("Merkle proof does not bind the leaf");
  }
  return Status::OK();
}

}  // namespace ac3::chain
