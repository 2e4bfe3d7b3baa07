#include "src/crypto/merkle.h"

namespace ac3::crypto {

namespace {

/// One place owns the pairing rule: with an odd node count the last node
/// is paired with itself (Bitcoin convention). Used by both the full tree
/// build and the root-only fold so they can never disagree.
std::vector<Hash256> NextLevel(const std::vector<Hash256>& prev) {
  std::vector<Hash256> next;
  next.reserve((prev.size() + 1) / 2);
  for (size_t i = 0; i < prev.size(); i += 2) {
    const Hash256& left = prev[i];
    const Hash256& right = (i + 1 < prev.size()) ? prev[i + 1] : prev[i];
    next.push_back(Hash256::OfPair(left, right));
  }
  return next;
}

}  // namespace

MerkleTree::MerkleTree(std::vector<Hash256> leaves) {
  if (leaves.empty()) {
    root_ = Hash256();
    return;
  }
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    levels_.push_back(NextLevel(levels_.back()));
  }
  root_ = levels_.back()[0];
}

Result<MerkleProof> MerkleTree::Prove(size_t index) const {
  if (levels_.empty() || index >= levels_[0].size()) {
    return Status::OutOfRange("merkle leaf index out of range");
  }
  MerkleProof proof;
  proof.leaf_index = static_cast<uint32_t>(index);
  size_t pos = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const std::vector<Hash256>& nodes = levels_[level];
    MerkleStep step;
    if (pos % 2 == 0) {
      // Sibling on the right (or self-pair when last odd node).
      step.sibling = (pos + 1 < nodes.size()) ? nodes[pos + 1] : nodes[pos];
      step.sibling_on_left = false;
    } else {
      step.sibling = nodes[pos - 1];
      step.sibling_on_left = true;
    }
    proof.path.push_back(step);
    pos /= 2;
  }
  return proof;
}

Hash256 MerkleTree::RootOf(const std::vector<Hash256>& leaves) {
  // Root-only fold: keep just the current level instead of storing every
  // level of the tree.
  if (leaves.empty()) return Hash256();
  std::vector<Hash256> level = leaves;
  while (level.size() > 1) level = NextLevel(level);
  return level[0];
}

Hash256 RootFromProof(const Hash256& leaf, const MerkleProof& proof) {
  Hash256 acc = leaf;
  for (const MerkleStep& step : proof.path) {
    acc = step.sibling_on_left ? Hash256::OfPair(step.sibling, acc)
                               : Hash256::OfPair(acc, step.sibling);
  }
  return acc;
}

bool VerifyMerkleProof(const Hash256& leaf, const MerkleProof& proof,
                       const Hash256& expected_root) {
  return RootFromProof(leaf, proof) == expected_root;
}

}  // namespace ac3::crypto
