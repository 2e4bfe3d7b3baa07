// Merkle trees and inclusion proofs (Bitcoin layout).
//
// Each block commits to its transactions via a Merkle root in the header.
// Inclusion proofs are the heart of the paper's Section 4.3: a relay
// contract on the validator chain verifies that a transaction (a smart
// contract deployment or state change) is included in a validated chain's
// block by checking a Merkle path against a header whose proof-of-work it
// has already verified — i.e. SPV light-client validation.

#ifndef AC3_CRYPTO_MERKLE_H_
#define AC3_CRYPTO_MERKLE_H_

#include <vector>

#include "src/common/status.h"
#include "src/crypto/hash256.h"

namespace ac3::crypto {

/// One step of a Merkle path: the sibling digest and which side it is on.
struct MerkleStep {
  Hash256 sibling;
  bool sibling_on_left = false;

  /// Wire order: the sibling, then the side as a bool byte.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.sibling, self.sibling_on_left);
  }
};

/// An inclusion proof for one leaf.
struct MerkleProof {
  uint32_t leaf_index = 0;
  std::vector<MerkleStep> path;

  /// Wire order: the leaf index, then the counted path.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.leaf_index, self.path);
  }
};

/// Merkle tree over a list of leaf digests. An empty leaf list yields the
/// zero hash (matching an empty block). With an odd node count at any level
/// the last node is paired with itself (Bitcoin convention).
class MerkleTree {
 public:
  explicit MerkleTree(std::vector<Hash256> leaves);

  const Hash256& root() const { return root_; }

  /// Builds the inclusion proof for leaf `index`.
  Result<MerkleProof> Prove(size_t index) const;

  /// Convenience: root of `leaves` without keeping the tree.
  static Hash256 RootOf(const std::vector<Hash256>& leaves);

 private:
  std::vector<std::vector<Hash256>> levels_;  // levels_[0] = leaves.
  Hash256 root_;
};

/// The root `proof` implies for `leaf`: the leaf folded up the path, one
/// pair hash per step. Leaf 0's path never depends on leaf 0 itself, so a
/// block template keeps Prove(0) and folds each miner's coinbase up it.
Hash256 RootFromProof(const Hash256& leaf, const MerkleProof& proof);

/// Recomputes the root implied by `proof` for `leaf` and compares with
/// `expected_root`. This is the verification a relay contract executes.
bool VerifyMerkleProof(const Hash256& leaf, const MerkleProof& proof,
                       const Hash256& expected_root);

}  // namespace ac3::crypto

#endif  // AC3_CRYPTO_MERKLE_H_
