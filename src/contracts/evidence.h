// Cross-chain evidence: the paper's Section 4.3 proposal, in full.
//
// "A smart contract in the validator blockchain ... stores the header of a
//  stable block in the validated blockchain. ... a participant can submit
//  evidence [comprising] the headers of all the blocks that follow the
//  stored stable block ... The smart contract function validates that the
//  passed headers follow the header of the stable block ... that the proof
//  of work of each header is valid ... [and] that the transaction of
//  interest indeed took place and that [its] block ... is buried under d
//  blocks."
//
// Evidence here proves inclusion of either a transaction (e.g. a contract
// deployment, for SCw's VerifyContracts) or a receipt (e.g. "SCw moved to
// RDauth", for Algorithm 4's IsRedeemable) via a Merkle path against the
// tx/receipt root of one of the presented headers.
//
// Verification is a *pure function* of (stored checkpoint, evidence bytes):
// miners of the validator chain never read the validated chain's data
// structures — exactly the paper's point.

#ifndef AC3_CONTRACTS_EVIDENCE_H_
#define AC3_CONTRACTS_EVIDENCE_H_

#include <vector>

#include "src/chain/block.h"
#include "src/chain/receipt.h"
#include "src/chain/transaction.h"
#include "src/common/status.h"
#include "src/crypto/merkle.h"

namespace ac3::contracts {

/// Self-contained proof that an item (transaction or receipt) is included
/// in the validated chain at sufficient depth beyond a known checkpoint.
struct HeaderChainEvidence {
  /// Consecutive headers; headers[0] extends the stored checkpoint.
  std::vector<chain::BlockHeader> headers;
  /// Index into `headers` of the block containing the item.
  uint32_t target_index = 0;
  /// True: `leaf` is an encoded Receipt (proved against receipt_root).
  /// False: `leaf` is an encoded Transaction (proved against tx_root).
  bool leaf_is_receipt = false;
  /// The encoded item itself.
  Bytes leaf;
  crypto::MerkleProof proof;

  /// Wire order: the counted headers, each length-prefixed, the target
  /// index, the leaf kind as a bool byte, the leaf, then the
  /// length-prefixed proof.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(NestedEach(self.headers), self.target_index, self.leaf_is_receipt,
          self.leaf, Nested(self.proof));
  }

  /// Blocks on top of the target block within this evidence.
  uint32_t ConfirmationsShown() const {
    return static_cast<uint32_t>(headers.size()) - 1 - target_index;
  }
};

/// Verifies `evidence` against the stored `checkpoint`:
///   1–3. every header extends the one before it, headers[0] the
///      checkpoint (chain::CheckHeaderLink: chain id, linkage, height,
///      `required_difficulty_bits`, then proof of work),
///   4. the Merkle proof binds `leaf` to the target header's relevant root,
///   5. at least `min_confirmations` headers follow the target block.
/// The caller then parses `leaf` and checks the item's semantics.
Status VerifyHeaderChainEvidence(const chain::BlockHeader& checkpoint,
                                 uint32_t required_difficulty_bits,
                                 const HeaderChainEvidence& evidence,
                                 uint32_t min_confirmations);

}  // namespace ac3::contracts

#endif  // AC3_CONTRACTS_EVIDENCE_H_
