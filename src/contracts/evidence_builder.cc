#include "src/contracts/evidence_builder.h"

namespace ac3::contracts {

namespace {

Result<HeaderChainEvidence> BuildEvidence(
    const chain::Blockchain& chain, const crypto::Hash256& checkpoint_hash,
    const crypto::Hash256& tx_id, bool leaf_is_receipt) {
  const chain::BlockEntry* checkpoint = chain.Get(checkpoint_hash);
  if (checkpoint == nullptr) {
    return Status::NotFound("checkpoint block unknown");
  }
  auto location = chain.FindTx(tx_id);
  if (!location.has_value()) {
    return Status::NotFound("transaction not on canonical chain");
  }
  const uint64_t target_height = location->entry->block.header.height;
  if (target_height <= checkpoint->block.header.height) {
    return Status::FailedPrecondition(
        "transaction precedes the checkpoint; evidence cannot cover it");
  }

  HeaderChainEvidence evidence;
  AC3_ASSIGN_OR_RETURN(evidence.headers, chain.HeadersAfter(checkpoint_hash));
  evidence.target_index = static_cast<uint32_t>(
      target_height - checkpoint->block.header.height - 1);
  evidence.leaf_is_receipt = leaf_is_receipt;

  const chain::Block& block = location->entry->block;
  if (leaf_is_receipt) {
    evidence.leaf = Encode(block.receipts[location->index]);
    crypto::MerkleTree tree(block.ReceiptLeaves());
    AC3_ASSIGN_OR_RETURN(evidence.proof, tree.Prove(location->index));
  } else {
    evidence.leaf = Encode(block.txs[location->index]);
    crypto::MerkleTree tree(block.TxLeaves());
    AC3_ASSIGN_OR_RETURN(evidence.proof, tree.Prove(location->index));
  }
  return evidence;
}

}  // namespace

Result<HeaderChainEvidence> BuildTxEvidence(
    const chain::Blockchain& chain, const crypto::Hash256& checkpoint_hash,
    const crypto::Hash256& tx_id) {
  return BuildEvidence(chain, checkpoint_hash, tx_id,
                       /*leaf_is_receipt=*/false);
}

Result<HeaderChainEvidence> BuildReceiptEvidence(
    const chain::Blockchain& chain, const crypto::Hash256& checkpoint_hash,
    const crypto::Hash256& tx_id) {
  return BuildEvidence(chain, checkpoint_hash, tx_id,
                       /*leaf_is_receipt=*/true);
}

}  // namespace ac3::contracts
