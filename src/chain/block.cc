#include "src/chain/block.h"

#include "src/crypto/merkle.h"

namespace ac3::chain {

crypto::Hash256 BlockHeader::Hash() const {
  uint8_t buf[kEncodedSize];
  EncodeInto(buf, *this);
  return crypto::Hash256::DoubleOf(buf);
}

std::vector<crypto::Hash256> Block::TxLeaves() const {
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(txs.size());
  for (const Transaction& tx : txs) leaves.push_back(tx.Id());
  return leaves;
}

std::vector<crypto::Hash256> Block::ReceiptLeaves() const {
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(receipts.size());
  for (const Receipt& receipt : receipts) leaves.push_back(receipt.LeafHash());
  return leaves;
}

crypto::Hash256 Block::ComputeTxRoot() const {
  return crypto::MerkleTree::RootOf(TxLeaves());
}

crypto::Hash256 Block::ComputeReceiptRoot() const {
  return crypto::MerkleTree::RootOf(ReceiptLeaves());
}

}  // namespace ac3::chain
