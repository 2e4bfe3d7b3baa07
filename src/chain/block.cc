#include "src/chain/block.h"

#include <cassert>
#include <cstring>

#include "src/crypto/merkle.h"

namespace ac3::chain {

namespace {
Result<crypto::Hash256> ReadHash(ByteReader* r) {
  AC3_ASSIGN_OR_RETURN(Bytes raw, r->GetRaw(crypto::Hash256::kSize));
  std::array<uint8_t, crypto::Hash256::kSize> arr{};
  std::copy(raw.begin(), raw.end(), arr.begin());
  return crypto::Hash256(arr);
}
}  // namespace

void BlockHeader::EncodeTo(uint8_t (&out)[kEncodedSize]) const {
  uint8_t* p = out;
  p = StoreLe(p, chain_id);
  p = StoreLe(p, height);
  std::memcpy(p, prev_hash.bytes(), crypto::Hash256::kSize);
  p += crypto::Hash256::kSize;
  std::memcpy(p, tx_root.bytes(), crypto::Hash256::kSize);
  p += crypto::Hash256::kSize;
  std::memcpy(p, receipt_root.bytes(), crypto::Hash256::kSize);
  p += crypto::Hash256::kSize;
  p = StoreLe(p, static_cast<uint64_t>(time));
  p = StoreLe(p, difficulty_bits);
  p = StoreLe(p, nonce);
  assert(p == out + kEncodedSize);
}

Bytes BlockHeader::Encode() const {
  uint8_t buf[kEncodedSize];
  EncodeTo(buf);
  return Bytes(buf, buf + kEncodedSize);
}

Result<BlockHeader> BlockHeader::Decode(ByteReader* reader) {
  BlockHeader h;
  AC3_ASSIGN_OR_RETURN(h.chain_id, reader->GetU32());
  AC3_ASSIGN_OR_RETURN(h.height, reader->GetU64());
  AC3_ASSIGN_OR_RETURN(h.prev_hash, ReadHash(reader));
  AC3_ASSIGN_OR_RETURN(h.tx_root, ReadHash(reader));
  AC3_ASSIGN_OR_RETURN(h.receipt_root, ReadHash(reader));
  AC3_ASSIGN_OR_RETURN(h.time, reader->GetI64());
  AC3_ASSIGN_OR_RETURN(h.difficulty_bits, reader->GetU32());
  AC3_ASSIGN_OR_RETURN(h.nonce, reader->GetU64());
  return h;
}

crypto::Hash256 BlockHeader::Hash() const {
  uint8_t buf[kEncodedSize];
  EncodeTo(buf);
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
