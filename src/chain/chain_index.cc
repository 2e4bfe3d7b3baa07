#include "src/chain/chain_index.h"

#include <cassert>
#include <utility>
#include <vector>

namespace ac3::chain {

BlockEntry* ChainIndex::Store(const crypto::Hash256& hash, BlockEntry entry) {
  auto [it, inserted] = entries_.try_emplace(hash, std::move(entry));
  assert(inserted && "Store() requires an unseen block hash");
  (void)inserted;
  BlockEntry* stored = &it->second;
  const std::vector<Transaction>& txs = stored->block.txs;
  for (uint32_t i = 0; i < txs.size(); ++i) {
    const crypto::Hash256& id = txs[i].Id();
    if (txs[i].type() != TxType::kTransfer) {
      tx_occurrences_[id].push_back(TxLocation{stored, i});
    } else if (auto watched = tx_occurrences_.find(id);
               watched != tx_occurrences_.end()) {
      watched->second.push_back(TxLocation{stored, i});
    }
  }
  for (const CallRecord& call : stored->calls) {
    // One occurrence per contract even with several calls in the block.
    std::vector<const BlockEntry*>& list = contract_calls_[call.contract_id];
    if (list.empty() || list.back() != stored) list.push_back(stored);
  }
  return stored;
}

}  // namespace ac3::chain
