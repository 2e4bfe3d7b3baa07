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
  for (const auto& [tx_id, index] : stored->tx_index) {
    tx_occurrences_[tx_id].push_back(TxLocation{stored, index});
  }
  for (const CallRecord& call : stored->calls) {
    // One occurrence per contract even with several calls in the block.
    std::vector<const BlockEntry*>& list = contract_calls_[call.contract_id];
    if (list.empty() || list.back() != stored) list.push_back(stored);
  }
  return stored;
}

}  // namespace ac3::chain
