#include "src/core/environment.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "src/protocols/messages.h"

namespace ac3::core {

namespace {

/// Batched canonical cleanup on a head move: prunes from `pool` every
/// transaction included on the new canonical segment (head() down to its
/// lowest common ancestor with `old_head`), and — on a reorg — re-queues
/// the orphaned branch's user transactions that did not make it onto the
/// winning branch, so they are re-mined instead of silently lost (the
/// "disconnect pool" behavior of real nodes). Coinbase ids are harmlessly
/// absent from the pool and never re-queued.
void PruneIncludedOnHeadMove(const chain::Blockchain* chain,
                             chain::Mempool* pool,
                             const chain::BlockEntry& old_head) {
  const chain::BlockEntry* fork = chain->head();
  const chain::BlockEntry* other = &old_head;
  if (fork->height() > other->height()) {
    fork = chain->GetAncestor(fork, other->height());
  } else if (other->height() > fork->height()) {
    other = chain->GetAncestor(other, fork->height());
  }
  while (fork != other) {
    fork = fork->parent;
    other = other->parent;
  }
  // Ids on one branch are unique, so the flat list needs no dedup; the
  // span-form Prune skips the ordered-set build the old std::set path
  // paid on every canonical head move.
  std::vector<crypto::Hash256> included;
  for (const chain::BlockEntry* walk = chain->head(); walk != fork;
       walk = walk->parent) {
    for (const chain::Transaction& tx : walk->block.txs) {
      included.push_back(tx.Id());
    }
  }
  if (!included.empty()) {
    pool->Prune(std::span<const crypto::Hash256>(included));
  }
  if (&old_head == fork) return;
  // Disconnected (reorged-out) blocks: anything not re-included on the
  // winning branch goes back into the pool, stamped with the arrival time
  // of the orphaned block that held it. The common prefix, genesis to
  // `fork`, cannot hold one of their transactions too: it is part of their
  // branch, and no transaction repeats on a branch. So a transaction is on
  // the winning branch exactly when the new segment, `included`, holds it.
  std::sort(included.begin(), included.end());
  for (const chain::BlockEntry* walk = &old_head; walk != fork;
       walk = walk->parent) {
    for (const chain::Transaction& tx : walk->block.txs) {
      if (tx.type() == chain::TxType::kCoinbase) continue;
      if (std::binary_search(included.begin(), included.end(), tx.Id())) {
        continue;
      }
      // Duplicate submissions are rejected by id; ignore them.
      (void)pool->Submit(tx, walk->arrival_time);
    }
  }
}

}  // namespace

Environment::Environment(uint64_t seed)
    : sim_(seed),
      network_(&sim_, sim::LatencyModel{Milliseconds(20), Milliseconds(10)}),
      failures_(&sim_, &network_) {}

chain::ChainId Environment::AddChain(chain::ChainParams params,
                                     std::vector<chain::TxOutput> allocations,
                                     chain::MiningConfig mining) {
  const chain::ChainId id = static_cast<chain::ChainId>(chains_.size());
  params.id = id;
  ChainRuntime runtime;
  runtime.blockchain = std::make_unique<chain::Blockchain>(
      params, std::move(allocations));
  runtime.mempool = std::make_unique<chain::Mempool>();
  runtime.miners = std::make_unique<chain::MiningNetwork>(
      &sim_, runtime.blockchain.get(), runtime.mempool.get(), mining);
  runtime.gateway = network_.AddNode();
  // Batched mempool hygiene: included transactions leave the pool once per
  // canonical head movement, not via per-call-site cleanup. The raw
  // pointers outlive the subscription (the runtime owns both objects).
  chain::Blockchain* blockchain = runtime.blockchain.get();
  chain::Mempool* pool = runtime.mempool.get();
  blockchain->SubscribeHead([blockchain, pool](
                                const chain::BlockEntry& old_head) {
    PruneIncludedOnHeadMove(blockchain, pool, old_head);
  });
  chains_.push_back(std::move(runtime));
  return id;
}

chain::Blockchain* Environment::blockchain(chain::ChainId id) {
  if (id >= chains_.size()) return nullptr;
  return chains_[id].blockchain.get();
}

const chain::Blockchain* Environment::blockchain(chain::ChainId id) const {
  if (id >= chains_.size()) return nullptr;
  return chains_[id].blockchain.get();
}

chain::Mempool* Environment::mempool(chain::ChainId id) {
  if (id >= chains_.size()) return nullptr;
  return chains_[id].mempool.get();
}

chain::MiningNetwork* Environment::miners(chain::ChainId id) {
  if (id >= chains_.size()) return nullptr;
  return chains_[id].miners.get();
}

void Environment::StartMining() {
  for (ChainRuntime& runtime : chains_) runtime.miners->Start();
}

void Environment::StopMining() {
  for (ChainRuntime& runtime : chains_) runtime.miners->Stop();
}

sim::NodeId Environment::AddUserNode() {
  return network_.AddNode();
}

void Environment::SubmitTransaction(sim::NodeId from, chain::ChainId id,
                                    const chain::Transaction& tx) {
  assert(id < chains_.size());
  chain::Mempool* pool = chains_[id].mempool.get();
  sim::Simulation* sim = &sim_;
  // Transaction gossip rides the typed message path so the per-message
  // fault model (drop/duplicate/delay) applies to every protocol's chain
  // traffic, not only to the engines' off-chain exchanges. The payload
  // carries the wire size, not the transaction itself — the handler
  // closure holds the real object, exactly like the old closure path.
  const proto::Message msg{
      .swap_id = tx.Id(),
      .seq = next_gossip_seq_++,
      .sender = from,
      .receiver = chains_[id].gateway,
      .payload = proto::TxSubmitPayload{
          id, static_cast<uint32_t>(tx.EncodedSize())}};
  network_.SendMessage(msg, [pool, sim, tx](const proto::Message&) {
    // Ignore duplicate-submission errors: gossip is at-least-once, and a
    // fault-duplicated delivery is rejected by transaction id.
    (void)pool->Submit(tx, sim->Now());
  });
}

}  // namespace ac3::core
