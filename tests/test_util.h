// Shared test scaffolding: a hand-driven chain (no Poisson mining) so tests
// control exactly which transactions land in which block, the reference
// oracles of fast paths, input generators, and the schedule-choice doubles.

#ifndef AC3_TESTS_TEST_UTIL_H_
#define AC3_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/chain/blockchain.h"
#include "src/chain/mining.h"
#include "src/chain/pow.h"
#include "src/chain/wallet.h"
#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/core/scenario.h"
#include "src/crypto/header_hasher.h"
#include "src/crypto/primes.h"
#include "src/graph/ac2t_graph.h"
#include "src/sim/chooser.h"

namespace ac3::testutil {

/// A blockchain the test advances manually, one block at a time.
class TestChain {
 public:
  TestChain(chain::ChainParams params,
            std::vector<chain::TxOutput> allocations, uint64_t seed = 42)
      : chain_(std::move(params), std::move(allocations)),
        rng_(seed),
        miner_(crypto::KeyPair::FromSeed(seed ^ 0xabcdef)) {}

  chain::Blockchain& chain() { return chain_; }
  const chain::Blockchain& chain() const { return chain_; }
  Rng* rng() { return &rng_; }
  TimePoint now() const { return now_; }

  /// Mines one block on the canonical head containing `txs` (best effort).
  Status MineBlock(const std::vector<chain::Transaction>& txs) {
    return MineBlockOn(chain_.head()->hash, txs);
  }

  /// Mines one block on an arbitrary parent — the raw material of fork
  /// experiments (two branches from the same parent). Watches every one of
  /// `txs` first, so FindTx finds the transfers it mines.
  Status MineBlockOn(const crypto::Hash256& parent,
                     const std::vector<chain::Transaction>& txs) {
    for (const chain::Transaction& tx : txs) chain_.Watch(tx.Id());
    now_ += 100;
    auto block =
        chain_.AssembleBlock(parent, txs, miner_.public_key(), now_, &rng_);
    if (!block.ok()) return block.status();
    return chain_.SubmitBlock(*block, now_);
  }

  /// Mines `count` empty blocks (to bury things).
  Status MineEmpty(int count) {
    for (int i = 0; i < count; ++i) {
      AC3_RETURN_IF_ERROR(MineBlock({}));
    }
    return Status::OK();
  }

  /// Mines until `tx_id` is on the canonical chain with >= depth
  /// confirmations (submitting `tx` in the next block).
  Status MineTxToDepth(const chain::Transaction& tx, uint32_t depth) {
    AC3_RETURN_IF_ERROR(MineBlock({tx}));
    if (!chain_.FindTx(tx.Id()).has_value()) {
      return Status::Internal("transaction not included");
    }
    return MineEmpty(static_cast<int>(depth));
  }

 private:
  chain::Blockchain chain_;
  Rng rng_;
  crypto::KeyPair miner_;
  TimePoint now_ = 0;
};

/// Funding allocation for a set of keys.
inline std::vector<chain::TxOutput> Fund(
    const std::vector<crypto::PublicKey>& keys, chain::Amount each) {
  std::vector<chain::TxOutput> out;
  for (const crypto::PublicKey& pk : keys) {
    out.push_back(chain::TxOutput{each, pk});
  }
  return out;
}

/// Applies `tx` to `state` through a LedgerDelta of its own and commits
/// what the delta staged, rejected or not, so a test sees exactly what
/// ApplyTransaction wrote.
inline Result<chain::Receipt> ApplyAndCommit(chain::LedgerState* state,
                                             const chain::Transaction& tx,
                                             const chain::BlockEnv& env) {
  chain::LedgerDelta delta(*state);
  Result<chain::Receipt> receipt = chain::ApplyTransaction(&delta, tx, env);
  delta.CommitTo(state);
  return receipt;
}

/// Full-scan recomputation of `state`'s liquid total: the oracle for the
/// maintained LedgerState::LiquidValue.
inline chain::Amount LiquidValueScan(const chain::LedgerState& state) {
  chain::Amount total = 0;
  for (const auto& [outpoint, output] : state.utxos) total += output.value;
  return total;
}

/// A contract by value: what two states that hold contract objects of
/// their own (a replayed one, a second chain's) must agree on.
struct ContractImage {
  std::string kind;
  Bytes state;
  chain::Amount locked_value = 0;
  crypto::PublicKey deployer;
  chain::ChainId chain_id = 0;
  uint64_t deploy_height = 0;

  bool operator==(const ContractImage&) const = default;
};

/// A ledger state by value, with its liquid and locked totals, copied out
/// of the trees.
struct ValueImage {
  std::vector<std::pair<chain::OutPoint, chain::TxOutput>> utxos;
  std::vector<std::pair<crypto::Hash256, ContractImage>> contracts;
  chain::Amount liquid_total = 0;
  chain::Amount locked_total = 0;

  bool operator==(const ValueImage&) const = default;
};

inline ValueImage ValuesOf(const chain::LedgerState& state) {
  ValueImage image;
  for (const auto& [outpoint, output] : state.utxos) {
    image.utxos.emplace_back(outpoint, output);
  }
  for (const auto& [id, contract] : state.contracts) {
    image.contracts.emplace_back(
        id, ContractImage{contract->Kind(), contract->StateDigest(),
                          contract->locked_value(), contract->deployer(),
                          contract->chain_id(), contract->deploy_height()});
  }
  image.liquid_total = state.liquid_total;
  image.locked_total = state.LockedValue();
  return image;
}

/// The one-nonce-at-a-time reference search: chain::MineHeader must find
/// the same nonce after the same number of evaluations on every dispatch
/// level.
inline uint64_t MineHeaderScalar(chain::BlockHeader* header, Rng* rng) {
  uint8_t preimage[chain::BlockHeader::kEncodedSize] = {};
  EncodeInto(preimage, *header);
  crypto::HeaderHasher hasher(preimage);
  uint64_t nonce = rng->NextU64();
  uint64_t evaluations = 0;
  for (;;) {
    ++evaluations;
    if (chain::HashMeetsDifficulty(hasher.HashWithNonce(nonce),
                                   header->difficulty_bits)) {
      header->nonce = nonce;
      return evaluations;
    }
    ++nonce;
  }
}

/// The full-scan reference for MiningNetwork::VisibleHead: the heaviest of
/// `chain`'s entries visible to `miner` by `now` under the network's own
/// VisibleAt rule. Exact for any `now`, the past included.
inline const chain::BlockEntry* VisibleHeadScan(
    const chain::MiningNetwork& miners, const chain::Blockchain& chain,
    int miner, TimePoint now) {
  const chain::BlockEntry* best = chain.genesis();
  for (const chain::BlockEntry* entry : chain.arrival_order()) {
    if (miners.VisibleAt(*entry, miner) > now) continue;
    if (chain::ForkChoicePrefers(*entry, *best)) best = entry;
  }
  return best;
}

/// A random connected digraph over `participants`: a ring, plus each other
/// ordered pair with probability `extra_edge_prob`, the chains assigned in
/// turn.
inline graph::Ac2tGraph MakeRandomGraph(
    const std::vector<crypto::PublicKey>& participants,
    const std::vector<chain::ChainId>& chains, chain::Amount amount,
    double extra_edge_prob, Rng* rng, TimePoint timestamp) {
  std::vector<graph::Ac2tEdge> edges =
      graph::MakeRing(participants, chains, amount, timestamp).edges();
  const auto n = static_cast<uint32_t>(participants.size());
  size_t chain_cursor = edges.size();
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = 0; v < n; ++v) {
      if (u == v || (v == (u + 1) % n)) continue;
      if (rng->NextBool(extra_edge_prob)) {
        edges.push_back(graph::Ac2tEdge{
            u, v, chains[chain_cursor++ % chains.size()], amount});
      }
    }
  }
  return graph::Ac2tGraph(participants, edges, timestamp);
}

/// One schedule choice: the site that asked and the value it used.
struct Choice {
  sim::ChoiceSite site = sim::ChoiceSite::kJitter;
  uint64_t value = 0;

  bool operator==(const Choice&) const = default;
};

/// Keeps every draw, as the default chooser does, and records it.
class RecordingChooser : public sim::Chooser {
 public:
  uint64_t Choose(sim::ChoiceSite site, uint64_t drawn) override {
    choices_.push_back(Choice{site, drawn});
    return drawn;
  }
  const std::vector<Choice>& choices() const { return choices_; }

 private:
  std::vector<Choice> choices_;
};

/// Answers each ask with the next entry of `list`, never with the draw.
/// Throws std::runtime_error when the run asks past the end of the list,
/// or when the asking site is not the entry's.
class ListChooser : public sim::Chooser {
 public:
  explicit ListChooser(std::vector<Choice> list) : list_(std::move(list)) {}

  uint64_t Choose(sim::ChoiceSite site, uint64_t /*drawn*/) override {
    if (next_ == list_.size() || list_[next_].site != site) {
      throw std::runtime_error(
          "choice " + std::to_string(next_) + " asked by site " +
          std::to_string(static_cast<int>(site)) +
          (next_ == list_.size() ? ": the list ran out"
                                 : ": the list holds another site there"));
    }
    return list_[next_++].value;
  }
  /// Entries answered so far.
  size_t consumed() const { return next_; }

 private:
  std::vector<Choice> list_;
  size_t next_ = 0;
};

/// A signature anyone can make for `message` under a key y ≡ 1 (mod p):
/// y^(q-e) = 1, so r' = g^s whatever e is; pick s and solve for e. Verify
/// must reject it because the key is not valid.
inline crypto::Signature ForgeUnderUnitKey(const crypto::PublicKey& pk,
                                           const Bytes& message) {
  const crypto::GroupParams& grp = crypto::DefaultGroup();
  const uint64_t s = 123456789;
  const Bytes challenge =
      Encode(crypto::PowMod(grp.g, s, grp.p), pk.y(), message);
  return crypto::Signature{crypto::Hash256::Of(challenge).Prefix64() % grp.q,
                           s};
}

/// One seeded mutant of an encoding: a bit flipped, a byte dropped,
/// inserted or duplicated, the tail truncated, or four bytes rewritten as a
/// u32 length. The decoder mutation suites and the engine-boundary property
/// test feed these to decoders and engines.
inline Bytes Mutate(const Bytes& sample, Rng* rng) {
  Bytes out = sample;
  const size_t n = out.size();
  switch (rng->NextBelow(6)) {
    case 0:  // Flip one bit.
      if (n == 0) break;
      out[rng->NextBelow(n)] ^= static_cast<uint8_t>(1u << rng->NextBelow(8));
      break;
    case 1:  // Drop a byte.
      if (n == 0) break;
      out.erase(out.begin() + static_cast<ptrdiff_t>(rng->NextBelow(n)));
      break;
    case 2:  // Insert a byte.
      out.insert(out.begin() + static_cast<ptrdiff_t>(rng->NextBelow(n + 1)),
                 static_cast<uint8_t>(rng->NextU64()));
      break;
    case 3: {  // Duplicate a byte.
      if (n == 0) break;
      const size_t at = rng->NextBelow(n);
      const uint8_t byte = out[at];
      out.insert(out.begin() + static_cast<ptrdiff_t>(at), byte);
      break;
    }
    case 4:  // Truncate.
      out.resize(rng->NextBelow(n + 1));
      break;
    case 5: {  // Rewrite four bytes as a u32 length.
      if (n < 4) break;
      const size_t at = rng->NextBelow(n - 3);
      const uint32_t lengths[] = {0,
                                  1,
                                  static_cast<uint32_t>(rng->NextBelow(64)),
                                  static_cast<uint32_t>(n - at),
                                  static_cast<uint32_t>(n),
                                  0x7fffffff,
                                  0xffffffff};
      StoreLe(out.data() + at, lengths[rng->NextBelow(std::size(lengths))]);
      break;
    }
  }
  return out;
}

/// Protocol-test world: an alias of the library's public scenario facade
/// (tests drove its design; examples and benches share it).
using SwapWorldOptions = core::ScenarioOptions;
using SwapWorld = core::ScenarioWorld;
using core::ScenarioParticipantSeed;

/// Back-compat shim for older test call sites.
inline uint64_t ParticipantSeed(int i) { return ScenarioParticipantSeed(i); }

}  // namespace ac3::testutil

#endif  // AC3_TESTS_TEST_UTIL_H_
