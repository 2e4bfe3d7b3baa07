// The reactive substrate: canonical-head subscriptions on the blockchain,
// connectivity subscriptions on the network, the Environment's batched
// prune-on-head-move mempool hygiene, and the engine-level payoff — a
// swap world executes O(blocks + messages) simulation events, not
// O(duration / poll_interval).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/chain/blockchain.h"
#include "src/chain/wallet.h"
#include "src/core/environment.h"
#include "src/core/scenario.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/engine_base.h"
#include "src/protocols/messages.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/network.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

// Disambiguates the vector/span AssembleBlock overloads at empty-candidate
// call sites ({} binds to both).
const std::vector<chain::Transaction> kNoCandidates;

using testutil::Fund;
using testutil::TestChain;

std::vector<crypto::KeyPair> MakeKeys(int n) {
  std::vector<crypto::KeyPair> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back(crypto::KeyPair::FromSeed(6000 + static_cast<uint64_t>(i)));
  }
  return keys;
}

std::vector<crypto::PublicKey> Pks(const std::vector<crypto::KeyPair>& keys) {
  std::vector<crypto::PublicKey> pks;
  for (const auto& k : keys) pks.push_back(k.public_key());
  return pks;
}

// ---- Blockchain::SubscribeHead --------------------------------------------

TEST(HeadSubscriptionTest, FiresOnExtensionWithOldHead) {
  TestChain tc(chain::TestChainParams(), {});
  int fired = 0;
  crypto::Hash256 last_old_head;
  tc.chain().SubscribeHead([&](const chain::BlockEntry& old_head) {
    ++fired;
    last_old_head = old_head.hash;
  });
  const crypto::Hash256 genesis = tc.chain().genesis()->hash;
  ASSERT_TRUE(tc.MineEmpty(1).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(last_old_head, genesis);
  const crypto::Hash256 first = tc.chain().head()->hash;
  ASSERT_TRUE(tc.MineEmpty(1).ok());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(last_old_head, first);
}

TEST(HeadSubscriptionTest, SideBranchDoesNotFireUntilItWins) {
  TestChain tc(chain::TestChainParams(), {});
  ASSERT_TRUE(tc.MineEmpty(2).ok());
  const chain::BlockEntry* fork_parent = tc.chain().head()->parent;

  int fired = 0;
  tc.chain().SubscribeHead([&](const chain::BlockEntry&) { ++fired; });

  // A sibling at the same height loses the first-seen tie: no head move.
  ASSERT_TRUE(tc.MineBlockOn(fork_parent->hash, {}).ok());
  EXPECT_EQ(fired, 0);
  // Extending the side branch makes it strictly heavier: one reorg event.
  const chain::BlockEntry* side = tc.chain().arrival_order().back();
  ASSERT_TRUE(tc.MineBlockOn(side->hash, {}).ok());
  EXPECT_EQ(fired, 1);
}

TEST(HeadSubscriptionTest, UnsubscribeStopsDelivery) {
  TestChain tc(chain::TestChainParams(), {});
  int fired = 0;
  auto id = tc.chain().SubscribeHead([&](const chain::BlockEntry&) {
    ++fired;
  });
  ASSERT_TRUE(tc.MineEmpty(1).ok());
  tc.chain().UnsubscribeHead(id);
  tc.chain().UnsubscribeHead(id);  // Idempotent.
  ASSERT_TRUE(tc.MineEmpty(1).ok());
  EXPECT_EQ(fired, 1);
}

TEST(HeadSubscriptionTest, LinearCatchUpFiresOncePerBlockInChainOrder) {
  // A node catching up on a 40-block chain, one SubmitBlock per block in
  // chain order: every block extends the head, so the listener fires once
  // per block and each call carries the block just below the new head.
  const auto allocations = Fund({crypto::KeyPair::FromSeed(1).public_key()},
                                500);
  TestChain source(chain::TestChainParams(), allocations);
  ASSERT_TRUE(source.MineEmpty(40).ok());
  std::vector<const chain::BlockEntry*> path;
  for (const chain::BlockEntry* walk = source.chain().head(); walk != nullptr;
       walk = walk->parent) {
    path.insert(path.begin(), walk);
  }
  ASSERT_EQ(path.size(), 41u);  // Genesis + 40 blocks.

  chain::Blockchain replica(chain::TestChainParams(), allocations);
  std::vector<crypto::Hash256> old_heads;
  replica.SubscribeHead([&](const chain::BlockEntry& old_head) {
    old_heads.push_back(old_head.hash);
  });
  for (size_t h = 1; h < path.size(); ++h) {
    const Status status = replica.SubmitBlock(path[h]->block, 7);
    ASSERT_TRUE(status.ok()) << "height " << h << ": " << status.ToString();
    ASSERT_EQ(replica.head()->hash, path[h]->hash);
  }

  ASSERT_EQ(old_heads.size(), 40u);
  for (size_t h = 0; h < old_heads.size(); ++h) {
    EXPECT_EQ(old_heads[h], path[h]->hash) << "move " << h;
  }
  EXPECT_EQ(replica.height(), source.chain().height());
  EXPECT_EQ(replica.block_count(), source.chain().block_count());
}

// ---- Network::SubscribeConnectivity ---------------------------------------

TEST(ConnectivitySubscriptionTest, FiresOnCrashRecoverAndPartition) {
  sim::Simulation sim(1);
  sim::Network network(&sim, sim::LatencyModel{0, 0});
  const sim::NodeId a = network.AddNode("a");
  const sim::NodeId b = network.AddNode("b");

  std::vector<sim::NodeId> events;
  auto id = network.SubscribeConnectivity(
      [&](sim::NodeId node) { events.push_back(node); });

  network.Crash(a);
  network.Recover(a);
  network.SetPartition(b, 2);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], a);
  EXPECT_EQ(events[1], a);
  EXPECT_EQ(events[2], b);

  events.clear();
  network.HealPartitions();  // One notification per node.
  EXPECT_EQ(events.size(), network.node_count());

  events.clear();
  network.UnsubscribeConnectivity(id);
  network.Crash(b);
  EXPECT_TRUE(events.empty());
}

// ---- Environment: batched prune on head movement --------------------------

TEST(MempoolAutoPruneTest, IncludedTransactionsLeaveThePoolOnHeadMove) {
  auto keys = MakeKeys(3);
  core::Environment env(/*seed=*/3);
  // miner_count 1 keeps block production deterministic and fork-free.
  chain::MiningConfig mining;
  mining.miner_count = 1;
  mining.max_propagation_delay = 0;
  const chain::ChainId id =
      env.AddChain(chain::TestChainParams(), Fund(Pks(keys), 1000), mining);

  chain::Wallet wallet(keys[0], id);
  auto tx = wallet.BuildTransfer(env.blockchain(id)->StateAtHead(),
                                 keys[1].public_key(), 10, 1, /*nonce=*/1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(env.mempool(id)->Submit(*tx, 0).ok());
  EXPECT_EQ(env.mempool(id)->size(), 1u);

  env.StartMining();
  Status mined = env.sim()->RunUntilCondition(
      [&]() { return env.blockchain(id)->FindTx(tx->Id()).has_value(); },
      Minutes(5));
  ASSERT_TRUE(mined.ok());
  // The inclusion moved the head, and the head subscription pruned the
  // pool in the same event — no ad-hoc Prune call anywhere.
  EXPECT_EQ(env.mempool(id)->size(), 0u);
  EXPECT_FALSE(env.mempool(id)->Contains(tx->Id()));
}

TEST(MempoolAutoPruneTest, ReorgedOutTransactionsReturnToThePool) {
  auto keys = MakeKeys(3);
  core::Environment env(/*seed=*/4);
  chain::MiningConfig mining;
  mining.miner_count = 1;
  const chain::ChainId id =
      env.AddChain(chain::TestChainParams(), Fund(Pks(keys), 1000), mining);
  chain::Blockchain* chain = env.blockchain(id);
  Rng rng(99);
  const crypto::KeyPair miner = crypto::KeyPair::FromSeed(77);

  chain::Wallet wallet(keys[0], id);
  auto tx = wallet.BuildTransfer(chain->StateAtHead(), keys[1].public_key(),
                                 10, 1, /*nonce=*/1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(env.mempool(id)->Submit(*tx, 0).ok());

  // Block A (genesis + tx) becomes the head: the subscription prunes.
  const crypto::Hash256 genesis = chain->genesis()->hash;
  auto block_a = chain->AssembleBlock(genesis, {*tx}, miner.public_key(),
                                      /*now=*/100, &rng);
  ASSERT_TRUE(block_a.ok());
  ASSERT_TRUE(chain->SubmitBlock(*block_a, 100).ok());
  EXPECT_EQ(env.mempool(id)->size(), 0u);

  // An empty two-block side branch reorgs A out: the transaction is on
  // neither branch any more, so the disconnect path re-queues it.
  auto side_1 = chain->AssembleBlock(genesis, kNoCandidates, miner.public_key(), 101,
                                     &rng);
  ASSERT_TRUE(side_1.ok());
  ASSERT_TRUE(chain->SubmitBlock(*side_1, 101).ok());
  auto side_2 = chain->AssembleBlock(side_1->header.Hash(), kNoCandidates,
                                     miner.public_key(), 102, &rng);
  ASSERT_TRUE(side_2.ok());
  ASSERT_TRUE(chain->SubmitBlock(*side_2, 102).ok());

  ASSERT_EQ(chain->head()->hash, side_2->header.Hash());
  EXPECT_FALSE(chain->FindTx(tx->Id()).has_value());
  EXPECT_TRUE(env.mempool(id)->Contains(tx->Id()))
      << "a reorged-out transaction must return to the pool for re-mining";
}

// ---- the engine-level payoff: event counts --------------------------------

TEST(ReactiveEngineTest, WaitingWorldExecutesFewerEventsThanPollingAlone) {
  // A waiting-dominated world: the counterparty crashes at 100 ms (before
  // publishing) and stays down 20 s, so the engine spends most of the run
  // waiting on its patience window. The retired fixed-poll AC3TW engine
  // executed 1449 total events on this exact cell (985 for Herlihy, 1661
  // for AC3WN — measured at the PR 3 seed); the reactive engine's ENTIRE
  // world (mining, gossip, retries, wakes) must cost fewer events than the
  // ~latency/20ms poll events alone would have.
  runner::SweepGridConfig config;
  config.protocols = {runner::Protocol::kAc3tw};
  config.topologies = {runner::Topology::kRing};
  config.sizes = {2};
  config.failures = {runner::FailureMode::kCrashParticipant};
  config.seeds = {11};
  config.deadline = Minutes(20);
  config.failure_onset_deltas = 0.05;
  config.failure_length_deltas = 10.0;
  std::vector<runner::RunOutcome> outcomes =
      runner::SweepRunner(1).RunGrid(config);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  ASSERT_TRUE(outcomes[0].finished);
  ASSERT_GT(outcomes[0].latency_ms, Seconds(15));

  const double poll_floor = outcomes[0].latency_ms / 20.0;
  EXPECT_LT(static_cast<double>(outcomes[0].sim_events), poll_floor)
      << "sim_events=" << outcomes[0].sim_events
      << " latency_ms=" << outcomes[0].latency_ms;
}

// ---- SwapEngineBase wake coalescing and message fencing -------------------
//
// The typed-message layer leans on two substrate guarantees: (1) any number
// of same-instant wake requests — resend heartbeats included — execute
// Step() once, so a burst of paced resends cannot stampede the state
// machine; (2) HandleMessage fences fault-injected duplicate deliveries
// (same seq) and stale epochs while letting genuine resends (fresh seqs)
// through. A minimal probe engine exposes the protected plumbing.

class ProbeEngine : public protocols::SwapEngineBase {
 public:
  ProbeEngine(core::Environment* env, graph::Ac2tGraph graph,
              std::vector<protocols::Participant*> participants,
              protocols::WatchConfig watch)
      : SwapEngineBase(env, std::move(graph), std::move(participants), watch,
                       "probe") {}

  using SwapEngineBase::HandleMessage;
  using SwapEngineBase::PaceResend;
  using SwapEngineBase::RequestWakeAt;
  using SwapEngineBase::SendProtocolMessage;

  int steps = 0;
  int messages = 0;
  uint64_t epoch_floor = 0;

 protected:
  Status OnStart() override { return Status::OK(); }
  void Step() override { ++steps; }
  bool IsComplete() const override { return false; }
  size_t EdgeCount() const override { return 0; }
  EdgeState* Edge(size_t) override { return nullptr; }
  void FillVerdict(protocols::SwapReport*) const override {}
  void OnMessage(const proto::Message&) override { ++messages; }
  uint64_t MessageEpochFloor() const override { return epoch_floor; }
};

struct ProbeWorld {
  ProbeWorld() : world(MakeOptions()) {
    graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
        world.participant(0)->pk(), world.participant(1)->pk(),
        world.asset_chain(0), 300, world.asset_chain(1), 200,
        world.env()->sim()->Now());
    protocols::WatchConfig watch;
    watch.resubmit_interval = Milliseconds(800);
    engine = std::make_unique<ProbeEngine>(world.env(), graph,
                                           world.all_participants(), watch);
  }

  static core::ScenarioOptions MakeOptions() {
    core::ScenarioOptions options;
    options.seed = 424242;
    return options;
  }

  proto::Message Envelope(uint64_t seq, uint64_t epoch) {
    proto::Message msg;
    msg.swap_id = crypto::Hash256::OfString("probe-swap");
    msg.epoch = epoch;
    msg.seq = seq;
    msg.sender = world.participant(0)->node();
    msg.receiver = world.participant(1)->node();
    msg.payload = proto::RedeemNotifyPayload{1};
    return msg;
  }

  core::ScenarioWorld world;
  std::unique_ptr<ProbeEngine> engine;
};

TEST(EngineWakeTest, SameInstantWakeRequestsExecuteStepOnce) {
  ProbeWorld probe;
  sim::Simulation* sim = probe.world.env()->sim();
  ASSERT_TRUE(probe.engine->Start().ok());
  sim->RunUntil(sim->Now() + Milliseconds(10));
  ASSERT_EQ(probe.engine->steps, 1);  // The initial scheduled step.

  // Three wakes at one instant plus two resend heartbeats (two distinct
  // exchanges pacing at the same moment — both arm Now+interval): exactly
  // TWO more steps, not five. A same-instant re-pace of an exchange is
  // refused outright.
  const TimePoint t = sim->Now();
  probe.engine->RequestWakeAt(t + Milliseconds(500));
  probe.engine->RequestWakeAt(t + Milliseconds(500));
  probe.engine->RequestWakeAt(t + Milliseconds(500));
  TimePoint exchange_a = -1;
  TimePoint exchange_b = -1;
  EXPECT_TRUE(probe.engine->PaceResend(&exchange_a));
  EXPECT_TRUE(probe.engine->PaceResend(&exchange_b));
  EXPECT_FALSE(probe.engine->PaceResend(&exchange_a));
  sim->RunUntil(t + Seconds(2));
  EXPECT_EQ(probe.engine->steps, 3);

  // After the interval elapses the same exchange paces again.
  EXPECT_TRUE(probe.engine->PaceResend(&exchange_a));
  EXPECT_EQ(exchange_a, sim->Now());
}

TEST(EngineMessageFenceTest, DuplicateDeliveriesOfOneSendAreFenced) {
  ProbeWorld probe;
  ASSERT_TRUE(probe.engine->Start().ok());

  const proto::Message msg = probe.Envelope(/*seq=*/7, /*epoch=*/0);
  probe.engine->HandleMessage(msg);
  probe.engine->HandleMessage(msg);  // Fault-injected duplicate: same seq.
  EXPECT_EQ(probe.engine->messages, 1);
  EXPECT_EQ(probe.engine->report().messages_delivered, 1);
  EXPECT_EQ(probe.engine->report().messages_fenced, 1);

  // A resend is a fresh send with a fresh seq — it passes the fence.
  probe.engine->HandleMessage(probe.Envelope(/*seq=*/8, /*epoch=*/0));
  EXPECT_EQ(probe.engine->messages, 2);
}

TEST(EngineMessageFenceTest, StaleEpochsAreFencedBeforeDispatch) {
  ProbeWorld probe;
  ASSERT_TRUE(probe.engine->Start().ok());
  probe.engine->epoch_floor = 5;

  probe.engine->HandleMessage(probe.Envelope(/*seq=*/9, /*epoch=*/4));
  EXPECT_EQ(probe.engine->messages, 0);
  EXPECT_EQ(probe.engine->report().messages_fenced, 1);

  probe.engine->HandleMessage(probe.Envelope(/*seq=*/10, /*epoch=*/5));
  EXPECT_EQ(probe.engine->messages, 1);
}

TEST(EngineMessageFenceTest, SentMessagesDeliverWithFreshSeqsAndAreCounted) {
  ProbeWorld probe;
  sim::Simulation* sim = probe.world.env()->sim();
  ASSERT_TRUE(probe.engine->Start().ok());

  // Two sends of the same logical exchange (a resend): distinct seqs are
  // stamped, so BOTH deliveries pass the duplicate fence, and the report's
  // send-side counters charge each send's wire size.
  probe.engine->SendProtocolMessage(probe.Envelope(/*seq=*/0, /*epoch=*/0));
  probe.engine->SendProtocolMessage(probe.Envelope(/*seq=*/0, /*epoch=*/0));
  sim->RunUntil(sim->Now() + Seconds(2));
  EXPECT_EQ(probe.engine->messages, 2);
  EXPECT_EQ(probe.engine->report().messages_sent, 2);
  EXPECT_EQ(probe.engine->report().messages_delivered, 2);
  EXPECT_EQ(probe.engine->report().messages_fenced, 0);
  EXPECT_EQ(probe.engine->report().message_bytes_sent,
            2 * static_cast<int64_t>(probe.Envelope(1, 0).EncodedSize()));
}

}  // namespace
}  // namespace ac3
