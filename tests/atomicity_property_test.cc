// The paper's central claim, property-tested: AC3WN (and the AC3TW
// strawman) preserve the all-or-nothing property under EVERY injected
// failure schedule, while the HTLC baseline demonstrably does not
// (htlc_swap_test.cc shows the violation).
//
// A parameterized sweep drives protocol x failure-scenario x seed through
// the full simulated stack and asserts the atomicity invariant on the
// resulting report; consistency side-conditions (committed => all redeemed,
// aborted => nothing redeemed) ride along.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/graph/ac2t_graph.h"
#include "src/protocols/ac3tw_swap.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/runner/sweep_runner.h"
#include "tests/test_util.h"

namespace ac3::protocols {
namespace {

using testutil::SwapWorld;
using testutil::SwapWorldOptions;

constexpr TimePoint kDeadline = Minutes(20);

enum class Protocol { kAc3wn, kAc3tw };
enum class Failure {
  kNone,
  kRecipientCrashEarly,   ///< Down before anything is published.
  kRecipientCrashMid,     ///< Down across the decision point.
  kSenderCrashMid,
  kBothCrashStaggered,
  kDeclinePublish,        ///< Malicious "no" vote.
  kRequestAbort,          ///< A participant changes her mind.
  kWitnessDos,            ///< Crash Trent / (no-op for AC3WN's chain).
};

struct Scenario {
  Protocol protocol;
  Failure failure;
  uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const Scenario& s) {
    os << (s.protocol == Protocol::kAc3wn ? "AC3WN" : "AC3TW") << "/";
    switch (s.failure) {
      case Failure::kNone: os << "none"; break;
      case Failure::kRecipientCrashEarly: os << "recipient-early"; break;
      case Failure::kRecipientCrashMid: os << "recipient-mid"; break;
      case Failure::kSenderCrashMid: os << "sender-mid"; break;
      case Failure::kBothCrashStaggered: os << "both-staggered"; break;
      case Failure::kDeclinePublish: os << "decline"; break;
      case Failure::kRequestAbort: os << "abort"; break;
      case Failure::kWitnessDos: os << "witness-dos"; break;
    }
    return os << "/seed" << s.seed;
  }
};

class AtomicityPropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(AtomicityPropertyTest, AllOrNothingHolds) {
  const Scenario& scenario = GetParam();

  SwapWorldOptions options;
  options.seed = scenario.seed;
  options.witness_chain = scenario.protocol == Protocol::kAc3wn;
  SwapWorld world(options);
  TrustedWitness trent("Trent", 0x7ae47 ^ scenario.seed, world.env());
  world.StartMining();

  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200,
      world.env()->sim()->Now());

  bool request_abort = false;
  switch (scenario.failure) {
    case Failure::kNone:
      break;
    case Failure::kRecipientCrashEarly:
      world.env()->failures()->CrashFor(world.participant(1)->node(), 0,
                                        Seconds(25));
      break;
    case Failure::kRecipientCrashMid:
      world.env()->failures()->CrashFor(world.participant(1)->node(),
                                        Seconds(2), Seconds(25));
      break;
    case Failure::kSenderCrashMid:
      world.env()->failures()->CrashFor(world.participant(0)->node(),
                                        Seconds(2), Seconds(25));
      break;
    case Failure::kBothCrashStaggered:
      world.env()->failures()->CrashFor(world.participant(0)->node(),
                                        Seconds(1), Seconds(10));
      world.env()->failures()->CrashFor(world.participant(1)->node(),
                                        Seconds(6), Seconds(20));
      break;
    case Failure::kDeclinePublish:
      world.participant(1)->behavior().decline_publish = true;
      break;
    case Failure::kRequestAbort:
      request_abort = true;
      break;
    case Failure::kWitnessDos:
      world.env()->failures()->CrashFor(trent.node(), Seconds(1), Seconds(20));
      break;
  }

  SwapReport report;
  if (scenario.protocol == Protocol::kAc3wn) {
    Ac3wnConfig config;
    config.publish_patience = Seconds(12);
    config.request_abort = request_abort;
    Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                           world.witness_chain(), config);
    auto result = engine.Run(kDeadline);
    ASSERT_TRUE(result.ok()) << result.status();
    report = *result;
  } else {
    Ac3twConfig config;
    config.publish_patience = Seconds(12);
    config.request_abort = request_abort;
    Ac3twSwapEngine engine(world.env(), graph, world.all_participants(),
                           &trent, config);
    auto result = engine.Run(kDeadline);
    ASSERT_TRUE(result.ok()) << result.status();
    report = *result;
  }

  // THE invariant (Lemmas 5.1/5.3): never some-redeemed-some-refunded.
  EXPECT_FALSE(report.AtomicityViolated()) << scenario << "\n"
                                           << report.Summary();

  // Consistency side conditions.
  if (report.committed) {
    EXPECT_TRUE(report.AllRedeemed()) << scenario;
    EXPECT_FALSE(report.aborted) << scenario;
  }
  if (report.aborted) {
    EXPECT_EQ(report.CountOutcome(EdgeOutcome::kRedeemed), 0) << scenario;
  }
  // Every failure schedule above eventually heals, so the protocol must
  // reach a terminal verdict well before the deadline (commitment).
  EXPECT_TRUE(report.finished) << scenario << "\n" << report.Summary();
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> out;
  for (Protocol protocol : {Protocol::kAc3wn, Protocol::kAc3tw}) {
    for (Failure failure :
         {Failure::kNone, Failure::kRecipientCrashEarly,
          Failure::kRecipientCrashMid, Failure::kSenderCrashMid,
          Failure::kBothCrashStaggered, Failure::kDeclinePublish,
          Failure::kRequestAbort, Failure::kWitnessDos}) {
      for (uint64_t seed : {11ull, 23ull, 37ull}) {
        out.push_back(Scenario{protocol, failure, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AtomicityPropertyTest,
                         ::testing::ValuesIn(AllScenarios()));

// Crash-onset sweep: slide the recipient's crash window across the whole
// protocol timeline in 500 ms steps — atomicity must hold at every onset.
class CrashOnsetSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashOnsetSweepTest, Ac3wnAtomicUnderAnyCrashOnset) {
  const TimePoint onset = GetParam() * Milliseconds(500);
  SwapWorldOptions options;
  options.seed = 97;
  SwapWorld world(options);
  world.StartMining();
  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, 0);
  world.env()->failures()->CrashFor(world.participant(1)->node(), onset,
                                    Seconds(30));
  Ac3wnConfig config;
  config.publish_patience = Seconds(12);
  Ac3wnSwapEngine engine(world.env(), graph, world.all_participants(),
                         world.witness_chain(), config);
  auto report = engine.Run(kDeadline);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->AtomicityViolated())
      << "crash onset " << onset << "ms\n"
      << report->Summary();
  EXPECT_TRUE(report->finished);
}

INSTANTIATE_TEST_SUITE_P(Onsets, CrashOnsetSweepTest,
                         ::testing::Range(0, 16));

// ---- randomized fault injection over the full protocol matrix -------------
//
// Seeded worlds × all four engines × every sweep failure mode, through the
// runner's own world builder. Two layers of assertion:
//
//  * Universal safety floor (every engine, even the blocking baselines):
//    no participant ends with an outgoing leg redeemed away and an
//    incoming leg lost while the protocol never reached a verdict. Losing
//    an asset without a decision would be theft-by-crash; blocking
//    protocols lock funds (recoverable in principle) but never do this.
//    One documented exception: Herlihy under message loss, whose
//    timelock-expiry commitment genuinely races dropped redeem gossip
//    (see the in-test comment).
//  * Separation pins: the quorum engine finishes atomically with nothing
//    stranded under EVERY mode, while the blocking baselines demonstrably
//    stall or strand under a phase-precise coordinator crash — the exact
//    gap the commit_study study measures.

struct FaultCell {
  runner::Protocol protocol;
  runner::FailureMode failure;
  uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const FaultCell& c) {
    return os << runner::ProtocolName(c.protocol) << "/"
              << runner::FailureModeName(c.failure) << "/seed" << c.seed;
  }
};

/// True when some participant's outgoing edge was redeemed (asset gone)
/// while one of its incoming edges was refunded or stranded, without any
/// verdict ever being reached.
bool SomeoneLostBothLegsWithoutVerdict(const SwapReport& report) {
  if (report.committed || report.aborted) return false;
  for (const EdgeReport& out : report.edges) {
    if (out.outcome != EdgeOutcome::kRedeemed) continue;
    for (const EdgeReport& in : report.edges) {
      if (in.edge.to != out.edge.from) continue;
      if (in.outcome == EdgeOutcome::kRefunded ||
          in.outcome == EdgeOutcome::kPublished) {
        return true;
      }
    }
  }
  return false;
}

class FaultInjectionPropertyTest : public ::testing::TestWithParam<FaultCell> {
};

TEST_P(FaultInjectionPropertyTest, NoVerdictFreeLossAndQuorumStaysAtomic) {
  const FaultCell cell = GetParam();
  runner::SweepGridConfig grid;
  grid.deadline = Seconds(90);  // Blocked cells run to this deadline.
  runner::SweepPoint point;
  point.protocol = cell.protocol;
  point.topology = runner::Topology::kRing;
  point.size = 4;
  point.failure = cell.failure;
  point.seed = cell.seed;
  auto report = runner::RunSwapReport(grid, point);
  ASSERT_TRUE(report.ok()) << cell << ": " << report.status();

  const bool coordinator_crash =
      cell.failure == runner::FailureMode::kCrashCoordinatorAtPrepare ||
      cell.failure == runner::FailureMode::kCrashCoordinatorAtCommit;
  const bool message_fault =
      cell.failure == runner::FailureMode::kDropMessages ||
      cell.failure == runner::FailureMode::kDuplicateMessages;
  const bool htlc_timelock_race =
      message_fault && cell.protocol == runner::Protocol::kHerlihy;
  if (!htlc_timelock_race) {
    EXPECT_FALSE(SomeoneLostBothLegsWithoutVerdict(*report))
        << cell << "\n" << report->Summary();
  }
  if (message_fault) {
    // Message-level faults are recoverable for every DECISION-BASED
    // engine: resend pacing re-offers lost exchanges and lost tx gossip,
    // while seq fencing and mempool tx-id dedup neutralize duplicates —
    // an atomic verdict with nothing locked. Herlihy is the documented
    // exception (the paper's §4 critique, reproduced rather than
    // asserted away): its commitment is timelock expiry, so a dropped
    // redeem gossip (Herlihy submits each settle call once) leaves that
    // leg to its timelock and genuinely splits the swap — the last leg's
    // redeem reveals the secret while an upstream leg refunds (seeds
    // 301/303 hit exactly this race).
    if (cell.protocol != runner::Protocol::kHerlihy) {
      EXPECT_TRUE(report->finished) << cell << "\n" << report->Summary();
      EXPECT_FALSE(report->AtomicityViolated()) << cell;
      EXPECT_EQ(report->CountOutcome(EdgeOutcome::kPublished), 0) << cell;
    }
  }
  if (cell.protocol == runner::Protocol::kQuorum) {
    // Nonblocking: an atomic verdict with nothing stranded, whatever the
    // injected failure.
    EXPECT_TRUE(report->finished) << cell << "\n" << report->Summary();
    EXPECT_FALSE(report->AtomicityViolated()) << cell;
    EXPECT_EQ(report->CountOutcome(EdgeOutcome::kPublished), 0) << cell;
  } else if (coordinator_crash &&
             (cell.protocol == runner::Protocol::kHerlihy ||
              cell.protocol == runner::Protocol::kAc3tw)) {
    // Expected separation: the blocking baselines either never reach a
    // verdict or strand locked funds when their coordinator dies in the
    // commit window.
    EXPECT_TRUE(!report->finished ||
                report->CountOutcome(EdgeOutcome::kPublished) > 0)
        << cell << " unexpectedly survived a coordinator crash\n"
        << report->Summary();
  }
}

std::vector<FaultCell> AllFaultCells() {
  std::vector<FaultCell> out;
  for (runner::Protocol protocol :
       {runner::Protocol::kHerlihy, runner::Protocol::kAc3tw,
        runner::Protocol::kAc3wn, runner::Protocol::kQuorum}) {
    for (runner::FailureMode failure :
         {runner::FailureMode::kNone, runner::FailureMode::kCrashParticipant,
          runner::FailureMode::kPartitionParticipant,
          runner::FailureMode::kCrashCoordinatorAtPrepare,
          runner::FailureMode::kCrashCoordinatorAtCommit,
          runner::FailureMode::kDropMessages,
          runner::FailureMode::kDuplicateMessages}) {
      for (uint64_t seed : {301ull, 302ull, 303ull}) {
        out.push_back(FaultCell{protocol, failure, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, FaultInjectionPropertyTest,
                         ::testing::ValuesIn(AllFaultCells()));

}  // namespace
}  // namespace ac3::protocols
