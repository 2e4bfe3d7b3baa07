// Sections 1 and 5.1 — the motivating claim, as a failure matrix.
//
// For each protocol (Nolan/Herlihy HTLC, AC3TW, AC3WN) and each failure
// schedule, the harness runs the full simulated swap and reports the
// outcome and whether the all-or-nothing property survived.
//
// Expected shape: the HTLC baseline violates atomicity when the recipient
// crashes across his timelock (the crashed participant loses his asset);
// AC3TW and AC3WN stay atomic under every schedule (Lemmas 5.1/5.3) — the
// witnessed protocols convert the violation into either commit-late or
// abort.

#include <cstdio>
#include <functional>
#include <string>

#include "bench/study.h"
#include "src/protocols/ac3tw_swap.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"

namespace ac3 {
namespace {

constexpr TimePoint kDeadline = Minutes(30);

enum class Proto { kHtlc, kAc3tw, kAc3wn };

const char* ProtoName(Proto proto) {
  switch (proto) {
    case Proto::kHtlc: return "HTLC";
    case Proto::kAc3tw: return "AC3TW";
    case Proto::kAc3wn: return "AC3WN";
  }
  return "?";
}

struct FailureCase {
  std::string name;
  /// Applies the failure; `decision_point_crash` targets the window where
  /// the HTLC secret is in flight.
  std::function<void(core::ScenarioWorld*, protocols::TrustedWitness*)> inject;
};

struct Outcome {
  bool finished = false;
  bool committed = false;
  bool aborted = false;
  bool atomic = true;
  int redeemed = 0;
  int refunded = 0;
  int unpublished = 0;
};

Outcome Summarize(const protocols::SwapReport& report) {
  Outcome out;
  out.finished = report.finished;
  out.committed = report.committed;
  out.aborted = report.aborted;
  out.atomic = !report.AtomicityViolated();
  out.redeemed = report.CountOutcome(protocols::EdgeOutcome::kRedeemed);
  out.refunded = report.CountOutcome(protocols::EdgeOutcome::kRefunded);
  out.unpublished = report.CountOutcome(protocols::EdgeOutcome::kUnpublished);
  return out;
}

Outcome RunCase(Proto proto, const FailureCase& failure, uint64_t seed) {
  core::ScenarioOptions options;
  options.seed = seed;
  options.witness_chain = proto == Proto::kAc3wn;
  core::ScenarioWorld world(options);
  protocols::TrustedWitness trent("Trent", 0x7ae47 ^ seed, world.env());

  graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
      world.participant(0)->pk(), world.participant(1)->pk(),
      world.asset_chain(0), 300, world.asset_chain(1), 200, 0);

  world.StartMining();

  if (proto == Proto::kHtlc) {
    protocols::HerlihySwapEngine engine(world.env(), graph,
                                        world.all_participants(), {});
    Status started = engine.Start();
    if (!started.ok()) return Outcome{};
    // HTLC's vulnerable window: both contracts published, secret not yet
    // observed by the non-leader. Injection waits for that point.
    failure.inject(&world, &trent);
    auto report = engine.Run(kDeadline);
    return report.ok() ? Summarize(*report) : Outcome{};
  }
  if (proto == Proto::kAc3tw) {
    protocols::Ac3twSwapEngine engine(world.env(), graph,
                                      world.all_participants(), &trent, {});
    Status started = engine.Start();
    if (!started.ok()) return Outcome{};
    failure.inject(&world, &trent);
    auto report = engine.Run(kDeadline);
    return report.ok() ? Summarize(*report) : Outcome{};
  }
  protocols::Ac3wnSwapEngine engine(world.env(), graph,
                                    world.all_participants(),
                                    world.witness_chain(), {});
  Status started = engine.Start();
  if (!started.ok()) return Outcome{};
  failure.inject(&world, &trent);
  auto report = engine.Run(kDeadline);
  return report.ok() ? Summarize(*report) : Outcome{};
}

/// Crashes the recipient from the moment both asset contracts are on their
/// chains (the HTLC decision point) for `down` ms.
void CrashRecipientAtDecisionPoint(core::ScenarioWorld* world, Duration down) {
  Status published = world->env()->sim()->RunUntilCondition(
      [world]() {
        return !world->env()
                    ->blockchain(world->asset_chain(0))
                    ->StateAtHead()
                    .contracts.empty() &&
               !world->env()
                    ->blockchain(world->asset_chain(1))
                    ->StateAtHead()
                    .contracts.empty();
      },
      Minutes(5));
  if (!published.ok()) return;
  world->env()->failures()->CrashFor(world->participant(1)->node(),
                                     world->env()->sim()->Now(), down);
}

}  // namespace

namespace bench {

StudyRun AtomicityFailures(const Options& context) {
  benchutil::PrintHeader(
      "Sections 1 / 5.1 — atomicity under failures, protocol x schedule\n"
      "(HTLC = Nolan/Herlihy hashlock+timelock baseline)");

  std::vector<FailureCase> cases = {
      {"none", [](core::ScenarioWorld*, protocols::TrustedWitness*) {}},
      {"recipient crash @decision, 60s",
       [](core::ScenarioWorld* world, protocols::TrustedWitness*) {
         CrashRecipientAtDecisionPoint(world, Seconds(60));
       }},
      {"recipient crash @start, 25s",
       [](core::ScenarioWorld* world, protocols::TrustedWitness*) {
         world->env()->failures()->CrashFor(world->participant(1)->node(), 0,
                                            Seconds(25));
       }},
      {"sender crash @2s, 25s",
       [](core::ScenarioWorld* world, protocols::TrustedWitness*) {
         world->env()->failures()->CrashFor(world->participant(0)->node(),
                                            Seconds(2), Seconds(25));
       }},
      {"counterparty declines",
       [](core::ScenarioWorld* world, protocols::TrustedWitness*) {
         world->participant(1)->behavior().decline_publish = true;
       }},
      {"witness DoS 20s (Trent only)",
       [](core::ScenarioWorld* world, protocols::TrustedWitness* trent) {
         world->env()->failures()->CrashFor(trent->node(), Seconds(1),
                                            Seconds(20));
       }},
  };
  if (context.smoke) {
    // Keep the headline rows: no-failure plus the paper's motivating
    // recipient-crash schedule.
    cases.resize(2);
  }

  std::printf("%-32s | %-6s | %9s | %8s | %-18s\n", "failure schedule",
              "proto", "outcome", "atomic?", "edges (RD/RF/unpub)");
  benchutil::PrintRule(92);
  int htlc_violations = 0, witnessed_violations = 0;
  runner::Json matrix = runner::Json::Array();
  for (const FailureCase& failure : cases) {
    for (Proto proto : {Proto::kHtlc, Proto::kAc3tw, Proto::kAc3wn}) {
      Outcome outcome = RunCase(proto, failure, /*seed=*/51);
      const char* verdict = outcome.committed   ? "commit"
                            : outcome.aborted   ? "abort"
                            : outcome.finished  ? "mixed"
                                                : "stalled";
      std::printf("%-32s | %-6s | %9s | %8s | %d/%d/%d\n",
                  failure.name.c_str(), ProtoName(proto), verdict,
                  outcome.atomic ? "yes" : "NO", outcome.redeemed,
                  outcome.refunded, outcome.unpublished);
      runner::Json cell = runner::Json::Object();
      cell.Set("failure", failure.name);
      cell.Set("protocol", ProtoName(proto));
      cell.Set("verdict", verdict);
      cell.Set("atomic", outcome.atomic);
      cell.Set("redeemed", outcome.redeemed);
      cell.Set("refunded", outcome.refunded);
      cell.Set("unpublished", outcome.unpublished);
      matrix.Push(std::move(cell));
      if (!outcome.atomic) {
        if (proto == Proto::kHtlc) {
          ++htlc_violations;
        } else {
          ++witnessed_violations;
        }
      }
    }
    benchutil::PrintRule(92);
  }
  std::printf(
      "\nshape check: HTLC violated atomicity in %d schedule(s) (the paper's\n"
      "motivating crash scenario); the witnessed protocols violated it in %d\n"
      "— AC3WN additionally never stalls on a witness crash (its witness is\n"
      "a replicated network, not a process).\n",
      htlc_violations, witnessed_violations);
  runner::Json results = runner::Json::Object();
  results.Set("matrix", std::move(matrix));
  results.Set("htlc_violations", htlc_violations);
  results.Set("witnessed_violations", witnessed_violations);
  return {std::move(results), runner::Json(), witnessed_violations == 0};
}

}  // namespace bench
}  // namespace ac3
