// The paper's motivating example (Section 1), side by side.
//
// Bob crashes at the worst possible moment: both contracts are locked and
// the secret is about to be revealed. Under Nolan's HTLC protocol Bob's
// timelock expires while he is down — Alice redeems his ether AND refunds
// her bitcoin, and crashed Bob ends up worse off (atomicity violated).
// Under AC3WN the same crash schedule is harmless: the witness network's
// decision outlives the crash, and Bob redeems after he recovers.
//
//   $ ./build/examples/crash_tolerance

#include <cstdio>

#include "src/core/scenario.h"
#include "src/graph/ac2t_graph.h"
#include "src/protocols/ac3wn_swap.h"
#include "src/protocols/herlihy_swap.h"

using namespace ac3;

namespace {

/// Crashes Bob the moment both asset contracts are on-chain, for `down`.
void CrashBobAtDecisionPoint(core::ScenarioWorld* world, Duration down) {
  Status published = world->env()->sim()->RunUntilCondition(
      [world]() {
        return !world->env()->blockchain(0)->StateAtHead().contracts.empty() &&
               !world->env()->blockchain(1)->StateAtHead().contracts.empty();
      },
      Minutes(5));
  if (!published.ok()) return;
  std::printf("  [t=%lld ms] both contracts locked; Bob crashes for %lld ms\n",
              static_cast<long long>(world->env()->sim()->Now()),
              static_cast<long long>(down));
  world->env()->failures()->CrashFor(world->participant(1)->node(),
                                     world->env()->sim()->Now(), down);
}

void Report(const char* proto, const protocols::SwapReport& report,
            protocols::Participant* bob) {
  std::printf("  %s: %s\n", proto, report.Summary().c_str());
  std::printf("  Bob's balances after: chain0=%llu chain1=%llu\n",
              (unsigned long long)bob->BalanceOn(0),
              (unsigned long long)bob->BalanceOn(1));
  std::printf("  all-or-nothing: %s\n\n",
              report.AtomicityViolated() ? "VIOLATED — Bob lost his asset"
                                         : "preserved");
}

}  // namespace

int main() {
  const chain::Amount x = 300, y = 200;

  std::printf("== Nolan HTLC under Bob's crash ==\n");
  {
    core::ScenarioOptions options;
    options.witness_chain = false;
    options.seed = 71;
    core::ScenarioWorld world(options);
    world.StartMining();
    graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
        world.participant(0)->pk(), world.participant(1)->pk(),
        world.asset_chain(0), x, world.asset_chain(1), y, 0);
    protocols::HerlihySwapEngine engine(
        world.env(), graph, {world.participant(0), world.participant(1)},
        protocols::HtlcConfig{});
    if (!engine.Start().ok()) return 1;
    CrashBobAtDecisionPoint(&world, Seconds(60));
    auto report = engine.Run(Minutes(10));
    if (report.ok()) Report("HTLC ", *report, world.participant(1));
  }

  std::printf("== AC3WN under the same crash schedule ==\n");
  {
    core::ScenarioOptions options;
    options.seed = 71;
    core::ScenarioWorld world(options);
    world.StartMining();
    graph::Ac2tGraph graph = graph::MakeTwoPartySwap(
        world.participant(0)->pk(), world.participant(1)->pk(),
        world.asset_chain(0), x, world.asset_chain(1), y, 0);
    protocols::Ac3wnConfig config;
    config.confirm_depth = 1;
    config.witness_depth_d = 2;
    protocols::Ac3wnSwapEngine engine(world.env(), graph,
                                      world.all_participants(),
                                      world.witness_chain(), config);
    if (!engine.Start().ok()) return 1;
    CrashBobAtDecisionPoint(&world, Seconds(60));
    auto report = engine.Run(Minutes(10));
    if (report.ok()) Report("AC3WN", *report, world.participant(1));
  }

  std::printf(
      "The HTLC run reproduces the paper's criticism: a crash across the\n"
      "timelock window splits the swap (one redeem + one refund). AC3WN's\n"
      "commitment-scheme secret is the witness chain itself — no timelock,\n"
      "so the crashed participant settles after recovery.\n");
  return 0;
}
