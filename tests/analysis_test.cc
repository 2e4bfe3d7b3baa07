// Unit tests for the Section 6 closed-form models, pinned to the numbers
// the paper itself quotes.

#include <gtest/gtest.h>

#include "src/analysis/cost_model.h"
#include "src/analysis/latency_model.h"
#include "src/analysis/throughput_model.h"
#include "src/analysis/witness_selection.h"

namespace ac3::analysis {
namespace {

// ---------------------------------------------------------------- Sec 6.1

TEST(LatencyModelTest, HerlihyGrowsLinearlyWithDiameter) {
  EXPECT_EQ(HerlihyLatencyDeltas(2), 4u);
  EXPECT_EQ(HerlihyLatencyDeltas(5), 10u);
  EXPECT_EQ(HerlihyLatencyDeltas(20), 40u);
}

TEST(LatencyModelTest, Ac3wnIsConstantFourDeltas) {
  EXPECT_EQ(Ac3wnLatencyDeltas(), 4u);
}

TEST(LatencyModelTest, CrossoverAtDiameterTwo) {
  // Diam = 2 (the smallest graph): both protocols cost 4Δ; every larger
  // diameter favours AC3WN.
  EXPECT_EQ(CrossoverDiameter(), 2u);
  EXPECT_EQ(HerlihyLatencyDeltas(2), Ac3wnLatencyDeltas());
  for (uint32_t diam = 3; diam <= 30; ++diam) {
    EXPECT_GT(HerlihyLatencyDeltas(diam), Ac3wnLatencyDeltas()) << diam;
  }
}

// ---------------------------------------------------------------- Sec 6.2

TEST(CostModelTest, FeesMatchPaperFormulas) {
  const chain::Amount fd = 4, ffc = 2;
  for (uint32_t n = 1; n <= 20; ++n) {
    EXPECT_EQ(HerlihyFee(n, fd, ffc), n * (fd + ffc));
    EXPECT_EQ(Ac3wnFee(n, fd, ffc), (n + 1) * (fd + ffc));
  }
}

TEST(CostModelTest, OverheadIsOneOverN) {
  EXPECT_DOUBLE_EQ(Ac3wnOverheadRatio(1), 1.0);
  EXPECT_DOUBLE_EQ(Ac3wnOverheadRatio(2), 0.5);
  EXPECT_DOUBLE_EQ(Ac3wnOverheadRatio(10), 0.1);
  // Consistency with the fee formulas themselves.
  const chain::Amount fd = 7, ffc = 3;
  for (uint32_t n = 1; n <= 16; ++n) {
    const double measured =
        static_cast<double>(Ac3wnFee(n, fd, ffc) - HerlihyFee(n, fd, ffc)) /
        static_cast<double>(HerlihyFee(n, fd, ffc));
    EXPECT_DOUBLE_EQ(measured, Ac3wnOverheadRatio(n)) << n;
  }
}

TEST(CostModelTest, ScwDollarCostMatchesPaperQuotes) {
  // "$4 when the ether to USD rate is $300 ... approximately $2 assuming
  //  the current ether to USD rate of $140."
  EXPECT_DOUBLE_EQ(ScwDollarCost(4.0, 300.0), 4.0);
  EXPECT_NEAR(ScwDollarCost(4.0, 140.0), 1.87, 0.01);
}

// ---------------------------------------------------------------- Sec 6.3

TEST(WitnessSelectionTest, PaperExampleOneMillionOnBitcoin) {
  // "let Va be $1M ... Ch = $300K ... d must be set to be > 20."
  EXPECT_DOUBLE_EQ(RequiredDepthBound(1e6, 6.0, 300e3), 20.0);
  EXPECT_EQ(MinimumSafeDepth(1e6, 6.0, 300e3), 21u);
  // Depth 20 leaves the attack worth its cost; 21 makes it a loss.
  EXPECT_LE(AttackCostForDepth(20, 6.0, 300e3), 1e6);
  EXPECT_GT(AttackCostForDepth(21, 6.0, 300e3), 1e6);
}

TEST(WitnessSelectionTest, DepthGrowsLinearlyInAssetValue) {
  uint32_t prev = 0;
  for (double value = 100e3; value <= 10e6; value *= 2) {
    uint32_t depth = MinimumSafeDepth(value, 6.0, 300e3);
    EXPECT_GE(depth, prev);
    prev = depth;
  }
  // Doubling the asset value roughly doubles the depth.
  EXPECT_NEAR(static_cast<double>(MinimumSafeDepth(2e6, 6.0, 300e3)) /
                  static_cast<double>(MinimumSafeDepth(1e6, 6.0, 300e3)),
              2.0, 0.1);
}

TEST(WitnessSelectionTest, AttackCostFormula) {
  // d blocks at dh blocks/hour costs d/dh hours of Ch dollars.
  EXPECT_DOUBLE_EQ(AttackCostForDepth(6, 6.0, 300e3), 300e3);
  EXPECT_DOUBLE_EQ(AttackCostForDepth(12, 6.0, 300e3), 600e3);
}

TEST(WitnessSelectionTest, ForkCatchUpProbabilityDecaysGeometrically) {
  EXPECT_DOUBLE_EQ(ForkCatchUpProbability(0.0, 6), 0.0);
  EXPECT_DOUBLE_EQ(ForkCatchUpProbability(0.5, 6), 1.0);
  const double p1 = ForkCatchUpProbability(0.25, 1);
  EXPECT_NEAR(p1, 1.0 / 3.0, 1e-12);
  for (uint32_t d = 1; d < 12; ++d) {
    EXPECT_NEAR(ForkCatchUpProbability(0.25, d + 1),
                ForkCatchUpProbability(0.25, d) * p1, 1e-12);
  }
  // Six confirmations against a 25% attacker: well under 1%.
  EXPECT_LT(ForkCatchUpProbability(0.25, 6), 0.01);
}

TEST(WitnessSelectionTest, RankingSortsByFinalityTime) {
  std::vector<chain::ChainParams> candidates = {
      chain::BitcoinParams(), chain::EthereumParams(),
      chain::LitecoinParams(), chain::BitcoinCashParams()};
  auto ranked = RankWitnessNetworks(candidates, /*asset_value_usd=*/1e6);
  ASSERT_EQ(ranked.size(), 4u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].finality_hours, ranked[i].finality_hours);
  }
  // Every recommendation must actually disincentivize the attack.
  for (const WitnessChoice& choice : ranked) {
    EXPECT_GT(choice.attack_cost_usd, 1e6) << choice.chain_name;
  }
}

// ---------------------------------------------------------------- Sec 6.4

TEST(ThroughputModelTest, Table1Figures) {
  // Table 1's throughputs, as the chain presets carry them.
  EXPECT_EQ(chain::BitcoinParams().name, "Bitcoin");
  EXPECT_DOUBLE_EQ(chain::BitcoinParams().real_tps, 7.0);
  EXPECT_EQ(chain::EthereumParams().name, "Ethereum");
  EXPECT_DOUBLE_EQ(chain::EthereumParams().real_tps, 25.0);
  EXPECT_EQ(chain::LitecoinParams().name, "Litecoin");
  EXPECT_DOUBLE_EQ(chain::LitecoinParams().real_tps, 56.0);
  EXPECT_EQ(chain::BitcoinCashParams().name, "BitcoinCash");
  EXPECT_DOUBLE_EQ(chain::BitcoinCashParams().real_tps, 61.0);
}

TEST(ThroughputModelTest, PaperExampleEthereumLitecoinWitnessedByBitcoin) {
  // "An example AC2T that exchange[s] assets among Ethereum and Litecoin
  //  ... witnessed by the Bitcoin network achieves a throughput of 7."
  EXPECT_DOUBLE_EQ(
      Ac2tThroughput({chain::EthereumParams(), chain::LitecoinParams()},
                     chain::BitcoinParams()),
      7.0);
}

TEST(ThroughputModelTest, WitnessFromInvolvedSetAvoidsTheBottleneck) {
  std::vector<chain::ChainParams> involved = {chain::EthereumParams(),
                                              chain::LitecoinParams()};
  const chain::ChainParams& witness = BestWitnessAmongInvolved(involved);
  EXPECT_EQ(witness.name, "Litecoin");
  // Witnessing inside the involved set keeps the min at the slowest asset
  // chain (Ethereum's 25), strictly better than importing Bitcoin's 7.
  EXPECT_DOUBLE_EQ(Ac2tThroughput(involved, witness), 25.0);
}

TEST(ThroughputModelTest, CompositeIsMin) {
  EXPECT_DOUBLE_EQ(CompositeThroughput({7, 25, 56}), 7.0);
  EXPECT_DOUBLE_EQ(CompositeThroughput({61}), 61.0);
  EXPECT_DOUBLE_EQ(CompositeThroughput({}), 0.0);
}

}  // namespace
}  // namespace ac3::analysis
