// AC2T graph tests: Section 3's model, Section 5.3's shape analysis, the
// Figure 4 / Figure 7 example graphs, and ms(D) (Equation 1).

#include "src/graph/ac2t_graph.h"

#include <gtest/gtest.h>

#include "src/graph/multisig_graph.h"
#include "tests/test_util.h"

namespace ac3::graph {
namespace {

std::vector<crypto::PublicKey> Keys(int n) {
  std::vector<crypto::PublicKey> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(crypto::KeyPair::FromSeed(1000 + i).public_key());
  }
  return out;
}

std::vector<crypto::KeyPair> KeyPairs(int n) {
  std::vector<crypto::KeyPair> out;
  for (int i = 0; i < n; ++i) out.push_back(crypto::KeyPair::FromSeed(1000 + i));
  return out;
}

std::vector<chain::ChainId> Chains(int n) {
  std::vector<chain::ChainId> out;
  for (int i = 0; i < n; ++i) out.push_back(static_cast<chain::ChainId>(i));
  return out;
}

// -------------------------------------------------------------- validation

TEST(Ac2tGraphTest, ValidatesWellFormedGraph) {
  auto keys = Keys(2);
  Ac2tGraph graph = MakeTwoPartySwap(keys[0], keys[1], 0, 100, 1, 50, 42);
  EXPECT_TRUE(graph.Validate().ok());
  EXPECT_EQ(graph.participant_count(), 2u);
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_EQ(graph.timestamp(), 42);
}

TEST(Ac2tGraphTest, RejectsEmptyEdgeSet) {
  Ac2tGraph graph(Keys(2), {}, 0);
  EXPECT_EQ(graph.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(Ac2tGraphTest, RejectsSelfLoop) {
  Ac2tGraph graph(Keys(2), {Ac2tEdge{0, 0, 0, 100}}, 0);
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(Ac2tGraphTest, RejectsOutOfRangeVertex) {
  Ac2tGraph graph(Keys(2), {Ac2tEdge{0, 5, 0, 100}}, 0);
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(Ac2tGraphTest, RejectsZeroAmount) {
  Ac2tGraph graph(Keys(2), {Ac2tEdge{0, 1, 0, 0}}, 0);
  EXPECT_FALSE(graph.Validate().ok());
}

// ---------------------------------------------------------------- encoding

TEST(Ac2tGraphTest, EncodeDecodeRoundTrips) {
  auto keys = Keys(3);
  Ac2tGraph graph = MakeRing(keys, Chains(3), 120, 77);
  auto decoded = Decode<Ac2tGraph>(Encode(graph));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->participants(), graph.participants());
  EXPECT_EQ(decoded->edge_count(), graph.edge_count());
  EXPECT_EQ(decoded->timestamp(), graph.timestamp());
  EXPECT_EQ(Encode(*decoded), Encode(graph));
}

TEST(Ac2tGraphTest, DecodeRejectsTrailingBytes) {
  Bytes encoded = Encode(MakeRing(Keys(3), Chains(3), 120, 77));
  encoded.push_back(0);
  EXPECT_FALSE(Decode<Ac2tGraph>(encoded).ok());
}

TEST(Ac2tGraphTest, TimestampDistinguishesIdenticalSwaps) {
  // "The timestamp t is important to distinguish between identical AC2Ts
  //  among the same participants."
  auto keys = Keys(2);
  Ac2tGraph g1 = MakeTwoPartySwap(keys[0], keys[1], 0, 100, 1, 50, 1);
  Ac2tGraph g2 = MakeTwoPartySwap(keys[0], keys[1], 0, 100, 1, 50, 2);
  EXPECT_NE(Encode(g1), Encode(g2));
}

// ---------------------------------------------------------- shape analysis

TEST(Ac2tGraphTest, TwoPartySwapHasDiameterTwo) {
  auto keys = Keys(2);
  Ac2tGraph graph = MakeTwoPartySwap(keys[0], keys[1], 0, 100, 1, 50, 0);
  // "The smallest transaction graph consists of two nodes and two edges and
  //  hence the graph diameter ... starts at 2."
  EXPECT_EQ(graph.Diameter(), 2u);
  EXPECT_TRUE(graph.IsCyclic());
  EXPECT_TRUE(graph.IsConnected());
}

TEST(Ac2tGraphTest, RingDiameterEqualsSize) {
  for (int n = 3; n <= 8; ++n) {
    Ac2tGraph ring = MakeRing(Keys(n), Chains(n), 100, 0);
    EXPECT_EQ(ring.Diameter(), static_cast<uint32_t>(n)) << n;
    EXPECT_TRUE(ring.IsCyclic());
    EXPECT_TRUE(ring.IsConnected());
  }
}

TEST(Ac2tGraphTest, PathGraphShapes) {
  // 0 -> 1 -> 2: acyclic, connected, diameter 2.
  Ac2tGraph path(Keys(3),
                 {Ac2tEdge{0, 1, 0, 10}, Ac2tEdge{1, 2, 1, 10}}, 0);
  ASSERT_TRUE(path.Validate().ok());
  EXPECT_EQ(path.Diameter(), 2u);
  EXPECT_FALSE(path.IsCyclic());
  EXPECT_TRUE(path.IsConnected());
}

TEST(Ac2tGraphTest, SingleLeaderFeasibility) {
  // A directed ring is single-leader feasible: removing any one vertex
  // breaks the only cycle.
  Ac2tGraph ring = MakeRing(Keys(4), Chains(4), 100, 0);
  EXPECT_TRUE(ring.FindSingleLeader().has_value());

  // Figure 7a is not: removing any vertex leaves a 2-cycle.
  Ac2tGraph fig7a = MakeFigure7aCyclic(Keys(3), Chains(3), 100, 0);
  EXPECT_FALSE(fig7a.FindSingleLeader().has_value());
  for (uint32_t v = 0; v < 3; ++v) {
    EXPECT_FALSE(fig7a.AcyclicWithoutVertex(v)) << v;
  }
}

TEST(Ac2tGraphTest, Figure7bIsDisconnected) {
  Ac2tGraph fig7b = MakeFigure7bDisconnected(Keys(4), Chains(4), 100, 0);
  ASSERT_TRUE(fig7b.Validate().ok());
  EXPECT_FALSE(fig7b.IsConnected());
  EXPECT_EQ(fig7b.edge_count(), 4u);
  // Each two-party component is a 2-cycle; no single leader exists because
  // the graph minus any vertex still contains the other component's cycle.
  EXPECT_FALSE(fig7b.FindSingleLeader().has_value());
}

TEST(Ac2tGraphTest, DescribeClassifiesShapes) {
  auto keys = Keys(4);
  EXPECT_NE(MakeFigure7bDisconnected(keys, Chains(4), 1, 0)
                .Describe()
                .find("disconnected"),
            std::string::npos);
  EXPECT_NE(MakeRing(Keys(3), Chains(3), 1, 0).Describe().find("cyclic"),
            std::string::npos);
}

// -------------------------------------------------- property-style sweeps

class RandomGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphTest, GeneratedGraphsAreValidAndAnalyzable) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextBelow(6));
  Ac2tGraph graph = testutil::MakeRandomGraph(
      Keys(n), Chains(n), 100, /*extra_edge_prob=*/0.3, &rng,
      /*timestamp=*/static_cast<TimePoint>(GetParam()));
  ASSERT_TRUE(graph.Validate().ok());
  EXPECT_TRUE(graph.IsConnected());
  // Diameter of a connected digraph with a covering structure is within
  // [1, |E|]; the analysis must terminate and be stable across calls.
  const uint32_t diam = graph.Diameter();
  EXPECT_GE(diam, 1u);
  EXPECT_LE(diam, graph.edge_count());
  EXPECT_EQ(graph.Diameter(), diam);
  // Round trip preserves analysis results.
  auto decoded = Decode<Ac2tGraph>(Encode(graph));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Diameter(), diam);
  EXPECT_EQ(decoded->IsCyclic(), graph.IsCyclic());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Range<uint64_t>(1, 33));

// ------------------------------------------------------------------ ms(D)

// The checks a verifier of ms(D) makes: the signed message is the graph's
// encoding (Trent decodes the graph from it), and every participant signed
// (the witness contract's VerifyAll).

TEST(MultisigGraphTest, SignAndVerifyRoundTrip) {
  auto keys = KeyPairs(3);
  Ac2tGraph graph = MakeRing(Keys(3), Chains(3), 100, 5);
  auto ms = SignGraph(graph, keys);
  ASSERT_TRUE(ms.ok()) << ms.status();
  EXPECT_EQ(ms->message(), Encode(graph));
  EXPECT_TRUE(ms->VerifyAll(graph.participants()));
}

TEST(MultisigGraphTest, SignatureOrderDoesNotMatter) {
  // "The order of participant signatures in ms(D) is not important."
  auto keys = KeyPairs(3);
  Ac2tGraph graph = MakeRing(Keys(3), Chains(3), 100, 5);
  std::vector<crypto::KeyPair> shuffled = {keys[2], keys[0], keys[1]};
  auto ms = SignGraph(graph, shuffled);
  ASSERT_TRUE(ms.ok());
  EXPECT_EQ(ms->message(), Encode(graph));
  EXPECT_TRUE(ms->VerifyAll(graph.participants()));
}

TEST(MultisigGraphTest, MissingSignerFailsVerification) {
  auto keys = KeyPairs(3);
  Ac2tGraph graph = MakeRing(Keys(3), Chains(3), 100, 5);
  auto partial = SignGraph(graph, {keys[0], keys[1]});
  // Either signing reports the mismatch or verification must fail.
  if (partial.ok()) {
    EXPECT_FALSE(partial->VerifyAll(graph.participants()));
  }
}

TEST(MultisigGraphTest, WrongGraphFailsVerification) {
  auto keys = KeyPairs(2);
  Ac2tGraph g1 = MakeTwoPartySwap(Keys(2)[0], Keys(2)[1], 0, 100, 1, 50, 1);
  Ac2tGraph g2 = MakeTwoPartySwap(Keys(2)[0], Keys(2)[1], 0, 100, 1, 50, 2);
  auto ms = SignGraph(g1, keys);
  ASSERT_TRUE(ms.ok());
  EXPECT_EQ(ms->message(), Encode(g1));
  EXPECT_NE(ms->message(), Encode(g2));
}

TEST(MultisigGraphTest, TamperedSignatureDetected) {
  auto keys = KeyPairs(2);
  Ac2tGraph graph = MakeTwoPartySwap(Keys(2)[0], Keys(2)[1], 0, 100, 1, 50, 1);
  auto ms = SignGraph(graph, keys);
  ASSERT_TRUE(ms.ok());
  auto encoded = Encode(*ms);
  encoded[encoded.size() / 2] ^= 0x01;
  auto tampered = Decode<crypto::Multisignature>(encoded);
  if (tampered.ok()) {
    EXPECT_FALSE(tampered->message() == Encode(graph) &&
                 tampered->VerifyAll(graph.participants()));
  }
}

}  // namespace
}  // namespace ac3::graph
