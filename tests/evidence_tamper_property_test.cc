// Property sweep: EVERY way of tampering with Section 4.3 header-chain
// evidence must be caught by VerifyHeaderChainEvidence. One valid evidence
// object is built per seed, one mutation per tamper mode is applied, and
// verification must flip from OK to failure (sanity: the untampered object
// verifies).

#include <gtest/gtest.h>

#include <ostream>

#include "src/contracts/evidence.h"
#include "src/contracts/evidence_builder.h"
#include "src/chain/wallet.h"
#include "tests/test_util.h"

namespace ac3::contracts {
namespace {

const crypto::KeyPair kAlice = crypto::KeyPair::FromSeed(51);
const crypto::KeyPair kBob = crypto::KeyPair::FromSeed(52);

enum class Tamper {
  kNone,                  ///< Control: must verify.
  kDropFirstHeader,       ///< Evidence no longer extends the checkpoint.
  kDropMiddleHeader,      ///< Linkage breaks inside the chain.
  kFlipHeaderNonce,       ///< PoW of one header becomes invalid.
  kFlipLeafByte,          ///< Merkle proof no longer binds the leaf.
  kWrongTargetIndex,      ///< Proof checked against the wrong header.
  kFlipLeafFamily,        ///< Tx leaf presented as receipt (wrong root).
  kTruncateProof,         ///< Proof path shortened.
  kRaiseMinConfirmations, ///< Honest evidence, but too shallow.
};

struct Case {
  Tamper tamper;
  uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const Case& c) {
    static const char* names[] = {
        "none",         "drop-first",   "drop-middle",
        "flip-nonce",   "flip-leaf",    "wrong-index",
        "flip-family",  "trunc-proof",  "raise-minconf"};
    return os << names[static_cast<int>(c.tamper)] << "/seed" << c.seed;
  }
};

class EvidenceTamperTest : public ::testing::TestWithParam<Case> {};

TEST_P(EvidenceTamperTest, TamperedEvidenceRejected) {
  const Case& c = GetParam();

  // A fresh chain with the transaction of interest buried at depth 4.
  testutil::TestChain world(
      chain::TestChainParams(),
      testutil::Fund({kAlice.public_key(), kBob.public_key()}, 2000), c.seed);
  chain::Wallet alice(kAlice, world.chain().id());
  auto tx = alice.BuildTransfer(world.chain().StateAtHead(),
                                kBob.public_key(), 10, 1, 1);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(world.MineTxToDepth(*tx, 4).ok());

  auto built = BuildTxEvidence(world.chain(), world.chain().genesis()->hash,
                               tx->Id());
  ASSERT_TRUE(built.ok());
  HeaderChainEvidence evidence = *built;
  const chain::BlockHeader checkpoint = world.chain().genesis()->block.header;
  const uint32_t bits = world.chain().params().difficulty_bits;
  uint32_t min_confirmations = 3;

  switch (c.tamper) {
    case Tamper::kNone:
      break;
    case Tamper::kDropFirstHeader:
      evidence.headers.erase(evidence.headers.begin());
      if (evidence.target_index > 0) evidence.target_index -= 1;
      break;
    case Tamper::kDropMiddleHeader:
      ASSERT_GE(evidence.headers.size(), 3u);
      evidence.headers.erase(evidence.headers.begin() + 2);
      break;
    case Tamper::kFlipHeaderNonce:
      evidence.headers[1].nonce ^= 1;
      break;
    case Tamper::kFlipLeafByte:
      evidence.leaf[evidence.leaf.size() / 2] ^= 0x01;
      break;
    case Tamper::kWrongTargetIndex:
      evidence.target_index += 1;
      ASSERT_LT(evidence.target_index, evidence.headers.size());
      break;
    case Tamper::kFlipLeafFamily:
      evidence.leaf_is_receipt = !evidence.leaf_is_receipt;
      break;
    case Tamper::kTruncateProof:
      ASSERT_FALSE(evidence.proof.path.empty());
      evidence.proof.path.pop_back();
      break;
    case Tamper::kRaiseMinConfirmations:
      min_confirmations = evidence.ConfirmationsShown() + 1;
      break;
  }

  Status verified = VerifyHeaderChainEvidence(checkpoint, bits, evidence,
                                              min_confirmations);
  if (c.tamper == Tamper::kNone) {
    EXPECT_TRUE(verified.ok()) << GetParam() << ": " << verified;
  } else {
    EXPECT_FALSE(verified.ok()) << GetParam() << " must be rejected";
  }

  // Encode/decode round trip does not launder tampering.
  auto decoded = Decode<HeaderChainEvidence>(Encode(evidence));
  if (decoded.ok()) {
    Status reverified = VerifyHeaderChainEvidence(checkpoint, bits, *decoded,
                                                  min_confirmations);
    EXPECT_EQ(reverified.ok(), verified.ok()) << GetParam();
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> out;
  for (Tamper tamper :
       {Tamper::kNone, Tamper::kDropFirstHeader, Tamper::kDropMiddleHeader,
        Tamper::kFlipHeaderNonce, Tamper::kFlipLeafByte,
        Tamper::kWrongTargetIndex, Tamper::kFlipLeafFamily,
        Tamper::kTruncateProof, Tamper::kRaiseMinConfirmations}) {
    for (uint64_t seed : {601ull, 602ull, 603ull}) {
      out.push_back(Case{tamper, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EvidenceTamperTest,
                         ::testing::ValuesIn(AllCases()));

}  // namespace
}  // namespace ac3::contracts
