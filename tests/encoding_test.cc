// Known answers for the canonical encodings that every id, signature and
// Merkle leaf covers, and a seeded mutation loop over the decoders.
//
// The expected bytes were captured from the byte-at-a-time ByteWriter and
// the copy-the-message Schnorr hashes. Any change to them changes every
// transaction id, every signature and every golden, so an encoder change
// that moves one of these strings is a format change, not a speedup.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/chain/block.h"
#include "src/chain/receipt.h"
#include "src/chain/transaction.h"
#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/contracts/centralized_contract.h"
#include "src/contracts/evidence.h"
#include "src/contracts/htlc_contract.h"
#include "src/contracts/permissionless_contract.h"
#include "src/contracts/relay_contract.h"
#include "src/contracts/witness_contract.h"
#include "src/crypto/merkle.h"
#include "src/crypto/multisig.h"
#include "src/graph/ac2t_graph.h"
#include "src/graph/multisig_graph.h"
#include "src/protocols/messages.h"
#include "tests/test_util.h"

namespace ac3 {
namespace {

using chain::MutableTransaction;
using testutil::Mutate;
using chain::OutPoint;
using chain::Receipt;
using chain::Transaction;
using chain::TxOutput;
using chain::TxType;
using crypto::KeyPair;

// ------------------------------------------------------------ ByteWriter

TEST(ByteWriterTest, EveryPutIsLittleEndian) {
  const auto hex = [](auto put) {
    ByteWriter w;
    put(&w);
    return ToHex(w.bytes());
  };
  EXPECT_EQ(hex([](ByteWriter* w) { w->PutU8(0xa1); }), "a1");
  EXPECT_EQ(hex([](ByteWriter* w) { w->PutU16(0x0201); }), "0102");
  EXPECT_EQ(hex([](ByteWriter* w) { w->PutU32(0x04030201); }), "01020304");
  EXPECT_EQ(hex([](ByteWriter* w) { w->PutU64(0x0807060504030201); }),
            "0102030405060708");
  EXPECT_EQ(hex([](ByteWriter* w) { w->PutI64(-2); }), "feffffffffffffff");
  EXPECT_EQ(hex([](ByteWriter* w) { w->PutBytes(Bytes{0xaa, 0xbb}); }),
            "02000000aabb");
  EXPECT_EQ(hex([](ByteWriter* w) { w->PutBytes(Bytes{}); }), "00000000");
  EXPECT_EQ(hex([](ByteWriter* w) { w->PutString("ac3"); }), "03000000616333");
  EXPECT_EQ(hex([](ByteWriter* w) { w->PutRaw(Bytes{0xcc, 0xdd}); }), "ccdd");
  EXPECT_EQ(hex([](ByteWriter* w) {
              const uint8_t raw[] = {0xee, 0xff, 0x00};
              w->PutRaw(raw, sizeof(raw));
            }),
            "eeff00");
  // Fields follow one another with no padding.
  EXPECT_EQ(hex([](ByteWriter* w) {
              w->PutU8(1);
              w->PutU32(2);
              w->PutU16(3);
              w->PutU64(4);
            }),
            "010200000003000400000000000000");
}

// ----------------------------------------------------------- transactions

/// A one-input, two-output transfer as the workload generator builds them.
MutableTransaction FixedTransfer() {
  MutableTransaction m;
  m.type = TxType::kTransfer;
  m.chain_id = 7;
  m.inputs.push_back(OutPoint{crypto::Hash256::OfString("kat/input"), 3});
  m.outputs.push_back(TxOutput{600, KeyPair::FromSeed(2).public_key()});
  m.outputs.push_back(TxOutput{399, KeyPair::FromSeed(1).public_key()});
  m.fee = 1;
  m.nonce = 42;
  m.SignWith(KeyPair::FromSeed(1));
  return m;
}

TEST(EncodingKnownAnswerTest, TransferSigningPayloadEncodingAndId) {
  const MutableTransaction m = FixedTransfer();
  EXPECT_EQ(ToHex(m.SigningPayload()),
            "060000006163332f7478020700000001000000b78874e4ba0699e6797f31b4d3"
            "16a061b2b58335768006323b9b376d36c9c76203000000020000005802000000"
            "00000002eb6917fd18270a8f01000000000000522cc088b77174000100000000"
            "000000522cc088b77174002a0000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "00000000000000");
  EXPECT_EQ(ToHex(m.Encode()),
            "020700000001000000b78874e4ba0699e6797f31b4d316a061b2b58335768006"
            "323b9b376d36c9c7620300000002000000580200000000000002eb6917fd1827"
            "0a8f01000000000000522cc088b77174000100000000000000522cc088b77174"
            "002a000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000f9538e"
            "6d000000001b75be1c00000000");
  const Transaction tx(m);
  EXPECT_EQ(tx.Id().ToHex(),
            "2508e9446bc77930854f8af9a2aadf6ce98e6fc0a37e4357b5121082f9fba99a");
  EXPECT_TRUE(tx.VerifySignature());
}

// ---------------------------------------------------------------- Schnorr

TEST(EncodingKnownAnswerTest, KeysFromSeed) {
  EXPECT_EQ(KeyPair::FromSeed(1).public_key().y(), 32776130385685586u);
  EXPECT_EQ(KeyPair::FromSeed(2).public_key().y(), 731580939769604866u);
  EXPECT_EQ(KeyPair::FromSeed(0xdeadbeef).public_key().y(),
            1337131334065367152u);
}

TEST(EncodingKnownAnswerTest, SignaturesOverFixedMessages) {
  // Lengths around the 64-byte block: the challenge hash reads a 20-byte
  // prefix and the nonce hash a 27-byte one before the message.
  struct Case {
    size_t length;
    uint64_t e;
    uint64_t s;
  };
  const Case cases[] = {
      {0, 1405257052, 490408479},    {3, 337888941, 124428953},
      {37, 1258877157, 986379219},   {44, 325409657, 1270577499},
      {45, 932568176, 440906041},    {100, 2048341313, 1874930756},
      {167, 440903097, 449675220},
  };
  const KeyPair key = KeyPair::FromSeed(1);
  for (const Case& c : cases) {
    Bytes message(c.length);
    for (size_t i = 0; i < c.length; ++i) {
      message[i] = static_cast<uint8_t>(i * 7 + 1);
    }
    const crypto::Signature sig = key.Sign(message);
    EXPECT_EQ(sig.e, c.e) << c.length;
    EXPECT_EQ(sig.s, c.s) << c.length;
    EXPECT_TRUE(crypto::Verify(key.public_key(), message, sig)) << c.length;
  }
}

// --------------------------------------------------------------- receipts

TEST(EncodingKnownAnswerTest, ReceiptEncodingAndLeafHash) {
  Receipt receipt;
  receipt.tx_id = crypto::Hash256::OfString("kat/tx");
  receipt.success = true;
  receipt.contract_id = crypto::Hash256::OfString("kat/contract");
  receipt.state_digest = Bytes{1, 2, 3, 4};
  receipt.note = "redeemed";
  EXPECT_EQ(ToHex(receipt.Encode()),
            "21e80ce97deaf8c46dbf7576ee665eb4ecdc7461bc01fe62bca5fbda409626af"
            "01eb2b92bd88c383038be68121f8adb82b439c70a4c77282b7cd084a4957c464"
            "9304000000010203040800000072656465656d6564");
  EXPECT_EQ(receipt.LeafHash().ToHex(),
            "18636f2d1dc65b61b14676faae35c880e4be730fa10aae9c54486816005ec527");
}

TEST(EncodingKnownAnswerTest, KeyAndSignatureEncodeIsEncodeTo) {
  EXPECT_EQ(ToHex(crypto::PublicKey(0x0807060504030201).Encode()),
            "0102030405060708");
  EXPECT_EQ(ToHex(crypto::Signature{0x0807060504030201, 2}.Encode()),
            "01020304050607080200000000000000");
  for (const uint64_t seed : {1, 2, 3}) {
    const KeyPair key = KeyPair::FromSeed(seed);
    const crypto::Signature sig = key.Sign(Bytes{1, 2, 3});
    ByteWriter w;
    key.public_key().EncodeTo(&w);
    sig.EncodeTo(&w);
    Bytes expected = key.public_key().Encode();
    AppendBytes(&expected, sig.Encode());
    EXPECT_EQ(w.bytes(), expected) << seed;
    EXPECT_EQ(key.public_key().Encode().size(),
              crypto::PublicKey::kEncodedSize);
    EXPECT_EQ(sig.Encode().size(), crypto::Signature::kEncodedSize);
  }
}

// -------------------------------------------------------- mutation loop
//
// Each sample encoding is mutated a few thousand times (testutil::Mutate:
// a bit flipped, a byte dropped, inserted or duplicated, the tail
// truncated, or four bytes rewritten as a u32 length). Every decode of a
// mutant must fail or give a value that re-encodes to exactly the mutant,
// so that no two byte strings decode to one value (a canonical decoder)
// and no input reads past its buffer (the sanitizer job runs this suite).

/// Decodes `bytes` and re-encodes the value; nullopt when decoding fails.
using RoundTrip = std::function<std::optional<Bytes>(const Bytes&)>;

template <typename T>
std::optional<Bytes> EncodedIfOk(const Result<T>& decoded) {
  if (!decoded.ok()) return std::nullopt;
  return decoded->Encode();
}

constexpr int kMutationsPerCodec = 3000;

/// Round-trips every sample unchanged, then checks kMutationsPerCodec
/// mutants. `seed` fixes the mutants.
void CheckMutations(const std::vector<Bytes>& samples,
                    const RoundTrip& round_trip, uint64_t seed) {
  for (const Bytes& sample : samples) {
    ASSERT_EQ(round_trip(sample), sample);
  }
  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kMutationsPerCodec; ++i) {
    const Bytes mutant = Mutate(samples[i % samples.size()], &rng);
    const std::optional<Bytes> again = round_trip(mutant);
    if (!again.has_value()) continue;
    ++accepted;
    ASSERT_EQ(ToHex(*again), ToHex(mutant)) << "mutant " << i;
  }
  // Some mutants (a flipped value bit) are valid encodings: the accepting
  // path ran too.
  EXPECT_GT(accepted, 0);
}

const KeyPair kAlice = KeyPair::FromSeed(11);
const KeyPair kBob = KeyPair::FromSeed(12);
const KeyPair kCarol = KeyPair::FromSeed(13);

chain::BlockHeader SampleHeader(uint64_t height) {
  chain::BlockHeader h;
  h.chain_id = 2;
  h.height = height;
  h.prev_hash = crypto::Hash256::OfString("parent");
  h.tx_root = crypto::Hash256::OfString("tx root");
  h.receipt_root = crypto::Hash256::OfString("receipt root");
  h.time = 1234;
  h.difficulty_bits = 4;
  h.nonce = 99;
  return h;
}

Receipt SampleReceipt() {
  Receipt receipt;
  receipt.tx_id = crypto::Hash256::OfString("tx");
  receipt.success = false;
  receipt.contract_id = crypto::Hash256::OfString("contract");
  receipt.state_digest = Bytes{4, 5, 6};
  receipt.note = "guard failed";
  return receipt;
}

crypto::MerkleProof SampleProof() {
  std::vector<crypto::Hash256> leaves;
  for (const char* leaf : {"a", "b", "c", "d", "e"}) {
    leaves.push_back(crypto::Hash256::OfString(leaf));
  }
  return *crypto::MerkleTree(leaves).Prove(2);
}

contracts::HeaderChainEvidence SampleEvidence() {
  contracts::HeaderChainEvidence ev;
  ev.headers = {SampleHeader(5), SampleHeader(6)};
  ev.target_index = 1;
  ev.leaf_is_receipt = true;
  ev.leaf = SampleReceipt().Encode();
  ev.proof = SampleProof();
  return ev;
}

graph::Ac2tGraph SampleGraph() {
  return graph::Ac2tGraph(
      {kAlice.public_key(), kBob.public_key(), kCarol.public_key()},
      {graph::Ac2tEdge{0, 1, 0, 10}, graph::Ac2tEdge{1, 2, 1, 20},
       graph::Ac2tEdge{2, 0, 2, 30}},
      /*timestamp=*/77);
}

contracts::EdgeSpec SampleEdge(chain::ChainId chain_id) {
  contracts::EdgeSpec edge;
  edge.chain_id = chain_id;
  edge.sender = kAlice.public_key();
  edge.recipient = kBob.public_key();
  edge.amount = 10;
  edge.min_evidence_depth = 2;
  edge.asset_checkpoint = SampleHeader(chain_id);
  edge.asset_difficulty_bits = 4;
  return edge;
}

TEST(DecodeMutationTest, Transaction) {
  std::vector<Bytes> samples;
  for (const TxType type : {TxType::kCoinbase, TxType::kTransfer,
                            TxType::kDeploy, TxType::kCall}) {
    MutableTransaction m = FixedTransfer();
    m.type = type;
    if (type == TxType::kDeploy) {
      m.contract_kind = "HTLC";
      m.payload = Bytes{1, 2, 3};
      m.contract_value = 30;
    }
    if (type == TxType::kCall) {
      m.contract_id = crypto::Hash256::OfString("contract");
      m.function = "redeem";
      m.payload = Bytes{9};
    }
    samples.push_back(m.Encode());
  }
  CheckMutations(samples,
                 [](const Bytes& b) {
                   return EncodedIfOk(Transaction::Decode(b));
                 },
                 /*seed=*/1);
}

TEST(DecodeMutationTest, Receipt) {
  Receipt empty;
  CheckMutations({SampleReceipt().Encode(), empty.Encode()},
                 [](const Bytes& b) { return EncodedIfOk(Receipt::Decode(b)); },
                 /*seed=*/2);
}

TEST(DecodeMutationTest, BlockHeader) {
  CheckMutations({SampleHeader(5).Encode()},
                 [](const Bytes& b) -> std::optional<Bytes> {
                   ByteReader r(b);
                   auto header = chain::BlockHeader::Decode(&r);
                   if (!header.ok() || !r.AtEnd()) return std::nullopt;
                   return header->Encode();
                 },
                 /*seed=*/3);
}

TEST(DecodeMutationTest, ProtocolMessage) {
  const std::vector<proto::Message::Payload> payloads = {
      proto::PreparePayload{Bytes{1, 2, 3}},
      proto::AckPayload{4, 1, true},
      proto::PreCommitPayload{5, 2},
      proto::DecisionPayload{6, 1, crypto::Signature{7, 8}.Encode()},
      proto::StateReqPayload{9, 10},
      proto::StateReplyPayload{11, 12, 2, 1, true},
      proto::RedeemNotifyPayload{2},
      proto::TxSubmitPayload{3, 173},
  };
  std::vector<Bytes> samples;
  for (const proto::Message::Payload& payload : payloads) {
    const proto::Message msg{.swap_id = crypto::Hash256::OfString("swap"),
                             .epoch = 3,
                             .seq = 14,
                             .sender = 1,
                             .receiver = 2,
                             .payload = payload};
    samples.push_back(msg.Encode());
  }
  CheckMutations(samples,
                 [](const Bytes& b) {
                   return EncodedIfOk(proto::Message::Decode(b));
                 },
                 /*seed=*/4);
}

TEST(DecodeMutationTest, Evidence) {
  CheckMutations({SampleEvidence().Encode()},
                 [](const Bytes& b) {
                   return EncodedIfOk(
                       contracts::HeaderChainEvidence::Decode(b));
                 },
                 /*seed=*/5);
}

TEST(DecodeMutationTest, EdgeEvidence) {
  CheckMutations({contracts::EncodeEdgeEvidence(
                     {SampleEvidence(), SampleEvidence()})},
                 [](const Bytes& b) -> std::optional<Bytes> {
                   auto evidence = contracts::DecodeEdgeEvidence(b);
                   if (!evidence.ok()) return std::nullopt;
                   return contracts::EncodeEdgeEvidence(*evidence);
                 },
                 /*seed=*/6);
}

TEST(DecodeMutationTest, MerkleProof) {
  CheckMutations({SampleProof().Encode()},
                 [](const Bytes& b) {
                   return EncodedIfOk(crypto::MerkleProof::Decode(b));
                 },
                 /*seed=*/7);
}

TEST(DecodeMutationTest, Graph) {
  CheckMutations({SampleGraph().Encode()},
                 [](const Bytes& b) {
                   return EncodedIfOk(graph::Ac2tGraph::Decode(b));
                 },
                 /*seed=*/8);
}

TEST(DecodeMutationTest, Multisignature) {
  auto ms = graph::SignGraph(SampleGraph(), {kAlice, kBob, kCarol});
  ASSERT_TRUE(ms.ok());
  CheckMutations({ms->Encode()},
                 [](const Bytes& b) {
                   return EncodedIfOk(crypto::Multisignature::Decode(b));
                 },
                 /*seed=*/9);
}

TEST(DecodeMutationTest, WitnessInit) {
  contracts::WitnessInit init;
  init.participants = {kAlice.public_key(), kBob.public_key()};
  init.ms_encoded = Bytes{1, 2, 3, 4};
  init.edges = {SampleEdge(0), SampleEdge(1)};
  CheckMutations({init.Encode()},
                 [](const Bytes& b) {
                   return EncodedIfOk(contracts::WitnessInit::Decode(b));
                 },
                 /*seed=*/10);
}

TEST(DecodeMutationTest, PermissionlessInit) {
  contracts::PermissionlessInit init;
  init.recipient = kBob.public_key();
  init.witness_chain_id = 1;
  init.scw_id = crypto::Hash256::OfString("scw");
  init.depth = 3;
  init.witness_checkpoint = SampleHeader(8);
  init.witness_difficulty_bits = 4;
  CheckMutations({init.Encode()},
                 [](const Bytes& b) {
                   return EncodedIfOk(
                       contracts::PermissionlessInit::Decode(b));
                 },
                 /*seed=*/11);
}

TEST(DecodeMutationTest, RelayInit) {
  contracts::RelayInit init;
  init.checkpoint = SampleHeader(9);
  init.validated_difficulty_bits = 4;
  init.interesting_tx = crypto::Hash256::OfString("tx1");
  init.required_depth = 2;
  CheckMutations({init.Encode()},
                 [](const Bytes& b) {
                   return EncodedIfOk(contracts::RelayInit::Decode(b));
                 },
                 /*seed=*/12);
}

contracts::DeployContext LockingDeploy() {
  contracts::DeployContext ctx;
  ctx.sender = kAlice.public_key();
  ctx.value = 500;
  return ctx;
}

TEST(DecodeMutationTest, HtlcInit) {
  CheckMutations(
      {contracts::HtlcContract::MakeInitPayload(
          kBob.public_key(), crypto::Hash256::OfString("lock"), 600)},
      [](const Bytes& b) -> std::optional<Bytes> {
        auto created = contracts::HtlcContract::Create(b, LockingDeploy());
        if (!created.ok()) return std::nullopt;
        const auto& htlc =
            dynamic_cast<const contracts::HtlcContract&>(**created);
        return contracts::HtlcContract::MakeInitPayload(
            htlc.recipient(), htlc.hashlock(), htlc.timelock());
      },
      /*seed=*/13);
}

TEST(DecodeMutationTest, CentralizedInit) {
  CheckMutations(
      {contracts::CentralizedContract::MakeInitPayload(
          kBob.public_key(), crypto::Hash256::OfString("ms"),
          kCarol.public_key())},
      [](const Bytes& b) -> std::optional<Bytes> {
        auto created =
            contracts::CentralizedContract::Create(b, LockingDeploy());
        if (!created.ok()) return std::nullopt;
        const auto& sc =
            dynamic_cast<const contracts::CentralizedContract&>(**created);
        return contracts::CentralizedContract::MakeInitPayload(
            sc.recipient(), sc.ms_id(), sc.trent());
      },
      /*seed=*/14);
}

}  // namespace
}  // namespace ac3
