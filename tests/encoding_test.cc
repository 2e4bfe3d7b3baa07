// Known answers for the canonical encodings that every id, signature and
// Merkle leaf covers, and a seeded mutation loop over the decoders.
//
// The expected bytes were captured from a byte-at-a-time writer and the
// copy-the-message Schnorr hashes, and each format's sample digest from
// the hand-written encoders that preceded the one codec. Any change to
// them changes every transaction id, every signature and every golden, so
// an encoder change that moves one of these strings is a format change,
// not a speedup.

#include <gtest/gtest.h>

#include <array>
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
  const auto hex = [](const auto&... fields) {
    return ToHex(Encode(fields...));
  };
  EXPECT_EQ(hex(uint8_t{0xa1}), "a1");
  EXPECT_EQ(hex(uint16_t{0x0201}), "0102");
  EXPECT_EQ(hex(uint32_t{0x04030201}), "01020304");
  EXPECT_EQ(hex(uint64_t{0x0807060504030201}), "0102030405060708");
  EXPECT_EQ(hex(int64_t{-2}), "feffffffffffffff");
  EXPECT_EQ(hex(true, false), "0100");
  EXPECT_EQ(hex(Bytes{0xaa, 0xbb}), "02000000aabb");
  EXPECT_EQ(hex(Bytes{}), "00000000");
  EXPECT_EQ(hex(std::string_view("ac3")), "03000000616333");
  EXPECT_EQ(hex(std::string("ac3")), "03000000616333");
  EXPECT_EQ(hex(std::array<uint8_t, 3>{0xee, 0xff, 0x00}), "eeff00");
  EXPECT_EQ(hex(std::vector<uint32_t>{1, 2}), "020000000100000002000000");
  // Fields follow one another with no padding.
  EXPECT_EQ(hex(uint8_t{1}, uint32_t{2}, uint16_t{3}, uint64_t{4}),
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
  EXPECT_EQ(ToHex(Encode(m)),
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
  EXPECT_EQ(ToHex(Encode(receipt)),
            "21e80ce97deaf8c46dbf7576ee665eb4ecdc7461bc01fe62bca5fbda409626af"
            "01eb2b92bd88c383038be68121f8adb82b439c70a4c77282b7cd084a4957c464"
            "9304000000010203040800000072656465656d6564");
  EXPECT_EQ(receipt.LeafHash().ToHex(),
            "18636f2d1dc65b61b14676faae35c880e4be730fa10aae9c54486816005ec527");
}

TEST(EncodingKnownAnswerTest, KeyAndSignatureEncodeIsEncodeTo) {
  EXPECT_EQ(ToHex(Encode(crypto::PublicKey(0x0807060504030201))),
            "0102030405060708");
  EXPECT_EQ(ToHex(Encode(crypto::Signature{0x0807060504030201, 2})),
            "01020304050607080200000000000000");
  for (const uint64_t seed : {1, 2, 3}) {
    // Inside a larger field list, a key and a signature write their own
    // encodings, back to back.
    const KeyPair key = KeyPair::FromSeed(seed);
    const crypto::Signature sig = key.Sign(Bytes{1, 2, 3});
    Bytes expected = Encode(key.public_key());
    const Bytes sig_bytes = Encode(sig);
    expected.insert(expected.end(), sig_bytes.begin(), sig_bytes.end());
    EXPECT_EQ(Encode(key.public_key(), sig), expected) << seed;
    EXPECT_EQ(EncodedSize(key.public_key()), 8u);
    EXPECT_EQ(EncodedSize(sig), 16u);
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
  return Encode(*decoded);
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
  ev.leaf = Encode(SampleReceipt());
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

/// One payload of each message kind.
std::vector<proto::Message::Payload> SamplePayloads() {
  return {
      proto::PreparePayload{Bytes{1, 2, 3}},
      proto::AckPayload{4, 1, true},
      proto::PreCommitPayload{5, 2},
      proto::DecisionPayload{6, 1, Encode(crypto::Signature{7, 8})},
      proto::StateReqPayload{9, 10},
      proto::StateReplyPayload{11, 12, 2, 1, true},
      proto::RedeemNotifyPayload{2},
      proto::TxSubmitPayload{3, 173},
  };
}

// One fixed sample per wire format, pinned by the SHA-256 of its bytes, so
// a byte that moves fails here, at the format where it moved. Merkle steps,
// graph edges, multisignature parts and outputs ride inside the formats
// that carry them.
TEST(EncodingKnownAnswerTest, EveryFormatsSampleDigest) {
  MutableTransaction deploy = FixedTransfer();
  deploy.type = TxType::kDeploy;
  deploy.contract_kind = "HTLC";
  deploy.payload = Bytes{1, 2, 3};
  deploy.contract_value = 30;
  deploy.SignWith(KeyPair::FromSeed(1));
  auto ms = graph::SignGraph(SampleGraph(), {kAlice, kBob, kCarol});
  ASSERT_TRUE(ms.ok());
  contracts::WitnessInit witness_init;
  witness_init.participants = {kAlice.public_key(), kBob.public_key()};
  witness_init.ms_encoded = Encode(*ms);
  witness_init.edges = {SampleEdge(0), SampleEdge(1)};
  contracts::PermissionlessInit permissionless;
  permissionless.recipient = kBob.public_key();
  permissionless.witness_chain_id = 1;
  permissionless.scw_id = crypto::Hash256::OfString("scw");
  permissionless.depth = 3;
  permissionless.witness_checkpoint = SampleHeader(8);
  permissionless.witness_difficulty_bits = 4;
  contracts::RelayInit relay;
  relay.checkpoint = SampleHeader(9);
  relay.validated_difficulty_bits = 4;
  relay.interesting_tx = crypto::Hash256::OfString("tx1");
  relay.required_depth = 2;
  std::vector<std::pair<std::string, Bytes>> all = {
      {"public key", Encode(kAlice.public_key())},
      {"signature", Encode(kAlice.Sign(Bytes{1, 2, 3}))},
      {"merkle proof", Encode(SampleProof())},
      {"multisignature", Encode(*ms)},
      {"block header", Encode(SampleHeader(5))},
      {"transaction", Encode(Transaction(deploy))},
      {"receipt", Encode(SampleReceipt())},
      {"graph", Encode(SampleGraph())},
      {"evidence", Encode(SampleEvidence())},
      {"edge spec", Encode(SampleEdge(1))},
      {"witness init", Encode(witness_init)},
      {"edge evidence",
       Encode(contracts::EdgeEvidence{{SampleEvidence(), SampleEvidence()}})},
      {"permissionless init", Encode(permissionless)},
      {"relay init", Encode(relay)},
      {"htlc init", Encode(contracts::HtlcInit{
                        kBob.public_key(), crypto::Hash256::OfString("lock"),
                        600})},
      {"centralized init", Encode(contracts::CentralizedInit{
                               kBob.public_key(),
                               crypto::Hash256::OfString("ms"),
                               kCarol.public_key()})},
  };
  for (const proto::Message::Payload& payload : SamplePayloads()) {
    const proto::Message msg{.swap_id = crypto::Hash256::OfString("swap"),
                             .epoch = 3,
                             .seq = 14,
                             .sender = 1,
                             .receiver = 2,
                             .payload = payload};
    all.emplace_back(
        std::string("message ") + proto::MessageKindName(msg.kind()),
        Encode(msg));
  }
  const std::vector<std::string> expected = {
      "2ddfa331d5186a802949e657a9bd99cadca6766bab0f2ba1bf33a92e14ca1cf2",  // public key
      "6a6fff9bfb1de3a2483a9a0a6c676bc30d3ec1149abfafffc97769da58bebd00",  // signature
      "a27de74f74eab19ac350a5c00e1fa4f755adb331e2dad993435e989524ff5619",  // merkle proof
      "cfd5a830577eacf58b91bbecee3a152cd542c65adeed455db0ca1cacf7ed2f5b",  // multisignature
      "c9d377c55d7863abe9a655a9aed6d3c2ec8d1ab82d331f1b2fd18576fd4a29ac",  // block header
      "5ec41f6b81acf0155d8d6e327c22a6ef1783b3b12afe8011a7c1ad3c61684a96",  // transaction
      "bac7ca4b3b0ffa82946aad817016aebce18a6eb08f6c629b8040e7b32bdbe773",  // receipt
      "c48d4c478e3744f1b2e8464f6fceea249f189a7062844eaf98b0c9a3e4a67b55",  // graph
      "7f68ee2b5e38393186bedf74fb3feed707a7512507730adb25596597866f2837",  // evidence
      "a7f4178207b1e69fdaf921d16df2f67ca1596529a7eb1151c2ecc921d182b854",  // edge spec
      "754eb4e0f70cb35ebed374235c8fd450f44e9f10d5504e2dad1301c1b6a1af66",  // witness init
      "00c4b97fb584151a699102dc387cf89ce16c3cad3464312df4d3cd5aeb6dcbb5",  // edge evidence
      "0583c92bda11873fe7d21f0907caad1a6539fc75b839db03ba80643108247d9c",  // permissionless init
      "dc5dfeb542ce897851646191407bc99897cb44bb5b80010b62c2a6a8611e0ade",  // relay init
      "9284b501d3a28ac784f7165c0fe2410c4b74a822313a04e51281148477d7d86c",  // htlc init
      "5e582b76b1e7a8c3c45133860de88b0d0739dd57b2e880f31a06900a665d5d5f",  // centralized init
      "3d71a287f6d523008e9bec4e8485eca18a2c4ada017661d85e63c3f6d10a8002",  // message prepare
      "20e7a233c3c8ff928b159bc2f2483d410d6c994fca7e1d9ee583cc136ff3ae1f",  // message ack
      "88281d3d83197bd96bab7ae5e7a4b4c03912be8d1f60b3d9f3b318db32ac7ba6",  // message pre_commit
      "5e4ffd77f38afa8efe2d1b980bbaf3503c9c90ee4dc340694c40dcabbcd36525",  // message decision
      "084b658cf27b635ecfed85ed8c44454631dfe9f43e10fa311689acf5666117ad",  // message state_req
      "cd8871a24e7c52053e1b3c401f8f577dd54cf4abfeabfa34dbfdd7cb0ab563ca",  // message state_reply
      "0ab7f38f6b5a9f6994e042c0385de0ec5e6f37d76eb7edd8ab11865fd92cbc1a",  // message redeem_notify
      "7d84d7ac00ee2b0b477610d80697c596af76167d06a57b9c518d1d344e422792",  // message tx_submit
  };
  ASSERT_EQ(all.size(), expected.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(crypto::Hash256::Of(all[i].second).ToHex(), expected[i])
        << all[i].first;
  }
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
    samples.push_back(Encode(m));
  }
  CheckMutations(samples,
                 [](const Bytes& b) {
                   return EncodedIfOk(Transaction::Decode(b));
                 },
                 /*seed=*/1);
}

TEST(DecodeMutationTest, Receipt) {
  Receipt empty;
  CheckMutations({Encode(SampleReceipt()), Encode(empty)},
                 [](const Bytes& b) { return EncodedIfOk(Decode<Receipt>(b)); },
                 /*seed=*/2);
}

TEST(DecodeMutationTest, BlockHeader) {
  CheckMutations({Encode(SampleHeader(5))},
                 [](const Bytes& b) {
                   return EncodedIfOk(Decode<chain::BlockHeader>(b));
                 },
                 /*seed=*/3);
}

TEST(DecodeMutationTest, ProtocolMessage) {
  std::vector<Bytes> samples;
  for (const proto::Message::Payload& payload : SamplePayloads()) {
    const proto::Message msg{.swap_id = crypto::Hash256::OfString("swap"),
                             .epoch = 3,
                             .seq = 14,
                             .sender = 1,
                             .receiver = 2,
                             .payload = payload};
    samples.push_back(Encode(msg));
  }
  CheckMutations(samples,
                 [](const Bytes& b) {
                   return EncodedIfOk(Decode<proto::Message>(b));
                 },
                 /*seed=*/4);
}

TEST(DecodeMutationTest, Evidence) {
  CheckMutations({Encode(SampleEvidence())},
                 [](const Bytes& b) {
                   return EncodedIfOk(
                       Decode<contracts::HeaderChainEvidence>(b));
                 },
                 /*seed=*/5);
}

TEST(DecodeMutationTest, EdgeEvidence) {
  CheckMutations({Encode(contracts::EdgeEvidence{
                     {SampleEvidence(), SampleEvidence()}})},
                 [](const Bytes& b) {
                   return EncodedIfOk(Decode<contracts::EdgeEvidence>(b));
                 },
                 /*seed=*/6);
}

TEST(DecodeMutationTest, MerkleProof) {
  CheckMutations({Encode(SampleProof())},
                 [](const Bytes& b) {
                   return EncodedIfOk(Decode<crypto::MerkleProof>(b));
                 },
                 /*seed=*/7);
}

TEST(DecodeMutationTest, Graph) {
  CheckMutations({Encode(SampleGraph())},
                 [](const Bytes& b) {
                   return EncodedIfOk(Decode<graph::Ac2tGraph>(b));
                 },
                 /*seed=*/8);
}

TEST(DecodeMutationTest, Multisignature) {
  auto ms = graph::SignGraph(SampleGraph(), {kAlice, kBob, kCarol});
  ASSERT_TRUE(ms.ok());
  CheckMutations({Encode(*ms)},
                 [](const Bytes& b) {
                   return EncodedIfOk(Decode<crypto::Multisignature>(b));
                 },
                 /*seed=*/9);
}

TEST(DecodeMutationTest, WitnessInit) {
  contracts::WitnessInit init;
  init.participants = {kAlice.public_key(), kBob.public_key()};
  init.ms_encoded = Bytes{1, 2, 3, 4};
  init.edges = {SampleEdge(0), SampleEdge(1)};
  CheckMutations({Encode(init)},
                 [](const Bytes& b) {
                   return EncodedIfOk(Decode<contracts::WitnessInit>(b));
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
  CheckMutations({Encode(init)},
                 [](const Bytes& b) {
                   return EncodedIfOk(
                       Decode<contracts::PermissionlessInit>(b));
                 },
                 /*seed=*/11);
}

TEST(DecodeMutationTest, RelayInit) {
  contracts::RelayInit init;
  init.checkpoint = SampleHeader(9);
  init.validated_difficulty_bits = 4;
  init.interesting_tx = crypto::Hash256::OfString("tx1");
  init.required_depth = 2;
  CheckMutations({Encode(init)},
                 [](const Bytes& b) {
                   return EncodedIfOk(Decode<contracts::RelayInit>(b));
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
      {Encode(contracts::HtlcInit{
          kBob.public_key(), crypto::Hash256::OfString("lock"), 600})},
      [](const Bytes& b) -> std::optional<Bytes> {
        auto created = contracts::HtlcContract::Create(b, LockingDeploy());
        if (!created.ok()) return std::nullopt;
        const auto& htlc =
            dynamic_cast<const contracts::HtlcContract&>(**created);
        return Encode(contracts::HtlcInit{
            htlc.recipient(), htlc.hashlock(), htlc.timelock()});
      },
      /*seed=*/13);
}

TEST(DecodeMutationTest, CentralizedInit) {
  CheckMutations(
      {Encode(contracts::CentralizedInit{
          kBob.public_key(), crypto::Hash256::OfString("ms"),
          kCarol.public_key()})},
      [](const Bytes& b) -> std::optional<Bytes> {
        auto created =
            contracts::CentralizedContract::Create(b, LockingDeploy());
        if (!created.ok()) return std::nullopt;
        const auto& sc =
            dynamic_cast<const contracts::CentralizedContract&>(**created);
        return Encode(contracts::CentralizedInit{
            sc.recipient(), sc.ms_id(), sc.trent()});
      },
      /*seed=*/14);
}

}  // namespace
}  // namespace ac3
