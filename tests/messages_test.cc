// Unit tests for src/protocols/messages: the typed protocol-message
// envelope. Pins the canonical binary round trip for every MessageKind,
// the EncodedSize() == Encode(msg).size() contract the network's byte
// counters rely on, and the decoder's rejection of truncated buffers,
// unknown kinds, and trailing garbage.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/crypto/hash256.h"
#include "src/protocols/messages.h"

namespace ac3::proto {
namespace {

// One representative message per kind, with non-default field values so a
// round trip that zeroes anything is caught.
Message Envelope(Message::Payload payload) {
  return Message{.swap_id = crypto::Hash256::OfString("messages-test-swap"),
                 .epoch = 7,
                 .seq = 42,
                 .sender = 3,
                 .receiver = 11,
                 .payload = std::move(payload)};
}

std::vector<Message> OnePerKind() {
  std::vector<Message> all;
  all.push_back(Envelope(PreparePayload{Bytes{0xde, 0xad, 0xbe, 0xef}}));
  all.push_back(Envelope(AckPayload{5, 1, true}));
  all.push_back(Envelope(PreCommitPayload{2, 2}));
  all.push_back(Envelope(DecisionPayload{1, 1, Bytes{0x01, 0x02, 0x03}}));
  all.push_back(Envelope(StateReqPayload{4, 0}));
  all.push_back(Envelope(StateReplyPayload{4, 9, 2, 1, true}));
  all.push_back(Envelope(RedeemNotifyPayload{1}));
  all.push_back(Envelope(TxSubmitPayload{6, 311}));
  return all;
}

void ExpectSame(const Message& a, const Message& b) {
  EXPECT_EQ(a.kind(), b.kind());
  EXPECT_EQ(a.swap_id, b.swap_id);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.sender, b.sender);
  EXPECT_EQ(a.receiver, b.receiver);
  EXPECT_EQ(Encode(a), Encode(b));
}

TEST(MessagesTest, KindFollowsPayloadAlternative) {
  const std::vector<Message> all = OnePerKind();
  ASSERT_EQ(all.size(), 8u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(all[i].kind()), i + 1);
  }
}

TEST(MessagesTest, EveryKindRoundTrips) {
  for (const Message& msg : OnePerKind()) {
    const Bytes wire = Encode(msg);
    auto decoded = Decode<Message>(wire);
    ASSERT_TRUE(decoded.ok()) << MessageKindName(msg.kind()) << ": "
                              << decoded.status().ToString();
    ExpectSame(msg, *decoded);
  }
}

TEST(MessagesTest, EncodedSizeMatchesEncode) {
  for (const Message& msg : OnePerKind()) {
    EXPECT_EQ(msg.EncodedSize(), Encode(msg).size())
        << MessageKindName(msg.kind());
  }
}

TEST(MessagesTest, KindNamesAreStable) {
  EXPECT_STREQ(MessageKindName(MessageKind::kPrepare), "prepare");
  EXPECT_STREQ(MessageKindName(MessageKind::kAck), "ack");
  EXPECT_STREQ(MessageKindName(MessageKind::kPreCommit), "pre_commit");
  EXPECT_STREQ(MessageKindName(MessageKind::kDecision), "decision");
  EXPECT_STREQ(MessageKindName(MessageKind::kStateReq), "state_req");
  EXPECT_STREQ(MessageKindName(MessageKind::kStateReply), "state_reply");
  EXPECT_STREQ(MessageKindName(MessageKind::kRedeemNotify), "redeem_notify");
  EXPECT_STREQ(MessageKindName(MessageKind::kTxSubmit), "tx_submit");
}

// Randomized envelopes and variable-length payloads: the round trip must
// be lossless for arbitrary field values, including empty and large byte
// strings.
TEST(MessagesTest, FuzzedPayloadsRoundTrip) {
  Rng rng(20260807);
  for (int iter = 0; iter < 200; ++iter) {
    Bytes blob(rng.NextBelow(300), 0);
    for (auto& b : blob) b = static_cast<uint8_t>(rng.NextBelow(256));

    auto random_payload = [&]() -> Message::Payload {
      switch (rng.NextBelow(4)) {
        case 0:
          return PreparePayload{blob};
        case 1:
          return DecisionPayload{static_cast<uint32_t>(rng.NextBelow(64)),
                                 static_cast<uint8_t>(rng.NextBelow(3)), blob};
        case 2:
          return StateReplyPayload{
              static_cast<uint32_t>(rng.NextBelow(64)), rng.NextU64(),
              static_cast<uint8_t>(rng.NextBelow(4)),
              static_cast<uint8_t>(rng.NextBelow(3)), rng.NextBool(0.5)};
        default:
          return TxSubmitPayload{
              static_cast<chain::ChainId>(rng.NextBelow(1 << 16)),
              static_cast<uint32_t>(rng.NextBelow(1 << 24))};
      }
    };
    // A braced initializer evaluates its clauses in order, so the draws
    // keep their sequence.
    const Message msg{
        .swap_id = crypto::Hash256::OfString("fuzz-" + std::to_string(iter)),
        .epoch = rng.NextU64(),
        .seq = rng.NextU64(),
        .sender = static_cast<sim::NodeId>(rng.NextBelow(1 << 20)),
        .receiver = static_cast<sim::NodeId>(rng.NextBelow(1 << 20)),
        .payload = random_payload()};

    const Bytes wire = Encode(msg);
    EXPECT_EQ(msg.EncodedSize(), wire.size());
    auto decoded = Decode<Message>(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSame(msg, *decoded);
  }
}

// Every strict prefix of a valid encoding must be rejected — the decoder
// never reads past the buffer and never accepts a partial message.
TEST(MessagesTest, TruncatedBuffersAreRejected) {
  for (const Message& msg : OnePerKind()) {
    const Bytes wire = Encode(msg);
    for (size_t len = 0; len < wire.size(); ++len) {
      Bytes cut(wire.begin(), wire.begin() + static_cast<long>(len));
      EXPECT_FALSE(Decode<Message>(cut).ok())
          << MessageKindName(msg.kind()) << " accepted prefix of " << len
          << "/" << wire.size() << " bytes";
    }
  }
}

TEST(MessagesTest, TrailingBytesAreRejected) {
  for (const Message& msg : OnePerKind()) {
    Bytes wire = Encode(msg);
    wire.push_back(0x00);
    EXPECT_FALSE(Decode<Message>(wire).ok())
        << MessageKindName(msg.kind()) << " accepted trailing garbage";
  }
}

TEST(MessagesTest, UnknownKindIsRejected) {
  Bytes wire = Encode(OnePerKind().front());
  wire[0] = 0;  // Below the kind range.
  EXPECT_FALSE(Decode<Message>(wire).ok());
  wire[0] = 9;  // Above the kind range.
  EXPECT_FALSE(Decode<Message>(wire).ok());
}

// Booleans ride a single byte that must be exactly 0 or 1 — a sloppy
// encoder (or bit-flipped wire) is surfaced, not silently truthified.
TEST(MessagesTest, NonCanonicalBoolIsRejected) {
  const Message msg = Envelope(AckPayload{5, 1, true});
  Bytes wire = Encode(msg);
  wire.back() = 2;  // accepted flag is the final payload byte.
  EXPECT_FALSE(Decode<Message>(wire).ok());
}

}  // namespace
}  // namespace ac3::proto
