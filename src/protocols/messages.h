// Typed protocol-message envelopes — the wire format of every off-chain
// exchange the swap engines perform.
//
// Without an envelope, a message delivered as an opaque std::function
// closure has no kind, no size, and no identity: nothing can count
// per-protocol message overhead (the cost axis Robinson's "Performance
// Overhead of Atomic Crosschain Transactions" quantifies), and faults can
// only be injected per *node*, never per *message*. proto::Message gives
// every exchange an explicit envelope:
//
//   * kind        — which protocol exchange this is (prepare, ack, …);
//   * swap id     — ms(D) for commitment traffic, the tx id for gossip;
//   * epoch       — the quorum-commit round the message belongs to (0 for
//                   the single-round protocols), used for stale fencing;
//   * seq         — a per-engine send counter; fault-injected duplicate
//                   deliveries of one send share it, so receivers can
//                   fence exact re-deliveries (SwapEngineBase does);
//   * sender / receiver — network endpoints, driving per-node counters;
//   * payload     — one variant alternative per exchange, carrying the
//                   actual protocol data (verdict tags, signatures, member
//                   round state) rather than captured closure context.
//
// Each payload and the envelope declare one field list, in wire order, for
// the codec of src/common/bytes.h. EncodedSize() is the wire size the
// network's byte counters charge, counted from that list. The in-process
// simulator delivers the Message object itself, so production code never
// writes the bytes; tests encode and decode them (ac3::Encode,
// ac3::Decode<Message>) to check that size against the bytes it counts.

#ifndef AC3_PROTOCOLS_MESSAGES_H_
#define AC3_PROTOCOLS_MESSAGES_H_

#include <cstdint>
#include <variant>

#include "src/chain/params.h"
#include "src/common/bytes.h"
#include "src/crypto/hash256.h"
#include "src/sim/network.h"

/// Typed protocol-message envelopes shared by the swap engines and the
/// simulated network's fault-injecting message path.
namespace ac3::proto {

/// Which protocol exchange a Message carries. Values are the wire tag and
/// must never be renumbered; kinds map 1:1 onto Message::Payload
/// alternatives (in order).
enum class MessageKind : uint8_t {
  /// AC3TW step 2: a participant registers ms(D) at the trusted witness.
  kPrepare = 1,
  /// Acknowledgement: the witness's registration ack, or a quorum member's
  /// pre-commit acknowledgement.
  kAck = 2,
  /// QuorumCommit: the coordinator's PRE-COMMIT(epoch, verdict).
  kPreCommit = 3,
  /// A signed decision: Trent's reply, or the quorum DECIDE broadcast.
  kDecision = 4,
  /// QuorumCommit recovery: the new coordinator's state collection request.
  kStateReq = 5,
  /// QuorumCommit recovery: a member's recorded round state.
  kStateReply = 6,
  /// AC3TW steps 5/6: a participant notifies the witness it wants the
  /// redeem (or refund) secret released.
  kRedeemNotify = 7,
  /// Transaction gossip to a chain gateway — the envelope every on-chain
  /// interaction (deploys, settles, witness votes) rides; how the purely
  /// on-chain engines (Herlihy, AC3WN) participate in the typed layer.
  kTxSubmit = 8,
};

/// Stable lowercase name ("pre_commit"), for logs and bench rows.
const char* MessageKindName(MessageKind kind);

/// Payload of MessageKind::kPrepare: the multisigned swap proposal.
struct PreparePayload {
  Bytes ms_encoded;  ///< The encoded crypto::Multisignature ms(D).

  /// Wire order: ms(D), length-prefixed.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.ms_encoded);
  }
};

/// Payload of MessageKind::kAck (register ack / pre-commit ack).
struct AckPayload {
  uint32_t vertex = 0;   ///< Acknowledging graph vertex (0 for AC3TW).
  uint8_t tag = 0;       ///< CommitmentTag being acknowledged (0 = none).
  bool accepted = false; ///< Registration accepted / verdict supported.

  /// Wire order: the fields in declaration order.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.vertex, self.tag, self.accepted);
  }
};

/// Payload of MessageKind::kPreCommit.
struct PreCommitPayload {
  uint32_t vertex = 0;  ///< Target member's graph vertex.
  uint8_t tag = 0;      ///< CommitmentTag of the round's verdict.

  /// Wire order: the fields in declaration order.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.vertex, self.tag);
  }
};

/// Payload of MessageKind::kDecision: the decision secret itself.
struct DecisionPayload {
  uint32_t vertex = 0;      ///< Target member's vertex (0 for AC3TW).
  uint8_t tag = 0;          ///< CommitmentTag decided.
  Bytes signature_encoded;  ///< The encoded crypto::Signature secret.

  /// Wire order: the fields in declaration order.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.vertex, self.tag, self.signature_encoded);
  }
};

/// Payload of MessageKind::kStateReq.
struct StateReqPayload {
  uint32_t vertex = 0;       ///< Member being queried.
  uint32_t coordinator = 0;  ///< Vertex of the recovering coordinator.

  /// Wire order: the fields in declaration order.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.vertex, self.coordinator);
  }
};

/// Payload of MessageKind::kStateReply: the member's recorded round state
/// (the quorum engine's MemberState, serialized).
struct StateReplyPayload {
  uint32_t vertex = 0;          ///< Replying member.
  uint64_t recorded_epoch = 0;  ///< Highest epoch the member recorded.
  uint8_t phase = 0;            ///< MemberPhase as its wire value.
  uint8_t tag = 0;              ///< CommitmentTag of the recorded verdict.
  bool knows_decision = false;  ///< Member holds the signed decision.

  /// Wire order: the fields in declaration order.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.vertex, self.recorded_epoch, self.phase, self.tag,
          self.knows_decision);
  }
};

/// Payload of MessageKind::kRedeemNotify.
struct RedeemNotifyPayload {
  uint8_t tag = 0;  ///< CommitmentTag the requester wants released.

  /// Wire order: the tag.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.tag);
  }
};

/// Payload of MessageKind::kTxSubmit. The simulator hands the Transaction
/// object to the gateway in-process; the payload carries its identity and
/// wire size so message/byte accounting reflects the real cost.
struct TxSubmitPayload {
  chain::ChainId chain_id = 0;  ///< Destination chain.
  uint32_t tx_bytes = 0;        ///< Transaction::EncodedSize().

  /// Wire order: the fields in declaration order.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(self.chain_id, self.tx_bytes);
  }
};

/// A typed protocol message (see the file comment for the field contract).
struct Message {
  /// The payload alternatives, in MessageKind order (index + 1 == kind).
  using Payload =
      std::variant<PreparePayload, AckPayload, PreCommitPayload,
                   DecisionPayload, StateReqPayload, StateReplyPayload,
                   RedeemNotifyPayload, TxSubmitPayload>;

  crypto::Hash256 swap_id;   ///< ms(D) id; the tx id for kTxSubmit.
  uint64_t epoch = 0;        ///< Commit round (0 for single-round engines).
  uint64_t seq = 0;          ///< Per-engine send counter (duplicate fence).
  sim::NodeId sender = 0;    ///< Sending endpoint.
  sim::NodeId receiver = 0;  ///< Receiving endpoint.
  Payload payload;           ///< The exchange-specific data.

  /// The message kind, derived from the payload alternative — an envelope
  /// can never claim one kind while carrying another's payload.
  MessageKind kind() const {
    return static_cast<MessageKind>(payload.index() + 1);
  }

  /// Wire order: the kind byte (a decode outside the kinds fails), the
  /// envelope fields in declaration order, then the payload's fields.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(VariantIndex(self.payload), self.swap_id, self.epoch, self.seq,
          self.sender, self.receiver, self.payload);
  }

  /// The encoding's size, counted without writing it: the wire size the
  /// network's byte counters charge. Kept inline so sim::Network can size
  /// messages without linking the protocols module.
  size_t EncodedSize() const { return ac3::EncodedSize(*this); }
};

}  // namespace ac3::proto

#endif  // AC3_PROTOCOLS_MESSAGES_H_
