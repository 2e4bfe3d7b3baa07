#include "src/protocols/messages.h"

namespace ac3::proto {

const char* MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kPrepare:
      return "prepare";
    case MessageKind::kAck:
      return "ack";
    case MessageKind::kPreCommit:
      return "pre_commit";
    case MessageKind::kDecision:
      return "decision";
    case MessageKind::kStateReq:
      return "state_req";
    case MessageKind::kStateReply:
      return "state_reply";
    case MessageKind::kRedeemNotify:
      return "redeem_notify";
    case MessageKind::kTxSubmit:
      return "tx_submit";
  }
  return "?";
}

}  // namespace ac3::proto
