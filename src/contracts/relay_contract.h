// The generic relay/validator contract of Section 4.3, Figure 6.
//
// "There exists a smart contract SC that gets deployed in the current head
//  block of blockchain2. SC has an initial state S1 and stores the header
//  of a stable block in blockchain1. SC's state is altered from S1 to S2 if
//  evidence is submitted that proves TX1 took place in blockchain1."
//
// This contract demonstrates the evidence machinery standalone (the AC3WN
// contracts embed the same checks); it also tracks the rolling checkpoint:
// after a successful proof the newest stable header from the evidence
// becomes the stored checkpoint, as a long-lived relay would do.
//
// Deploy payload: checkpoint header, validated-chain difficulty, and the
// id of the transaction of interest (TX1).

#ifndef AC3_CONTRACTS_RELAY_CONTRACT_H_
#define AC3_CONTRACTS_RELAY_CONTRACT_H_

#include <memory>
#include <string>

#include "src/chain/block.h"
#include "src/contracts/contract.h"
#include "src/contracts/evidence.h"

namespace ac3::contracts {

inline constexpr char kRelayKind[] = "RelaySC";
inline constexpr char kSubmitEvidenceFunction[] = "submit_evidence";

enum class RelayState : uint8_t {
  kS1 = 1,  ///< Waiting for proof of TX1.
  kS2 = 2,  ///< TX1 proven.
};

struct RelayInit {
  chain::BlockHeader checkpoint;
  uint32_t validated_difficulty_bits = 0;
  crypto::Hash256 interesting_tx;
  /// Depth the TX1 block must be buried under (the paper's stable depth).
  uint32_t required_depth = 0;

  /// Wire order: the fields in declaration order, the checkpoint
  /// length-prefixed.
  template <typename Self, typename Codec>
  static void Fields(Self& self, Codec& codec) {
    codec(Nested(self.checkpoint), self.validated_difficulty_bits,
          self.interesting_tx, self.required_depth);
  }
};

class RelayContract : public Contract {
 public:
  static Result<ContractPtr> Create(const Bytes& payload,
                                    const DeployContext& ctx);

  std::string Kind() const override { return kRelayKind; }
  Bytes StateDigest() const override;

  RelayState state() const { return state_; }
  const chain::BlockHeader& checkpoint() const { return init_.checkpoint; }

  Result<CallOutcome> Call(const std::string& function, const Bytes& args,
                           const CallContext& ctx) const override;

 private:
  RelayInit init_;
  RelayState state_ = RelayState::kS1;
};

}  // namespace ac3::contracts

#endif  // AC3_CONTRACTS_RELAY_CONTRACT_H_
