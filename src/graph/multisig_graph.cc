#include "src/graph/multisig_graph.h"

namespace ac3::graph {

Result<crypto::Multisignature> SignGraph(
    const Ac2tGraph& graph, const std::vector<crypto::KeyPair>& signers) {
  AC3_RETURN_IF_ERROR(graph.Validate());
  if (signers.size() != graph.participant_count()) {
    return Status::InvalidArgument("every participant must sign ms(D)");
  }
  crypto::Multisignature ms(Encode(graph));
  for (const crypto::KeyPair& key : signers) {
    AC3_RETURN_IF_ERROR(ms.AddSignature(key));
  }
  if (!ms.VerifyAll(graph.participants())) {
    return Status::VerificationFailed(
        "signers do not match the graph participants");
  }
  return ms;
}

}  // namespace ac3::graph
