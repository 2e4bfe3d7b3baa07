// ms(D): the multisigned AC2T graph (Section 4, Equation 1).
//
// "For every AC2T, a directed graph D is constructed at some timestamp t
//  and multisigned by all the participants, generating a graph
//  multisignature ms(D). Any signature order indicates that all
//  participants agree on the graph D at timestamp t."

#ifndef AC3_GRAPH_MULTISIG_GRAPH_H_
#define AC3_GRAPH_MULTISIG_GRAPH_H_

#include <vector>

#include "src/crypto/multisig.h"
#include "src/graph/ac2t_graph.h"

namespace ac3::graph {

/// Builds ms(D): every key in `signers` signs the canonical encoding of
/// (D, t). `signers` must be exactly the graph's participants (in any
/// order).
Result<crypto::Multisignature> SignGraph(
    const Ac2tGraph& graph, const std::vector<crypto::KeyPair>& signers);

}  // namespace ac3::graph

#endif  // AC3_GRAPH_MULTISIG_GRAPH_H_
