#include "src/chain/receipt.h"

namespace ac3::chain {

crypto::Hash256 Receipt::LeafHash() const {
  return crypto::Hash256::Of(Encode(*this));
}

}  // namespace ac3::chain
