// The contract kinds a deploy transaction can name (contract.h, Deploy).

#include <string_view>

#include "src/contracts/centralized_contract.h"
#include "src/contracts/contract.h"
#include "src/contracts/htlc_contract.h"
#include "src/contracts/permissionless_contract.h"
#include "src/contracts/relay_contract.h"
#include "src/contracts/witness_contract.h"

namespace ac3::contracts {

namespace {

struct KindRow {
  std::string_view kind;
  Result<ContractPtr> (*create)(const Bytes& payload, const DeployContext& ctx);
};

constexpr KindRow kKinds[] = {
    {kHtlcKind, &HtlcContract::Create},
    {kCentralizedKind, &CentralizedContract::Create},
    {kPermissionlessKind, &PermissionlessContract::Create},
    {kWitnessKind, &WitnessContract::Create},
    {kRelayKind, &RelayContract::Create},
};

}  // namespace

Result<ContractPtr> Deploy(const std::string& kind, const Bytes& payload,
                           const DeployContext& ctx) {
  for (const KindRow& row : kKinds) {
    if (row.kind == kind) return row.create(payload, ctx);
  }
  return Status::NotFound("unknown contract kind: " + kind);
}

}  // namespace ac3::contracts
