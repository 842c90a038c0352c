#include "contracts/contract.hpp"

namespace mc::contracts {

ContractHandle::ContractHandle(vm::ContractStore& store, const Bytes& code,
                               Word deployer, std::uint64_t height)
    // Built-in contracts with in-repo audited source: constructor-time
    // deployment at node setup is sanctioned; summaries still run.
    // medchain-lint: allow(footprint-bypass)
    : store_(store), id_(store.deploy(code, deployer, height)) {}

std::optional<vm::ExecResult> ContractHandle::invoke(
    Word caller, std::vector<Word> calldata) {
  vm::ExecContext ctx;
  ctx.caller = caller;
  ctx.gas_limit = kDefaultCallGas;
  ctx.calldata = std::move(calldata);
  auto result = store_.call(id_, std::move(ctx));
  if (result.has_value()) last_gas_ = result->gas_used;
  return result;
}

}  // namespace mc::contracts
