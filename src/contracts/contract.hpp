// Common base of the built-in contract wrappers (policy, registry,
// analytics, trial): a handle on one deployed instance in a ContractStore
// that calls it directly, off the block pipeline.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "contracts/abi.hpp"
#include "vm/contract_store.hpp"

namespace mc::contracts {

class ContractHandle {
 public:
  [[nodiscard]] Word id() const { return id_; }

  /// Gas used by the most recent call (0 before any call).
  [[nodiscard]] std::uint64_t last_gas() const { return last_gas_; }

 protected:
  /// Deploy `code` as a fresh instance into `store`.
  ContractHandle(vm::ContractStore& store, const Bytes& code, Word deployer,
                 std::uint64_t height);

  /// Attach to an already-deployed instance.
  ContractHandle(vm::ContractStore& store, Word contract_id)
      : store_(store), id_(contract_id) {}

  /// Call the instance as `caller` with kDefaultCallGas; nullopt when it
  /// is not deployed in the store.
  std::optional<vm::ExecResult> invoke(Word caller,
                                       std::vector<Word> calldata);

  vm::ContractStore& store_;
  Word id_;

 private:
  std::uint64_t last_gas_ = 0;
};

}  // namespace mc::contracts
