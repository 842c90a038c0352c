// Access-policy contract: the paper's lightweight on-chain control point.
//
// "The on-chain smart contract will be used to enforce the ownership
// right and fine grain access policy of off-chain data and analytics
// code" (§III). The contract tracks per-dataset ownership and per-grantee
// permission bits; everything heavy stays off-chain.
//
// The contract body is genuine VM assembly, deployed and executed
// identically on every node — exactly the deployment model the paper
// keeps for protocol compatibility.
#pragma once

#include <cstdint>
#include <optional>

#include "contracts/contract.hpp"

namespace mc::contracts {

class PolicyContract : public ContractHandle {
 public:
  /// Assembly source of the on-chain contract.
  static const char* source();

  /// Assembled bytecode (cached after first call).
  static const Bytes& bytecode();

  /// Deploy a fresh instance into `store`.
  PolicyContract(vm::ContractStore& store, Word deployer, std::uint64_t height)
      : ContractHandle(store, bytecode(), deployer, height) {}

  /// Attach to an already-deployed instance.
  PolicyContract(vm::ContractStore& store, Word contract_id)
      : ContractHandle(store, contract_id) {}

  /// Claim ownership of `dataset`. Fails (reverts) if already owned.
  bool register_dataset(Word caller, Word dataset);

  /// Owner grants `perm` bits on `dataset` to `grantee`.
  bool grant(Word caller, Word dataset, Word grantee, Word perm);

  /// Owner clears all of `grantee`'s permissions on `dataset`.
  bool revoke(Word caller, Word dataset, Word grantee);

  /// True when `grantee` holds every bit in `need` on `dataset`.
  bool check(Word dataset, Word grantee, Word need);

  /// Registered owner word, or 0 when unregistered.
  Word owner_of(Word dataset);
};

}  // namespace mc::contracts
