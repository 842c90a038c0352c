// Dataset & analytics-tool registry contract (paper Fig. 3 / §III.A).
//
// "Each off-chain data and analytics code will need to register and
// record its ownership right and access policy in the blockchain."
// The registry stores, per dataset: a content digest (the Irving &
// Holden anchoring scheme — any off-chain tampering changes the digest),
// owner, record count and schema id; and per analytics tool: a code
// digest and owner. Integrity checks compare live off-chain hashes with
// these on-chain commitments.
#pragma once

#include <cstdint>
#include <optional>

#include "contracts/contract.hpp"

namespace mc::contracts {

struct DatasetMeta {
  Word owner = 0;
  Word digest = 0;
  Word record_count = 0;
  Word schema_id = 0;
};

class RegistryContract : public ContractHandle {
 public:
  static const char* source();
  static const Bytes& bytecode();

  RegistryContract(vm::ContractStore& store, Word deployer,
                   std::uint64_t height)
      : ContractHandle(store, bytecode(), deployer, height) {}
  RegistryContract(vm::ContractStore& store, Word contract_id)
      : ContractHandle(store, contract_id) {}

  /// Register a dataset; reverts when the id is already taken.
  bool register_dataset(Word caller, Word dataset, Word digest,
                        Word record_count, Word schema_id);

  /// Owner refreshes the digest after appending records off-chain.
  bool update_digest(Word caller, Word dataset, Word digest,
                     Word record_count);

  /// On-chain digest, or 0 when unregistered.
  Word digest_of(Word dataset);

  /// Full metadata; nullopt when unregistered.
  std::optional<DatasetMeta> meta_of(Word dataset);

  /// Register an analytics tool's code digest.
  bool register_tool(Word caller, Word tool, Word code_digest);

  /// Tool code digest, or 0 when unregistered.
  Word tool_digest(Word tool);
};

}  // namespace mc::contracts
