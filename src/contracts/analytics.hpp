// Analytics-request contract (paper Fig. 4's second request category).
//
// The on-chain side of "move computing to data": a request names an
// analytics tool, a dataset and a parameter digest. The contract checks
// compute permission *on-chain* by reading the policy contract's grant
// slot (SXLOAD — deterministic committed state, consensus-safe on every
// replica), records the request, and emits an event the off-chain
// monitor node picks up to schedule the actual computation at the data
// site. The bridge later posts the result digest back on-chain.
#pragma once

#include <cstdint>
#include <optional>

#include "contracts/contract.hpp"

namespace mc::contracts {

enum class RequestStatus : Word {
  None = 0,
  Pending = 1,
  Done = 2,
};

struct AnalyticsRequest {
  Word requester = 0;
  Word tool = 0;
  Word dataset = 0;
  Word param_digest = 0;
  RequestStatus status = RequestStatus::None;
  Word result_digest = 0;
};

class AnalyticsContract : public ContractHandle {
 public:
  static const char* source();
  static const Bytes& bytecode();

  AnalyticsContract(vm::ContractStore& store, Word deployer,
                    std::uint64_t height)
      : ContractHandle(store, bytecode(), deployer, height) {}
  AnalyticsContract(vm::ContractStore& store, Word contract_id)
      : ContractHandle(store, contract_id) {}

  /// One-time: bind the trusted bridge identity allowed to post results
  /// and the policy contract that is the permission source of truth.
  bool init(Word caller, Word bridge, Word policy_contract_id);

  /// Submit a request. Reverts unless the policy contract (read
  /// on-chain via SXLOAD) grants the caller compute permission on
  /// `dataset`.
  bool request(Word caller, Word request_id, Word tool, Word dataset,
               Word param_digest);

  /// Bridge posts the computed result digest (bridge identity only).
  bool complete(Word caller, Word request_id, Word result_digest);

  [[nodiscard]] RequestStatus status(Word request_id);
  Word result(Word request_id);

  /// Read the stored request fields via on-chain state (what the bridge
  /// does when answering the oracle).
  std::optional<AnalyticsRequest> load(Word request_id);

};

}  // namespace mc::contracts
