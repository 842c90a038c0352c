// Clinical-trial contract (paper §III.B, Fig. 4's third request category).
//
// Implements on-chain what COMPare did by hand: a trial pre-registers its
// protocol digest and primary outcome before enrollment; the final report
// is compared against that commitment, making outcome switching (reported
// in only 9/67 trials done correctly) mechanically detectable. Enrollment
// is recorded per patient so recruitment is auditable.
#pragma once

#include <cstdint>
#include <optional>

#include "contracts/contract.hpp"

namespace mc::contracts {

class TrialContract : public ContractHandle {
 public:
  static const char* source();
  static const Bytes& bytecode();

  TrialContract(vm::ContractStore& store, Word deployer, std::uint64_t height)
      : ContractHandle(store, bytecode(), deployer, height) {}
  TrialContract(vm::ContractStore& store, Word contract_id)
      : ContractHandle(store, contract_id) {}

  /// Pre-register trial with protocol digest + committed primary outcome.
  bool register_trial(Word caller, Word trial, Word protocol_digest,
                      Word primary_outcome);

  /// Enroll a patient; reverts if the trial is unregistered or the
  /// patient is already enrolled.
  bool enroll(Word caller, Word trial, Word patient);

  /// Sponsor reports results for an outcome id (owner only).
  bool report(Word caller, Word trial, Word outcome, Word result_digest);

  /// 1 when the reported outcome matches the pre-registered primary
  /// outcome (no outcome switching); 0 otherwise or before reporting.
  [[nodiscard]] bool verify_outcome(Word trial);

  /// Number of enrolled patients.
  Word enrollment(Word trial);

  /// Pre-registered protocol digest (0 when unregistered).
  Word protocol_digest(Word trial);
};

}  // namespace mc::contracts
