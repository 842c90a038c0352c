// Contract-side speculation capability of an ExecutionHook.
//
// The parallel scheduler (executor.hpp) needs three things from the
// contract layer it cannot get through ExecutionHook::execute alone: run
// a Call without mutating the store, check at commit time that the run's
// observations still hold, and fold a validated run in. Hooks that cannot
// provide this (ExecutionHook::speculation() == nullptr) simply execute
// every contract transaction at its commit slot — sequential semantics,
// no speculation.
#pragma once

#include <optional>
#include <string>

#include "chain/transaction.hpp"
#include "chain/types.hpp"
#include "vm/contract_store.hpp"

namespace mc::chain::exec {

/// One contract call executed speculatively. `!ok()` mirrors the
/// sequential path's hook throw: if the run's observations survive to its
/// commit slot, the whole block is invalid, exactly as sequential
/// execution would have decided.
struct SpeculativeRun {
  vm::SpeculativeCall call;

  [[nodiscard]] bool ok() const { return call.result.ok(); }
  [[nodiscard]] Gas gas() const { return call.result.gas_used; }
  /// Trap description when !ok(), as the sequential hook throws it.
  [[nodiscard]] std::string error() const {
    return "contract trapped: " + std::string(vm::halt_name(call.result.halt));
  }
};

class ContractSpeculation {
 public:
  virtual ~ContractSpeculation() = default;

  /// Store backing the hook — resolves static footprints for scheduling.
  [[nodiscard]] virtual const vm::ContractStore* store() const = 0;

  /// Execute `tx` speculatively against committed contract state.
  /// nullopt when the tx cannot be speculated (not a Call, malformed
  /// payload, unknown target, or an oracle-using contract) — the
  /// scheduler then runs it at its commit slot via ExecutionHook::execute,
  /// which preserves the sequential failure semantics bit for bit.
  [[nodiscard]] virtual std::optional<SpeculativeRun> speculate(
      const Transaction& tx, Height height) const = 0;

  /// True when every cell `run` observed still holds its observed value.
  [[nodiscard]] virtual bool still_current(const SpeculativeRun& run) const = 0;

  /// Fold a validated, successful run into the store (index-order commit).
  virtual void commit(const SpeculativeRun& run) = 0;
};

}  // namespace mc::chain::exec
