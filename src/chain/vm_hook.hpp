// Bridges the ledger to the contract VM: Deploy/Call transactions
// execute real bytecode against the node's ContractStore.
//
// This is what makes the consortium chain of Fig. 2 carry the actual
// contract suite: every node replays every Deploy/Call deterministically
// (duplicated computing). The block executor seals each block's contract
// undo record together with the ledger's, and a reorg rewinds both.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "chain/execution/speculation.hpp"
#include "chain/node.hpp"
#include "chain/transaction.hpp"
#include "vm/contract_store.hpp"

namespace mc::chain {

/// Call-payload wire format helpers (payload of TxKind::Call):
///   varint word-count, then that many u64 calldata words, preceded by
///   the u64 target contract id.
Bytes encode_call_payload(vm::Word contract_id,
                          const std::vector<vm::Word>& calldata);

struct DecodedCall {
  vm::Word contract_id = 0;
  std::vector<vm::Word> calldata;
};
std::optional<DecodedCall> decode_call_payload(BytesView payload);

/// ExecutionHook backed by a per-node ContractStore.
///
/// Deploy: tx.payload is VM bytecode; the created contract id is
/// deterministic, so every node derives the same id (query it with
/// contract_id_of after the deploy tx commits).
/// Call: tx.payload is encode_call_payload(...); a trapped call (revert,
/// out-of-gas, bad target) makes the whole transaction invalid, which
/// keeps all replicas in agreement.
class VmExecutionHook : public ExecutionHook, public exec::ContractSpeculation {
 public:
  explicit VmExecutionHook(vm::ContractStore& store, vm::Host* host = nullptr)
      : store_(store), host_(host) {}

  Gas execute(const Transaction& tx, Height height) override;
  /// Deploy ids of rolled-back txs stay mapped: contract_id_of misses.
  void rollback_to(Height height) override { store_.rollback_to(height); }

  /// The parallel scheduler speculates Calls through this hook itself.
  [[nodiscard]] exec::ContractSpeculation* speculation() override {
    return this;
  }

  // exec::ContractSpeculation — buffered Call execution for the wave
  // scheduler. speculate() is const over store state (safe concurrently
  // against a frozen store); commit() folds the buffered writes, so
  // speculate-then-commit at the commit slot is exactly execute().
  [[nodiscard]] const vm::ContractStore* store() const override {
    return &store_;
  }
  [[nodiscard]] std::optional<exec::SpeculativeRun> speculate(
      const Transaction& tx, Height height) const override;
  [[nodiscard]] bool still_current(
      const exec::SpeculativeRun& run) const override {
    return store_.speculation_current(run.call);
  }
  void commit(const exec::SpeculativeRun& run) override {
    store_.commit_speculation(run.call, host_);
  }

  /// Seal the block's contract undo record; BlockExecutor::execute_block
  /// calls this right after sealing the ledger's.
  void on_block_connected(Height height) override {
    store_.snapshot(height);
  }

  [[nodiscard]] Hash256 state_digest() const override {
    return store_.digest();
  }

  /// Contract id a deploy transaction created (valid on this node after
  /// the tx executed).
  [[nodiscard]] std::optional<vm::Word> contract_id_of(const TxId& deploy_tx)
      const;

  [[nodiscard]] vm::ContractStore& store() { return store_; }

 private:
  vm::ContractStore& store_;
  vm::Host* host_;
  std::unordered_map<TxId, vm::Word> deployed_;
};

/// Build a signed contract-deployment transaction.
Transaction make_deploy(const crypto::PrivateKey& from, Bytes bytecode,
                        std::uint64_t nonce, Gas gas_limit = 2'000'000);

/// Build a signed contract-call transaction.
Transaction make_call(const crypto::PrivateKey& from, vm::Word contract_id,
                      std::vector<vm::Word> calldata, std::uint64_t nonce,
                      Gas gas_limit = 500'000);

}  // namespace mc::chain
