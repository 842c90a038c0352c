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
#include <string>
#include <unordered_map>

#include "chain/transaction.hpp"
#include "chain/types.hpp"
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

/// One Call's buffered run over the committed store
/// (VmExecutionHook::call_speculative).
struct CallRun {
  /// The run; nullopt when the payload named no deployed contract.
  std::optional<vm::SpeculativeCall> call;
  /// Why no contract was resolved, when `call` is empty.
  const char* unresolved = nullptr;

  /// True when the run may commit: it resolved its target and halted ok.
  [[nodiscard]] bool ok() const {
    return call.has_value() && call->result.ok();
  }
  /// The verdict that rejects the block when !ok().
  [[nodiscard]] std::string error() const;
};

/// Contract side of a node's Deploy/Call transactions, over its
/// ContractStore.
///
/// Deploy: tx.payload is VM bytecode; the created contract id is
/// deterministic, so every node derives the same id (query it with
/// contract_id_of after the deploy tx commits).
/// Call: tx.payload is encode_call_payload(...). The block executor takes
/// one route for every Call: call_speculative, still_current, commit. A
/// call that resolves no target or traps (revert, out-of-gas, ORACLE)
/// makes the whole block invalid, which keeps all replicas in agreement.
class VmExecutionHook {
 public:
  explicit VmExecutionHook(vm::ContractStore& store) : store_(store) {}
  virtual ~VmExecutionHook() = default;
  VmExecutionHook(const VmExecutionHook&) = default;
  VmExecutionHook(VmExecutionHook&&) = default;
  VmExecutionHook& operator=(const VmExecutionHook&) = delete;
  VmExecutionHook& operator=(VmExecutionHook&&) = delete;

  /// Deploy tx's bytecode at `height` through the store's admission
  /// gate; returns the deployment gas, or nullopt with `error` set to the
  /// verdict that rejects the block.
  [[nodiscard]] std::optional<Gas> deploy(const Transaction& tx, Height height,
                                          std::string& error);

  /// Run Call `tx` at `height` as one traced, buffered run over committed
  /// contract state. Const over the store, so wave workers run it
  /// concurrently against a frozen store.
  [[nodiscard]] CallRun call_speculative(const Transaction& tx,
                                         Height height) const;

  /// True when every cell `call` observed still holds its observed value.
  [[nodiscard]] bool still_current(const vm::SpeculativeCall& call) const {
    return store_.speculation_current(call);
  }

  /// Fold a successful run into the store (block order).
  void commit(const vm::SpeculativeCall& call) {
    store_.commit_speculation(call);
  }

  /// Roll contract state back to the seal of block `height` (DESIGN.md
  /// §16); height 0 past the undo window resets to the empty store.
  /// Deploy ids of rolled-back txs stay mapped: contract_id_of misses.
  void rollback_to(Height height) { store_.rollback_to(height); }

  /// Seal the block's contract undo record; BlockExecutor::execute_block
  /// calls this right after sealing the ledger's.
  virtual void on_block_connected(Height height) { store_.snapshot(height); }

  /// Digest of the contract state (folded into the block header's
  /// state_root).
  [[nodiscard]] Hash256 state_digest() const { return store_.digest(); }

  /// Contract id a deploy transaction created (valid on this node after
  /// the tx executed).
  [[nodiscard]] std::optional<vm::Word> contract_id_of(const TxId& deploy_tx)
      const;

  [[nodiscard]] vm::ContractStore& store() { return store_; }

 private:
  vm::ContractStore& store_;
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
