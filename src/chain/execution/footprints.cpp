#include "chain/execution/footprints.hpp"

#include <algorithm>

#include "chain/vm_hook.hpp"

namespace mc::chain::exec {

namespace {

/// Cells of one run of contract `id` from the key sets a concretized
/// summary and a recorded vm::ExecTrace share.
template <typename KeySets>
TxFootprint contract_footprint(vm::Word id, const KeySets& keys) {
  TxFootprint fp;
  for (const vm::Word key : keys.reads)
    fp.reads.push_back({fp_domain::kContract, id, key});
  for (const vm::Word key : keys.writes)
    fp.writes.push_back({fp_domain::kContract, id, key});
  for (const auto& [foreign, key] : keys.foreign_reads)
    fp.reads.push_back({fp_domain::kContract, foreign, key});
  fp.normalize();
  return fp;
}

}  // namespace

bool concretize_call_footprint(const Transaction& tx,
                               const vm::ContractStore& store,
                               std::uint64_t height, TxFootprint& out) {
  if (tx.kind != TxKind::Call) return false;
  const auto call = decode_call_payload(BytesView(tx.payload));
  if (!call.has_value()) return false;
  const vm::DeployedContract* dc = store.contract(call->contract_id);
  if (dc == nullptr) return false;

  // Prefer the per-selector summary (dispatch folded away, so only the
  // matching handler's keys remain); fall back to the whole-program
  // footprint for non-dispatch contracts or unmatched selectors.
  const vm::analysis::SelectorSummary* sum =
      vm::analysis::summary_for(dc->selector_summaries, call->calldata);
  const vm::analysis::StorageFootprint* fp = nullptr;
  if (sum != nullptr && !sum->incomplete)
    fp = &sum->footprint;
  else if (!dc->report.incomplete)
    fp = &dc->report.footprint;
  if (fp == nullptr) return false;

  // The scheduling-time environment mirrors VmExecutionHook's ExecContext
  // exactly; the block timestamp is NOT known here, so Timestamp-derived
  // keys refuse to concretize rather than guess.
  vm::analysis::SymbolicEnv env;
  env.calldata = &call->calldata;
  env.caller = fnv1a(BytesView(tx.from.data));
  env.call_value = tx.amount;
  env.height = height;

  const vm::analysis::ConcreteFootprint cf =
      vm::analysis::concretize_footprint(*fp, env);
  if (!cf.exact()) return false;
  out = contract_footprint(dc->id, cf);
  return true;
}

TxFootprint scheduling_footprint(const Transaction& tx,
                                 const vm::ContractStore* store,
                                 std::uint64_t height) {
  TxFootprint fp = tx_footprint(tx, store);
  // A failed concretization leaves the ⊤ footprint as it is.
  if (fp.unbounded && store != nullptr)
    (void)concretize_call_footprint(tx, *store, height, fp);
  return fp;
}

TxFootprint FootprintProvider::footprint(const Transaction& tx,
                                         std::uint64_t height) const {
  TxFootprint fp = scheduling_footprint(tx, store_, height);
  if (!fp.unbounded) return fp;
  auto it = dynamic_.find(tx.id());
  if (it != dynamic_.end()) return it->second;
  return fp;  // still ⊤: first run of an unbounded tx
}

void FootprintProvider::record(const Transaction& tx, vm::Word contract_id,
                               const vm::ExecTrace& trace) {
  const TxId id = tx.id();
  if (dynamic_.count(id) == 0) {
    if (dynamic_.size() >= max_recorded_) {
      // Evict the oldest half: the overflow cliff costs the stalest
      // hints instead of every hint at once.
      const std::size_t evict = std::max<std::size_t>(1, dynamic_.size() / 2);
      for (std::size_t i = 0; i < evict && !order_.empty(); ++i) {
        dynamic_.erase(order_.front());
        order_.pop_front();
      }
    }
    order_.push_back(id);
  }
  dynamic_[id] = contract_footprint(contract_id, trace);
}

}  // namespace mc::chain::exec
