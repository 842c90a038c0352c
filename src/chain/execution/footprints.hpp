// Footprint provider: static bounds, concretized symbolic summaries,
// recorded dynamic sets.
//
// Layer (1) of the execution pipeline (DESIGN.md §13). The static
// analyzer proves exact cell sets for most transactions; for a Call
// whose keys are calldata-derived, the *concretizer* below evaluates the
// contract's per-selector symbolic footprint summary (DESIGN.md §12)
// against the tx's concrete calldata, producing exact cells — two
// patients updating their own record slots no longer conflict. Only
// genuinely unresolvable keys (storage- or oracle-derived, widened
// joins, unknown timestamps) fall back to the recorded-dynamic-set / ⊤
// path.
//
// A concretized or recorded set is a scheduling hint, not a bound: if
// the run touches different cells, the scheduler's commit-time
// validation catches it and re-runs the transaction sequentially —
// correctness never rests on this cache. (Audit builds additionally
// MC_DCHECK trace containment for concretized footprints in
// ContractStore::call.)
#pragma once

#include <cstddef>
#include <deque>
#include <unordered_map>

#include "chain/conflict.hpp"
#include "chain/transaction.hpp"

namespace mc::chain::exec {

/// Concretizer: evaluate the per-selector symbolic footprint summary of
/// `tx`'s target against its concrete calldata/sender/height and write
/// the exact contract cells the call can observe into `out`. Returns
/// false — leaving `out` untouched — when the tx is not a bounded-fit
/// Call, the summary is incomplete, or some key fails to evaluate.
[[nodiscard]] bool concretize_call_footprint(const Transaction& tx,
                                             const vm::ContractStore& store,
                                             std::uint64_t height,
                                             TxFootprint& out);

/// Full scheduling-footprint ladder: static-exact cells when bounded,
/// else the concretized symbolic summary, else ⊤.
[[nodiscard]] TxFootprint scheduling_footprint(const Transaction& tx,
                                               const vm::ContractStore* store,
                                               std::uint64_t height);

class FootprintProvider {
 public:
  /// Recorded-set cache cap; on overflow the oldest half is evicted
  /// (the sets are hints — dropping them costs speed on ⊤ txs, never
  /// correctness — but recent blocks' hints survive the cliff).
  static constexpr std::size_t kMaxRecorded = 8192;

  explicit FootprintProvider(const vm::ContractStore* store = nullptr,
                             std::size_t max_recorded = kMaxRecorded)
      : store_(store), max_recorded_(max_recorded) {}

  [[nodiscard]] const vm::ContractStore* store() const { return store_; }

  /// Scheduling footprint for `tx`: the static footprint when bounded,
  /// else the concretized per-selector summary, else the recorded
  /// dynamic set when one exists, else ⊤. `height` is the block height
  /// the tx would execute at (Height-derived keys concretize with it).
  [[nodiscard]] TxFootprint footprint(const Transaction& tx,
                                      std::uint64_t height = 0) const;

  /// Record the dynamic cell set of a ⊤-footprint Call's concrete run.
  void record(const Transaction& tx, vm::Word contract_id,
              const vm::ExecTrace& trace);

  [[nodiscard]] std::size_t recorded_count() const { return dynamic_.size(); }

 private:
  const vm::ContractStore* store_;
  std::size_t max_recorded_;
  std::unordered_map<TxId, TxFootprint> dynamic_;
  std::deque<TxId> order_;  ///< insertion order; unique per recorded id
};

}  // namespace mc::chain::exec
