// Transaction dependency DAG built from read/write footprints.
//
// Layer (2) of the execution pipeline (DESIGN.md §13). Tx j must follow
// tx i < j iff their footprints conflict (W∩W, W∩R or R∩W, or either side
// ⊤), so block order is always a topological order. The edges kept are a
// transitive reduction of those pairs, with the same reachability, levels
// and latest predecessor per tx. The scheduler derives wave-readiness
// from `preds`; the report fields feed the bench parallelism columns.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/conflict.hpp"

namespace mc::chain::exec {

struct TxDag {
  /// preds[j] = direct predecessors of tx j, ascending. preds[j].back()
  /// is the latest tx j conflicts with; because the committed set is
  /// always a prefix, tx j is ready as soon as it has committed.
  std::vector<std::vector<std::uint32_t>> preds;
  std::size_t edges = 0;  ///< direct (reduced) edges

  /// Longest-path depth per tx (level 0 = no predecessors).
  std::vector<std::uint32_t> levels;
  /// Length of the critical path in txs (0 for an empty DAG). The best
  /// wall-clock any scheduler can reach is critical_path sequential steps.
  std::size_t critical_path = 0;

  [[nodiscard]] std::size_t size() const { return preds.size(); }

  /// Available parallelism: txs / critical-path length (1.0 = fully
  /// serial, n = embarrassingly parallel).
  [[nodiscard]] double parallelism() const {
    return critical_path == 0 ? 0.0
                              : static_cast<double>(size()) /
                                    static_cast<double>(critical_path);
  }

  /// True when `order` is a permutation of [0, size) that respects every
  /// edge — the property test's oracle for sequential-order admission.
  [[nodiscard]] bool is_topological_order(
      const std::vector<std::uint32_t>& order) const;
};

/// Build the dependency DAG over index-aligned footprints in one pass
/// over their cells: a read depends on the cell's last writer, a write on
/// the last writer and every reader since, a ⊤ tx on everything since
/// the previous ⊤, and every tx on the latest ⊤ before it.
[[nodiscard]] TxDag build_tx_dag(const std::vector<TxFootprint>& footprints);

}  // namespace mc::chain::exec
