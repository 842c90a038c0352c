// Per-block transaction conflict analysis over static footprints.
//
// The paper's end goal is turning duplicated execution into distributed
// *parallel* computing; the prerequisite is knowing which transactions in
// a block commute. This module derives a read/write footprint for every
// transaction — the contract cells a call's speculated run can observe,
// from the static analyzer's storage footprint proven at deployment; no
// ledger cells, since the ledger side is applied in block order at each
// commit slot — and reports the pairwise conflict rate per block.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "chain/block.hpp"
#include "chain/transaction.hpp"
#include "vm/contract_store.hpp"

namespace mc::chain {

/// A footprint cell: (domain, a, b). Domains keep unrelated state spaces
/// from aliasing: the deploy registry is one cell, contract storage keys
/// on (contract id, storage key).
using FootprintCell = std::array<vm::Word, 3>;

namespace fp_domain {
inline constexpr vm::Word kRegistry = 1;  ///< contract-id namespace (deploys)
inline constexpr vm::Word kContract = 3;  ///< a = contract id, b = key
}  // namespace fp_domain

/// Read/write footprint of one transaction: sorted, duplicate-free cell
/// vectors. `unbounded` marks a footprint the static analyzer could not
/// bound (non-constant storage keys, or an unknown contract) — such a
/// transaction conservatively conflicts with everything.
struct TxFootprint {
  std::vector<FootprintCell> reads;
  std::vector<FootprintCell> writes;
  bool unbounded = false;

  /// Sort and deduplicate both cell vectors; every builder calls it once
  /// after appending, since footprints_conflict merge-walks them.
  void normalize();
};

/// Derive the footprint of `tx`. `store` resolves Call targets to their
/// deployment-time analysis reports; pass nullptr when no contract state
/// is available (Call footprints then degrade to unbounded).
[[nodiscard]] TxFootprint tx_footprint(const Transaction& tx,
                                       const vm::ContractStore* store);

/// True when the two footprints cannot safely run in parallel:
/// write/write, write/read or read/write intersection, or either side
/// unbounded.
[[nodiscard]] bool footprints_conflict(const TxFootprint& a,
                                       const TxFootprint& b);

struct BlockConflictReport {
  std::size_t txs = 0;
  std::size_t pairs = 0;             ///< txs * (txs-1) / 2
  std::size_t conflicting_pairs = 0;
  std::size_t unbounded_txs = 0;     ///< txs with no static bound

  /// conflicting_pairs / pairs (0 when the block has < 2 txs).
  [[nodiscard]] double conflict_rate() const {
    return pairs == 0
               ? 0.0
               : static_cast<double>(conflicting_pairs) /
                     static_cast<double>(pairs);
  }

  /// Fold another block's numbers into this aggregate.
  void merge(const BlockConflictReport& other) {
    txs += other.txs;
    pairs += other.pairs;
    conflicting_pairs += other.conflicting_pairs;
    unbounded_txs += other.unbounded_txs;
  }
};

/// Pairwise conflict analysis of one block's transaction list.
[[nodiscard]] BlockConflictReport analyze_block_conflicts(
    const Block& block, const vm::ContractStore* store);

/// As above with caller-supplied footprints — the execution layer routes
/// this through its symbolic-concretizing FootprintProvider so reported
/// conflict rates match what the wave scheduler actually sees.
[[nodiscard]] BlockConflictReport analyze_block_conflicts(
    const Block& block,
    const std::function<TxFootprint(const Transaction&)>& footprint_of);

}  // namespace mc::chain
