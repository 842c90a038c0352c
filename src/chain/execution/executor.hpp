// BlockExecutor: the block execution pipeline (DESIGN.md §13).
//
// Layered: footprint provider → dependency DAG → wave scheduler. A block takes
// the wave path only when workers > 1, a pool is set, a hook is attached and
// the block holds more than one tx, at least one of them a contract Call;
// every other block runs the exact sequential path. Every Call takes one
// route: the hook's buffered run (VmExecutionHook::call_speculative), in a
// wave or at its commit slot, then the still_current check, then the commit.
// On the wave path workers run contract Calls against the frozen store;
// nothing else does wave work and no worker touches the ledger. Commit then
// runs single-threaded in strict block order: each tx's current run (or a
// re-run when its observations went stale) is committed and its ledger side
// applied through WorldState::apply at its commit slot, the same step the
// sequential path takes. Final state, receipts, events and the accept/reject
// verdict are bit-identical to sequential execution —
// ChainAuditor::audit_parallel_execution enforces exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/block.hpp"
#include "chain/execution/footprints.hpp"
#include "chain/node.hpp"
#include "chain/state.hpp"
#include "chain/types.hpp"
#include "chain/vm_hook.hpp"

namespace mc {
class ThreadPool;
}

namespace mc::chain::exec {

struct ExecutionConfig {
  /// Worker cap for the wave phase; <= 1 selects the sequential path.
  std::size_t workers = 1;
  /// Pool the waves fan across; nullptr selects the sequential path.
  ThreadPool* pool = nullptr;
};

/// Cumulative scheduler statistics (bench probes, tests).
struct BlockExecMetrics {
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
  std::uint64_t parallel_txs = 0;    ///< committed straight from a wave
  std::uint64_t sequential_txs = 0;  ///< executed at their commit slot
  std::uint64_t waves = 0;
  std::uint64_t aborts = 0;  ///< speculation invalidated at commit
  std::uint64_t reruns = 0;  ///< sequential re-executions after an abort
  std::uint64_t dag_edges = 0;
  std::size_t max_wave_width = 0;
  /// Critical-path length of the schedule in tx-execution ticks: each
  /// wave costs ceil(width / workers) ticks, each commit-slot execution
  /// (deploy, unresolved call or abort re-run) costs one. With uniform tx
  /// cost this is the wall-clock lower bound the DAG admits at the
  /// configured worker count, independent of how many cores the host
  /// really has.
  std::uint64_t critical_ticks = 0;

  /// Mean wave width — the realized parallelism of the wave phase.
  [[nodiscard]] double avg_wave_width() const {
    return waves == 0 ? 0.0
                      : static_cast<double>(parallel_txs + reruns) /
                            static_cast<double>(waves);
  }

  /// Schedule-level speedup bound: executed-tx ticks a sequential replay
  /// would take, over the critical path of the parallel schedule.
  [[nodiscard]] double ideal_speedup() const {
    const std::uint64_t executed = parallel_txs + sequential_txs + reruns;
    return critical_ticks == 0
               ? 1.0
               : static_cast<double>(executed) /
                     static_cast<double>(critical_ticks);
  }
};

struct BlockExecResult {
  bool ok = false;
  std::string error;           ///< first failure, empty when ok
  Gas gas_used = 0;            ///< sum over applied txs
  std::size_t txs_applied = 0; ///< txs committed before success/failure
  std::size_t txs_seen = 0;    ///< txs entered (counters parity)
};

class BlockExecutor {
 public:
  /// `hook` may be null: contract txs then execute as no-ops.
  BlockExecutor(ChainParams params, VmExecutionHook* hook)
      : params_(std::move(params)),
        hook_(hook),
        provider_(hook != nullptr ? &hook->store() : nullptr) {
    // Blocks never read the genesis allocation; its owner replays it.
    // Dropping this copy keeps one premine per node, not two.
    std::vector<std::pair<Address, Amount>>().swap(params_.premine);
  }

  void set_config(const ExecutionConfig& config) { config_ = config; }
  [[nodiscard]] const ExecutionConfig& config() const { return config_; }
  [[nodiscard]] const BlockExecMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const FootprintProvider& footprints() const {
    return provider_;
  }

  /// Execute every transaction of `block` against `state`, then credit
  /// the proposer reward and seal the block's undo records: the ledger's
  /// (opened here) and, through on_block_connected, the hook's. On
  /// failure both records stay open over the partial prefix (both paths
  /// stop at the same tx); the caller rolls both stores back.
  BlockExecResult execute_block(WorldState& state, const Block& block,
                                std::vector<TxReceipt>* receipts = nullptr,
                                bool sigs_prechecked = false);

 private:
  struct TxSlot;

  bool run_sequential(WorldState& state, const Block& block,
                      std::vector<TxReceipt>* receipts, bool sigs_prechecked,
                      BlockExecResult& out);
  bool run_parallel(WorldState& state, const Block& block,
                    std::vector<TxReceipt>* receipts, bool sigs_prechecked,
                    BlockExecResult& out);

  /// Execute tx `i` at its commit slot against fully-committed state:
  /// the contract side first, then the ledger side via WorldState::apply,
  /// the receipt and the anchor. The one step both paths share. A Call's
  /// contract side is its one route: `wave` (its run from a wave, null on
  /// the sequential path) is kept if it resolved its target and every
  /// cell it observed still holds, else the hook runs the call now (a
  /// stale wave run counts as an abort and a re-run); the run then
  /// commits, or its error rejects the block.
  bool commit_slot_execute(WorldState& state, const Block& block,
                           std::size_t i, const CallRun* wave,
                           bool record_footprint,
                           std::vector<TxReceipt>* receipts,
                           bool sigs_prechecked, BlockExecResult& out);

  ChainParams params_;
  VmExecutionHook* hook_;
  ExecutionConfig config_;
  FootprintProvider provider_;
  BlockExecMetrics metrics_;
};

}  // namespace mc::chain::exec
