#include "chain/execution/executor.hpp"

#include <algorithm>
#include <optional>

#include "audit/check.hpp"
#include "chain/execution/dag.hpp"
#include "common/thread_pool.hpp"

namespace mc::chain::exec {

/// Per-transaction outcome of one wave: only contract calls do wave work.
struct BlockExecutor::TxSlot {
  bool executed = false;
  /// A Deploy (store-nonce serialization) or a Call whose wave run
  /// resolved no target: its contract side runs at the commit slot.
  bool at_commit_slot = false;
  /// A Call's wave run; empty for every other tx.
  std::optional<CallRun> run;
};

BlockExecResult BlockExecutor::execute_block(WorldState& state,
                                             const Block& block,
                                             std::vector<TxReceipt>* receipts,
                                             bool sigs_prechecked) {
  BlockExecResult out;
  ++metrics_.blocks;
  state.open_block();
  // Waves only pay off for contract calls; any other block (transfers,
  // anchors, deploys) runs the sequential path with no scheduling work.
  const auto is_call = [](const Transaction& tx) {
    return tx.kind == TxKind::Call;
  };
  const bool parallel =
      config_.workers > 1 && config_.pool != nullptr &&
      block.txs.size() > 1 && hook_ != nullptr &&
      std::any_of(block.txs.begin(), block.txs.end(), is_call);
  out.ok = parallel
               ? run_parallel(state, block, receipts, sigs_prechecked, out)
               : run_sequential(state, block, receipts, sigs_prechecked, out);
  metrics_.txs += out.txs_seen;
  if (!out.ok) return out;
  state.credit(block.header.proposer, params_.block_reward);
  // The one place both stores seal: their windows advance in lockstep.
  state.seal_block(block.header.height);
  if (hook_ != nullptr) hook_->on_block_connected(block.header.height);
  return out;
}

bool BlockExecutor::run_sequential(WorldState& state, const Block& block,
                                   std::vector<TxReceipt>* receipts,
                                   bool sigs_prechecked,
                                   BlockExecResult& out) {
  for (std::size_t i = 0; i < block.txs.size(); ++i) {
    ++out.txs_seen;
    if (!commit_slot_execute(state, block, i, /*validated=*/nullptr,
                             /*record_footprint=*/false, receipts,
                             sigs_prechecked, out))
      return false;
    ++metrics_.sequential_txs;
    ++metrics_.critical_ticks;
  }
  return true;
}

bool BlockExecutor::commit_slot_execute(WorldState& state, const Block& block,
                                        std::size_t i, const CallRun* wave,
                                        bool record_footprint,
                                        std::vector<TxReceipt>* receipts,
                                        bool sigs_prechecked,
                                        BlockExecResult& out) {
  const Transaction& tx = block.txs[i];
  const Height height = block.header.height;
  Gas exec_gas = 0;
  if (hook_ != nullptr && tx.kind == TxKind::Deploy) {
    const std::optional<Gas> gas = hook_->deploy(tx, height, out.error);
    if (!gas.has_value()) return false;
    exec_gas = *gas;
  } else if (hook_ != nullptr && tx.kind == TxKind::Call) {
    if (wave != nullptr && wave->call.has_value() &&
        !hook_->still_current(*wave->call)) {
      ++metrics_.aborts;
      ++metrics_.reruns;
      ++metrics_.critical_ticks;
      wave = nullptr;
    }
    // A run at the commit slot IS sequential execution: all earlier txs
    // have committed, so it is current by construction.
    CallRun now;
    if (wave == nullptr || !wave->call.has_value()) {
      now = hook_->call_speculative(tx, height);
      wave = &now;
    }
    if (!wave->ok()) {
      out.error = wave->error();
      return false;
    }
    const vm::SpeculativeCall& run = *wave->call;
    exec_gas = run.result.gas_used;
    hook_->commit(run);
    if (record_footprint) provider_.record(tx, run.contract_id, run.trace);
  }
  const ApplyResult applied =
      state.apply(tx, block.header.proposer, params_, exec_gas,
                  /*credit_recipient=*/true, sigs_prechecked);
  if (!applied.ok) {
    out.error = applied.error;
    return false;
  }
  out.gas_used += applied.gas_used;
  ++out.txs_applied;
  if (receipts != nullptr)
    receipts->push_back(TxReceipt{tx.id(), height, applied.gas_used,
                                  static_cast<std::uint32_t>(i)});
  if (tx.kind == TxKind::Anchor) {
    Hash256 digest;
    std::copy(tx.payload.begin(), tx.payload.end(), digest.data.begin());
    state.record_anchor(tx.from, digest, height);
  }
  return true;
}

bool BlockExecutor::run_parallel(WorldState& state, const Block& block,
                                 std::vector<TxReceipt>* receipts,
                                 bool sigs_prechecked, BlockExecResult& out) {
  const std::size_t n = block.txs.size();
  const Height height = block.header.height;
  const VmExecutionHook& hook = *hook_;

  // Warm the tx id memoization single-threaded: receipts, footprint
  // recording and signature checks all consult it, and first-call caching
  // is not safe under concurrent access.
  for (const Transaction& tx : block.txs) (void)tx.id();

  std::vector<TxFootprint> fps;
  fps.reserve(n);
  for (const Transaction& tx : block.txs)
    fps.push_back(provider_.footprint(tx, height));
  const TxDag dag = build_tx_dag(fps);
  metrics_.dag_edges += dag.edges;

  std::vector<TxSlot> slots(n);
  std::size_t cursor = 0;  // txs [0, cursor) are committed
  while (cursor < n) {
    // Wave: every unexecuted tx whose predecessors have all committed.
    // Predecessor indices are < j and the committed set is a prefix, so
    // readiness is just preds.back() < cursor — and the tx at the cursor
    // is always ready, which guarantees progress.
    std::vector<std::uint32_t> wave;
    for (std::size_t j = cursor; j < n; ++j) {
      if (slots[j].executed) continue;
      const auto& preds = dag.preds[j];
      if (preds.empty() || preds.back() < cursor) {
        wave.push_back(static_cast<std::uint32_t>(j));
        slots[j].executed = true;
      }
    }
    MC_ASSERT(!wave.empty(), "wave scheduler stalled with txs uncommitted");
    ++metrics_.waves;
    metrics_.max_wave_width = std::max(metrics_.max_wave_width, wave.size());

    // Execute phase: the contract store is frozen (const) for the whole
    // wave and the ledger is never touched; each worker writes only its
    // own slot. The pool join below is the barrier that lets the commit
    // phase mutate them again.
    config_.pool->parallel_for(
        wave.size(), [&slots, &wave, &block, &hook, height](std::size_t k) {
          TxSlot& s = slots[wave[k]];
          const Transaction& tx = block.txs[wave[k]];
          if (tx.kind == TxKind::Call) {
            s.run = hook.call_speculative(tx, height);
            s.at_commit_slot = !s.run->call.has_value();
          } else {
            s.at_commit_slot = tx.kind == TxKind::Deploy;
          }
        });

    // Every slot not left to its commit slot costs wave time, ledger-only
    // txs included (the schedule prices a uniform per-tx cost); an
    // at_commit_slot tx is charged one tick at its commit slot instead (so
    // an all-deploy wave prices like the sequential path it effectively
    // is).
    std::size_t in_wave = 0;
    for (const std::uint32_t j : wave)
      if (!slots[j].at_commit_slot) ++in_wave;
    metrics_.critical_ticks +=
        (in_wave + config_.workers - 1) / config_.workers;

    // Commit phase (single-threaded): advance the cursor through every
    // consecutively-executed slot in strict block order. A run whose
    // observed contract cells all still hold is exactly what sequential
    // execution would produce here; a stale one is re-run at its slot.
    while (cursor < n && slots[cursor].executed) {
      const TxSlot& s = slots[cursor];
      ++out.txs_seen;
      if (s.at_commit_slot) {
        ++metrics_.sequential_txs;
        ++metrics_.critical_ticks;
      }
      const std::uint64_t reruns = metrics_.reruns;
      if (!commit_slot_execute(state, block, cursor,
                               s.run.has_value() ? &*s.run : nullptr,
                               fps[cursor].unbounded, receipts,
                               sigs_prechecked, out))
        return false;
      // A stale wave run was re-run at the slot: no parallel commit.
      if (!s.at_commit_slot && metrics_.reruns == reruns)
        ++metrics_.parallel_txs;
      ++cursor;
    }
  }
  return true;
}

}  // namespace mc::chain::exec
