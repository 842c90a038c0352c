#include "chain/execution/executor.hpp"

#include <algorithm>
#include <optional>

#include "audit/check.hpp"
#include "chain/execution/dag.hpp"
#include "chain/execution/speculation.hpp"
#include "common/thread_pool.hpp"

namespace mc::chain::exec {

/// Per-transaction outcome of one wave: only contract calls do wave work.
struct BlockExecutor::TxSlot {
  bool executed = false;
  /// Deploy (store-nonce serialization) or non-speculable Call: run at
  /// the commit slot through the hook instead.
  bool needs_commit_exec = false;
  /// A Call's speculative run; empty for ledger-only txs, whose whole
  /// effect is applied at the commit slot.
  std::optional<SpeculativeRun> run;
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
      hook_->speculation() != nullptr &&
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
                                        std::size_t i,
                                        const SpeculativeRun* validated,
                                        bool record_footprint,
                                        std::vector<TxReceipt>* receipts,
                                        bool sigs_prechecked,
                                        BlockExecResult& out) {
  const Transaction& tx = block.txs[i];
  const Height height = block.header.height;
  Gas exec_gas = 0;
  if (hook_ != nullptr &&
      (tx.kind == TxKind::Call || tx.kind == TxKind::Deploy)) {
    ContractSpeculation* spec = hook_->speculation();
    // Commit-point speculation IS sequential execution: all earlier txs
    // have committed, so the run is exact and committing it mirrors a
    // direct store call — and yields the dynamic footprint for free.
    std::optional<SpeculativeRun> fresh;
    if (validated == nullptr && tx.kind == TxKind::Call && spec != nullptr) {
      fresh = spec->speculate(tx, height);
      if (fresh.has_value()) validated = &*fresh;
    }
    if (validated != nullptr) {
      if (!validated->ok()) {
        out.error = validated->error();
        return false;
      }
      exec_gas = validated->gas();
      spec->commit(*validated);
      if (record_footprint)
        provider_.record(tx, validated->call.contract_id,
                         validated->call.trace);
    } else {
      try {
        exec_gas = hook_->execute(tx, height);
      } catch (const std::exception& e) {
        out.error = e.what();
        return false;
      }
    }
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
  const ContractSpeculation* spec = hook_->speculation();
  provider_.set_store(spec->store());

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
        wave.size(), [&slots, &wave, &block, spec, height](std::size_t k) {
          TxSlot& s = slots[wave[k]];
          const Transaction& tx = block.txs[wave[k]];
          if (tx.kind == TxKind::Deploy) {
            s.needs_commit_exec = true;
          } else if (tx.kind == TxKind::Call) {
            s.run = spec->speculate(tx, height);
            s.needs_commit_exec = !s.run.has_value();
          }
        });

    // Every slot that did not punt to the commit slot costs wave time,
    // ledger-only txs included (the schedule prices a uniform per-tx
    // cost); a needs_commit_exec tx is charged one tick at its commit
    // slot instead (so an all-deploy wave prices like the sequential
    // path it effectively is).
    std::size_t speculated = 0;
    for (const std::uint32_t j : wave)
      if (!slots[j].needs_commit_exec) ++speculated;
    metrics_.critical_ticks +=
        (speculated + config_.workers - 1) / config_.workers;

    // Commit phase (single-threaded): advance the cursor through every
    // consecutively-executed slot in strict block order. A run whose
    // observed contract cells all still hold is exactly what sequential
    // execution would produce here; a stale one is re-run at its slot.
    while (cursor < n && slots[cursor].executed) {
      const TxSlot& s = slots[cursor];
      ++out.txs_seen;
      const bool stale = s.run.has_value() && !spec->still_current(*s.run);
      if (s.needs_commit_exec) ++metrics_.sequential_txs;
      if (stale) {
        ++metrics_.aborts;
        ++metrics_.reruns;
      }
      if (s.needs_commit_exec || stale) ++metrics_.critical_ticks;
      const SpeculativeRun* validated =
          s.run.has_value() && !stale ? &*s.run : nullptr;
      if (!commit_slot_execute(state, block, cursor, validated,
                               fps[cursor].unbounded, receipts,
                               sigs_prechecked, out))
        return false;
      if (!s.needs_commit_exec && !stale) ++metrics_.parallel_txs;
      ++cursor;
    }
  }
  return true;
}

}  // namespace mc::chain::exec
