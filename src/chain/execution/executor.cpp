#include "chain/execution/executor.hpp"

#include <algorithm>
#include <optional>

#include "audit/check.hpp"
#include "chain/execution/dag.hpp"
#include "chain/execution/speculation.hpp"
#include "common/thread_pool.hpp"

namespace mc::chain::exec {

namespace {

void record_anchor_of(const Transaction& tx, Height height, WorldState& state) {
  Hash256 digest;
  std::copy(tx.payload.begin(), tx.payload.end(), digest.data.begin());
  state.record_anchor(tx.from, digest, height);
}

}  // namespace

/// Per-transaction speculation outcome of one wave.
struct BlockExecutor::TxSlot {
  bool executed = false;
  /// Deploy (store-nonce serialization) or non-speculable Call: run at
  /// the commit slot through the hook instead.
  bool needs_commit_exec = false;
  bool ledger_ok = false;
  Gas exec_gas = 0;
  Gas gas_used = 0;
  std::string error;
  std::optional<StateOverlay> overlay;
  std::optional<SpeculativeRun> run;
};

BlockExecResult BlockExecutor::execute_block(WorldState& state,
                                             const Block& block,
                                             std::vector<TxReceipt>* receipts,
                                             bool sigs_prechecked) {
  BlockExecResult out;
  ++metrics_.blocks;
  const bool parallel = config_.workers > 1 && config_.pool != nullptr &&
                        block.txs.size() > 1;
  out.ok = parallel
               ? run_parallel(state, block, receipts, sigs_prechecked, out)
               : run_sequential(state, block, receipts, sigs_prechecked, out);
  metrics_.txs += out.txs_seen;
  if (!out.ok) return out;
  state.credit(block.header.proposer, params_.block_reward);
  if (hook_ != nullptr) hook_->on_block_connected(block.header.height);
  return out;
}

bool BlockExecutor::run_sequential(WorldState& state, const Block& block,
                                   std::vector<TxReceipt>* receipts,
                                   bool sigs_prechecked,
                                   BlockExecResult& out) {
  for (std::size_t i = 0; i < block.txs.size(); ++i) {
    ++out.txs_seen;
    if (!commit_slot_execute(state, block, i, receipts, sigs_prechecked,
                             /*record_footprint=*/false, out))
      return false;
    ++metrics_.sequential_txs;
    ++metrics_.critical_ticks;
  }
  return true;
}

bool BlockExecutor::commit_slot_execute(WorldState& state, const Block& block,
                                        std::size_t i,
                                        std::vector<TxReceipt>* receipts,
                                        bool sigs_prechecked,
                                        bool record_footprint,
                                        BlockExecResult& out) {
  const Transaction& tx = block.txs[i];
  const Height height = block.header.height;
  Gas exec_gas = 0;
  if (hook_ != nullptr &&
      (tx.kind == TxKind::Call || tx.kind == TxKind::Deploy)) {
    ContractSpeculation* spec = hook_->speculation();
    std::optional<SpeculativeRun> run;
    if (tx.kind == TxKind::Call && spec != nullptr)
      run = spec->speculate(tx, height);
    if (run.has_value()) {
      // Commit-point speculation IS sequential execution: all earlier txs
      // have committed, so the run is exact and committing it mirrors a
      // direct store call — and yields the dynamic footprint for free.
      if (!run->ok()) {
        out.error = run->error();
        return false;
      }
      exec_gas = run->gas();
      spec->commit(*run);
      if (record_footprint)
        provider_.record(tx, run->call.contract_id, run->call.trace);
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
  if (tx.kind == TxKind::Anchor) record_anchor_of(tx, height, state);
  return true;
}

bool BlockExecutor::run_parallel(WorldState& state, const Block& block,
                                 std::vector<TxReceipt>* receipts,
                                 bool sigs_prechecked, BlockExecResult& out) {
  const std::size_t n = block.txs.size();
  const Height height = block.header.height;
  ContractSpeculation* spec =
      hook_ != nullptr ? hook_->speculation() : nullptr;
  provider_.set_store(spec != nullptr ? spec->store() : nullptr);

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
      if (preds.empty() || preds.back() < cursor)
        wave.push_back(static_cast<std::uint32_t>(j));
    }
    MC_ASSERT(!wave.empty(), "wave scheduler stalled with txs uncommitted");
    ++metrics_.waves;
    metrics_.max_wave_width = std::max(metrics_.max_wave_width, wave.size());

    // Execute phase: state and store are frozen (const) for the whole
    // wave; each worker writes only its own slot. The pool join below is
    // the barrier that lets the commit phase mutate them again.
    config_.pool->parallel_for(wave.size(), [&](std::size_t k) {
      const std::uint32_t j = wave[k];
      TxSlot& s = slots[j];
      const Transaction& tx = block.txs[j];
      s.executed = true;
      if (hook_ != nullptr &&
          (tx.kind == TxKind::Call || tx.kind == TxKind::Deploy)) {
        if (tx.kind == TxKind::Call && spec != nullptr) {
          s.run = spec->speculate(tx, height);
          if (!s.run.has_value()) {
            s.needs_commit_exec = true;
            return;
          }
          s.exec_gas = s.run->gas();
          if (!s.run->ok()) {
            // Mirrors the sequential hook throw; the ledger side never
            // runs. Confirmed or refuted at the commit slot.
            s.error = s.run->error();
            return;
          }
        } else {
          s.needs_commit_exec = true;
          return;
        }
      }
      s.overlay.emplace(state);
      const ApplyResult applied = s.overlay->apply(
          tx, block.header.proposer, params_, s.exec_gas,
          /*credit_recipient=*/true, sigs_prechecked);
      s.ledger_ok = applied.ok;
      s.gas_used = applied.gas_used;
      if (!applied.ok)
        s.error = applied.error;
      else if (tx.kind == TxKind::Anchor)
        s.overlay->record_anchor(tx.from, [&] {
          Hash256 digest;
          std::copy(tx.payload.begin(), tx.payload.end(), digest.data.begin());
          return digest;
        }(), height);
    });

    // Only slots that actually speculated cost wave time; a tx punted to
    // needs_commit_exec returns immediately and is charged one tick at
    // its commit slot instead (so an all-deploy wave prices like the
    // sequential path it effectively is).
    std::size_t speculated = 0;
    for (const std::uint32_t j : wave)
      if (!slots[j].needs_commit_exec) ++speculated;
    metrics_.critical_ticks +=
        (speculated + config_.workers - 1) / config_.workers;

    // Commit phase (single-threaded): advance the cursor through every
    // consecutively-executed slot in strict block order, validating each
    // speculation at its own commit slot.
    while (cursor < n && slots[cursor].executed) {
      TxSlot& s = slots[cursor];
      const Transaction& tx = block.txs[cursor];
      ++out.txs_seen;

      if (s.needs_commit_exec) {
        ++metrics_.sequential_txs;
        ++metrics_.critical_ticks;
        if (!commit_slot_execute(state, block, cursor, receipts,
                                 sigs_prechecked, fps[cursor].unbounded, out))
          return false;
        ++cursor;
        continue;
      }

      // Validation: every ledger account and contract cell this tx
      // observed must still hold its observed value — then the buffered
      // effects equal what sequential execution at this point produces.
      bool current = true;
      if (s.overlay.has_value() && !state.reflects(*s.overlay))
        current = false;
      if (current && s.run.has_value() && !spec->still_current(*s.run))
        current = false;
      if (!current) {
        ++metrics_.aborts;
        ++metrics_.reruns;
        ++metrics_.critical_ticks;
        if (!commit_slot_execute(state, block, cursor, receipts,
                                 sigs_prechecked, fps[cursor].unbounded, out))
          return false;
        ++cursor;
        continue;
      }

      // Speculation validated: the verdict is final.
      if ((s.run.has_value() && !s.run->ok()) || !s.ledger_ok) {
        out.error = s.error;
        return false;
      }
      if (s.run.has_value()) spec->commit(*s.run);
      state.commit(*s.overlay);
      ++metrics_.parallel_txs;
      out.gas_used += s.gas_used;
      ++out.txs_applied;
      if (receipts != nullptr)
        receipts->push_back(TxReceipt{tx.id(), height, s.gas_used,
                                      static_cast<std::uint32_t>(cursor)});
      if (s.run.has_value() && fps[cursor].unbounded)
        provider_.record(tx, s.run->call.contract_id, s.run->call.trace);
      ++cursor;
    }
  }
  return true;
}

}  // namespace mc::chain::exec
