#include "audit/chain_auditor.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "audit/state_reference.hpp"
#include "chain/block_validator.hpp"
#include "chain/execution/executor.hpp"
#include "chain/node.hpp"
#include "common/rng.hpp"
#include "chain/pow.hpp"
#include "chain/state.hpp"
#include "chain/vm_hook.hpp"
#include "crypto/sha256.hpp"

namespace mc::audit {

std::string_view violation_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::BadGenesis: return "bad-genesis";
    case ViolationKind::BrokenHashLink: return "broken-hash-link";
    case ViolationKind::HeightDiscontinuity: return "height-discontinuity";
    case ViolationKind::NonMonotoneTimestamp: return "non-monotone-timestamp";
    case ViolationKind::BadTxRoot: return "bad-tx-root";
    case ViolationKind::OversizedBlock: return "oversized-block";
    case ViolationKind::PowTargetMiss: return "pow-target-miss";
    case ViolationKind::InvalidTransaction: return "invalid-transaction";
    case ViolationKind::BadStateRoot: return "bad-state-root";
    case ViolationKind::MempoolBadSignature: return "mempool-bad-signature";
    case ViolationKind::MempoolCommittedTx: return "mempool-committed-tx";
    case ViolationKind::MempoolStaleNonce: return "mempool-stale-nonce";
    case ViolationKind::QuorumTooSmall: return "quorum-too-small";
    case ViolationKind::QuorumUnknownVoter: return "quorum-unknown-voter";
    case ViolationKind::QuorumDuplicateVoter: return "quorum-duplicate-voter";
    case ViolationKind::QuorumConflictingDigest:
      return "quorum-conflicting-digest";
    case ViolationKind::OrphanPoolOverflow: return "orphan-pool-overflow";
    case ViolationKind::BatchVerifyDivergence:
      return "batch-verify-divergence";
    case ViolationKind::ParallelExecutionDivergence:
      return "parallel-execution-divergence";
    case ViolationKind::StateCommitmentDivergence:
      return "state-commitment-divergence";
  }
  return "unknown";
}

bool AuditReport::has(ViolationKind kind) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const AuditViolation& v) { return v.kind == kind; });
}

std::size_t AuditReport::count(ViolationKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [&](const AuditViolation& v) { return v.kind == kind; }));
}

std::string AuditReport::summary() const {
  std::ostringstream out;
  out << "audit: " << blocks_checked << " blocks, " << txs_replayed
      << " txs replayed, " << mempool_checked << " mempool txs, "
      << certs_checked << " quorum certs; "
      << (ok() ? "OK" : std::to_string(violations.size()) + " violation(s)")
      << '\n';
  for (const auto& v : violations)
    out << "  [" << violation_name(v.kind) << "] at " << v.height << ": "
        << v.detail << '\n';
  return out.str();
}

namespace {

void add(AuditReport& report, ViolationKind kind, chain::Height height,
         std::string detail) {
  report.violations.push_back(AuditViolation{kind, height, std::move(detail)});
}

}  // namespace

void ChainAuditor::audit_structure(const std::vector<chain::Block>& blocks,
                                   AuditReport& report) const {
  if (blocks.empty()) {
    add(report, ViolationKind::BadGenesis, 0, "chain is empty");
    return;
  }

  const chain::Block& genesis = blocks.front();
  if (genesis.header.height != 0)
    add(report, ViolationKind::BadGenesis, genesis.header.height,
        "genesis height is not 0");
  if (!genesis.txs.empty())
    add(report, ViolationKind::BadGenesis, 0, "genesis carries transactions");
  // Note: genesis.parent is the chain-tag hash (see make_genesis), not a
  // real link, so it is deliberately not checked here.

  for (std::size_t i = 1; i < blocks.size(); ++i) {
    const chain::Block& b = blocks[i];
    const chain::Block& prev = blocks[i - 1];
    const chain::Height h = b.header.height;

    if (b.header.parent != prev.id())
      add(report, ViolationKind::BrokenHashLink, h,
          "parent hash does not match the previous block id");
    if (h != prev.header.height + 1)
      add(report, ViolationKind::HeightDiscontinuity, h,
          "expected height " + std::to_string(prev.header.height + 1) +
              ", found " + std::to_string(h));
    if (b.header.time_ms < prev.header.time_ms)
      add(report, ViolationKind::NonMonotoneTimestamp, h,
          "timestamp " + std::to_string(b.header.time_ms) +
              "ms precedes parent at " + std::to_string(prev.header.time_ms) +
              "ms");
    const Hash256 tx_root = validator_ != nullptr
                                ? validator_->compute_tx_root(b)
                                : b.compute_tx_root();
    if (tx_root != b.header.tx_root)
      add(report, ViolationKind::BadTxRoot, h,
          "header tx_root does not match the contained transactions");
    if (b.txs.size() > params_.max_block_txs)
      add(report, ViolationKind::OversizedBlock, h,
          std::to_string(b.txs.size()) + " txs exceeds max_block_txs");
    if (params_.consensus == chain::ConsensusKind::ProofOfWork &&
        !chain::meets_target(b.id(), b.header.target))
      add(report, ViolationKind::PowTargetMiss, h,
          "block id fails its declared PoW target");
    // Batch-vs-sequential signature agreement: a batch accept must mean
    // every individual signature verifies, and a batch reject must name
    // the sequential scan's first failure. This is the auditor-side
    // counterpart of BlockValidator's MC_DCHECK, live in every build.
    if (!b.txs.empty()) {
      std::ptrdiff_t seq_bad = -1;
      for (std::size_t t = 0; t < b.txs.size(); ++t) {
        if (!b.txs[t].verify_signature()) {
          seq_bad = static_cast<std::ptrdiff_t>(t);
          break;
        }
      }
      Rng rng(b.header.tx_root.prefix_u64() ^ 0xa0d17ULL);
      const std::ptrdiff_t batch_bad =
          chain::batch_verify_signatures(b.txs, rng);
      if (batch_bad != seq_bad)
        add(report, ViolationKind::BatchVerifyDivergence, h,
            "batch verdict " + std::to_string(batch_bad) +
                " != sequential verdict " + std::to_string(seq_bad));
    }
  }
  report.blocks_checked = blocks.size();
}

void ChainAuditor::audit_state_roots(const std::vector<chain::Block>& blocks,
                                     AuditReport& report) const {
  // Independent ledger replay from the premine, mirroring the node's
  // apply path (null execution hook: contract txs run as zero-gas no-ops,
  // which matches hook-less nodes; contract chains supply contract_digest_).
  chain::WorldState state;
  for (const auto& [addr, amount] : params_.premine) state.credit(addr, amount);

  for (std::size_t i = 1; i < blocks.size(); ++i) {
    const chain::Block& b = blocks[i];
    const chain::Height h = b.header.height;
    for (const auto& tx : b.txs) {
      // Independent replay is the point of this audit: it must not route
      // through the execution pipeline it cross-checks.
      const chain::ApplyResult applied =
          // medchain-lint: allow(state-direct-apply)
          state.apply(tx, b.header.proposer, params_, /*execution_gas=*/0);
      ++report.txs_replayed;
      if (!applied.ok) {
        add(report, ViolationKind::InvalidTransaction, h,
            "tx replay failed: " + applied.error +
                " (state roots beyond this block are unverifiable)");
        return;  // the replayed ledger has diverged; later roots are noise
      }
      if (tx.kind == chain::TxKind::Anchor && tx.payload.size() == 32) {
        Hash256 digest;
        std::copy(tx.payload.begin(), tx.payload.end(), digest.data.begin());
        state.record_anchor(tx.from, digest, h);
      }
    }
    state.credit(b.header.proposer, params_.block_reward);

    // The incremental commitment must equal the from-scratch rebuild.
    const Hash256 ledger = state.digest();
    if (ledger != reference_state_digest(state))
      add(report, ViolationKind::StateCommitmentDivergence, h,
          "incremental ledger digest differs from the from-scratch "
          "reference");
    const Hash256 contract_digest =
        contract_digest_ ? contract_digest_(h) : Hash256{};
    const Hash256 expected = crypto::sha256_pair(ledger, contract_digest);
    if (expected != b.header.state_root)
      add(report, ViolationKind::BadStateRoot, h,
          "recomputed state commitment differs from header state_root");
  }
}

AuditReport ChainAuditor::audit_blocks(
    const std::vector<chain::Block>& blocks) const {
  AuditReport report;
  audit_structure(blocks, report);
  if (!blocks.empty()) audit_state_roots(blocks, report);
  return report;
}

AuditReport ChainAuditor::audit_node(const chain::Node& node) const {
  std::vector<chain::Block> blocks;
  for (const chain::BlockId& id : node.best_chain()) {
    const chain::Block* b = node.block(id);
    if (b != nullptr) blocks.push_back(*b);
  }
  AuditReport report = audit_blocks(blocks);

  // Mempool/nonce consistency against the node's current best state.
  for (const chain::Transaction& tx : node.mempool().snapshot()) {
    ++report.mempool_checked;
    const chain::Height tip = node.height();
    if (!tx.verify_signature()) {
      add(report, ViolationKind::MempoolBadSignature, tip,
          "pending tx carries an invalid signature");
      continue;
    }
    if (node.tx_committed(tx.id()))
      add(report, ViolationKind::MempoolCommittedTx, tip,
          "pending tx is already committed on the best chain");
    if (tx.nonce < node.state().nonce(tx.from))
      add(report, ViolationKind::MempoolStaleNonce, tip,
          "pending tx nonce " + std::to_string(tx.nonce) +
              " below account nonce " +
              std::to_string(node.state().nonce(tx.from)));
  }

  // The orphan pool must respect its configured cap — an overflow means
  // eviction is broken and a peer can grow the node's memory unboundedly.
  if (node.orphan_count() > params_.max_orphans)
    add(report, ViolationKind::OrphanPoolOverflow, node.height(),
        std::to_string(node.orphan_count()) + " orphans held, cap is " +
            std::to_string(params_.max_orphans));
  return report;
}

AuditReport ChainAuditor::audit_parallel_execution(
    const std::vector<chain::Block>& blocks, const HookFactory& make_hook,
    ThreadPool& pool, std::size_t workers) const {
  AuditReport report;
  if (blocks.empty()) return report;
  report.blocks_checked = blocks.size();

  // One full replay per execution mode, each over its own freshly-built
  // contract stack, so neither run can contaminate the other.
  struct Replay {
    std::vector<bool> ok;
    std::vector<Hash256> ledger;
    std::vector<Hash256> contracts;
    std::vector<chain::TxReceipt> receipts;
  };
  const auto run = [&](bool parallel) {
    Replay r;
    std::unique_ptr<chain::VmExecutionHook> hook =
        make_hook ? make_hook() : nullptr;
    chain::exec::BlockExecutor executor(params_, hook.get());
    if (parallel) {
      chain::exec::ExecutionConfig cfg;
      cfg.workers = workers;
      cfg.pool = &pool;
      executor.set_config(cfg);
    }
    chain::WorldState state;
    for (const auto& [addr, amount] : params_.premine)
      state.credit(addr, amount);
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      const chain::exec::BlockExecResult res =
          executor.execute_block(state, blocks[i], &r.receipts);
      r.ok.push_back(res.ok);
      report.txs_replayed += res.txs_seen;
      if (!res.ok) break;  // partial state — a node would discard it
      r.ledger.push_back(state.digest());
      r.contracts.push_back(hook != nullptr ? hook->state_digest()
                                            : Hash256{});
    }
    return r;
  };
  const Replay seq = run(/*parallel=*/false);
  const Replay par = run(/*parallel=*/true);

  const std::size_t common = std::min(seq.ok.size(), par.ok.size());
  for (std::size_t k = 0; k < common; ++k) {
    const chain::Height h = blocks[k + 1].header.height;
    if (seq.ok[k] != par.ok[k]) {
      add(report, ViolationKind::ParallelExecutionDivergence, h,
          std::string("block verdict differs: sequential ") +
              (seq.ok[k] ? "ok" : "fail") + ", parallel " +
              (par.ok[k] ? "ok" : "fail"));
      return report;  // states diverged; later comparisons are noise
    }
    if (!seq.ok[k]) break;  // both rejected the same block: done
    if (seq.ledger[k] != par.ledger[k])
      add(report, ViolationKind::ParallelExecutionDivergence, h,
          "ledger digest differs after this block");
    if (seq.contracts[k] != par.contracts[k])
      add(report, ViolationKind::ParallelExecutionDivergence, h,
          "contract-state digest differs after this block");
    if (!report.ok()) return report;
  }

  if (seq.receipts.size() != par.receipts.size()) {
    add(report, ViolationKind::ParallelExecutionDivergence,
        blocks.back().header.height,
        "receipt counts differ: sequential " +
            std::to_string(seq.receipts.size()) + ", parallel " +
            std::to_string(par.receipts.size()));
    return report;
  }
  for (std::size_t k = 0; k < seq.receipts.size(); ++k) {
    const chain::TxReceipt& a = seq.receipts[k];
    const chain::TxReceipt& b = par.receipts[k];
    if (a.id != b.id || a.height != b.height || a.gas_used != b.gas_used ||
        a.index != b.index) {
      add(report, ViolationKind::ParallelExecutionDivergence, a.height,
          "receipt " + std::to_string(k) + " differs between replays");
      return report;
    }
  }
  return report;
}

AuditReport ChainAuditor::audit_quorum_certs(
    const std::vector<QuorumCert>& certs, std::size_t cluster_size) const {
  AuditReport report;
  const std::size_t f = cluster_size >= 4 ? (cluster_size - 1) / 3 : 0;
  const std::size_t quorum = 2 * f + 1;

  std::map<std::uint64_t, Hash256> digest_at_seq;
  for (const QuorumCert& cert : certs) {
    ++report.certs_checked;
    std::set<std::uint32_t> distinct;
    for (std::uint32_t voter : cert.voters) {
      if (voter >= cluster_size)
        add(report, ViolationKind::QuorumUnknownVoter, cert.seq,
            "voter " + std::to_string(voter) + " outside cluster of " +
                std::to_string(cluster_size));
      if (!distinct.insert(voter).second)
        add(report, ViolationKind::QuorumDuplicateVoter, cert.seq,
            "voter " + std::to_string(voter) + " counted more than once");
    }
    if (distinct.size() < quorum)
      add(report, ViolationKind::QuorumTooSmall, cert.seq,
          std::to_string(distinct.size()) + " distinct votes, quorum is " +
              std::to_string(quorum));

    const auto [it, inserted] = digest_at_seq.emplace(cert.seq, cert.digest);
    if (!inserted && it->second != cert.digest)
      add(report, ViolationKind::QuorumConflictingDigest, cert.seq,
          "two certificates commit different digests at this sequence");
  }
  return report;
}

}  // namespace mc::audit
