// ChainAuditor: machine-checkable structural invariants over a chain.
//
// The transformed architecture has many nodes running *different*
// off-chain tasks against what must be *identical* on-chain state. The
// auditor is the independent referee: it walks a block sequence (or a
// live Node) and re-derives everything a correct chain must satisfy —
// hash-link continuity, height/timestamp monotonicity, transaction-root
// and state-root recomputation, mempool/nonce consistency, and PBFT
// quorum-certificate validity — returning a structured violation report
// instead of a bool, so experiments and CI can assert on exactly what
// broke.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "audit/quorum_cert.hpp"
#include "chain/block.hpp"
#include "chain/types.hpp"

namespace mc {
class ThreadPool;
}

namespace mc::chain {
class BlockValidator;
class VmExecutionHook;
class Node;
}

namespace mc::audit {

enum class ViolationKind : std::uint8_t {
  BadGenesis,            ///< block 0 has nonzero height or nonzero parent
  BrokenHashLink,        ///< header.parent != id of the previous block
  HeightDiscontinuity,   ///< heights are not 0,1,2,... in order
  NonMonotoneTimestamp,  ///< time_ms decreased along the chain
  BadTxRoot,             ///< Merkle root does not match the block's txs
  OversizedBlock,        ///< more txs than params.max_block_txs
  PowTargetMiss,         ///< PoW block id fails its declared target
  InvalidTransaction,    ///< a tx fails signature/nonce/balance replay
  BadStateRoot,          ///< recomputed state commitment differs
  MempoolBadSignature,   ///< pending tx with an invalid signature
  MempoolCommittedTx,    ///< pending tx already on the best chain
  MempoolStaleNonce,     ///< pending tx nonce below the account nonce
  QuorumTooSmall,        ///< fewer than 2f+1 distinct commit votes
  QuorumUnknownVoter,    ///< vote from a replica id outside the cluster
  QuorumDuplicateVoter,  ///< the same replica counted twice in one cert
  QuorumConflictingDigest,  ///< two certs commit different digests at one seq
  OrphanPoolOverflow,    ///< node holds more orphans than params.max_orphans
  BatchVerifyDivergence,  ///< batch sig verdict != per-tx sequential verdict
  ParallelExecutionDivergence,  ///< wave-parallel replay != sequential replay
  StateCommitmentDivergence,  ///< incremental state digest != from-scratch one
};

[[nodiscard]] std::string_view violation_name(ViolationKind kind);

struct AuditViolation {
  ViolationKind kind;
  chain::Height height = 0;  ///< block height or cert seq the finding is at
  std::string detail;
};

struct AuditReport {
  std::vector<AuditViolation> violations;
  std::size_t blocks_checked = 0;
  std::size_t txs_replayed = 0;
  std::size_t mempool_checked = 0;
  std::size_t certs_checked = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] bool has(ViolationKind kind) const;
  [[nodiscard]] std::size_t count(ViolationKind kind) const;
  /// Human-readable multi-line summary (one line per violation).
  [[nodiscard]] std::string summary() const;
};

class ChainAuditor {
 public:
  /// Contract-state digest at a given height, folded into the expected
  /// state root exactly as Node::state_commitment does. Defaults to the
  /// zero digest (hook-less chains). Chains executing contracts supply
  /// the digest their VmExecutionHook would report.
  using ContractDigestFn = std::function<Hash256(chain::Height)>;

  explicit ChainAuditor(chain::ChainParams params,
                        ContractDigestFn contract_digest = nullptr)
      : params_(std::move(params)),
        contract_digest_(std::move(contract_digest)) {}

  /// Optional parallel validator: the BadTxRoot recomputation fans
  /// Merkle leaf hashing across its pool. Findings are identical with or
  /// without one; audits over long chains just finish sooner.
  void set_validator(const chain::BlockValidator* v) { validator_ = v; }

  /// Audit a best-chain block sequence, genesis first: structure plus a
  /// full ledger replay recomputing every state root, with the
  /// incremental ledger digest checked against the from-scratch
  /// reference (audit/state_reference.hpp) at every block.
  [[nodiscard]] AuditReport audit_blocks(
      const std::vector<chain::Block>& blocks) const;

  /// Audit a live node: its best chain (as audit_blocks) plus
  /// mempool/nonce consistency against the node's current state.
  [[nodiscard]] AuditReport audit_node(const chain::Node& node) const;

  /// Audit PBFT commit certificates against a cluster of `cluster_size`
  /// replicas (n = 3f+1, quorum 2f+1).
  [[nodiscard]] AuditReport audit_quorum_certs(
      const std::vector<QuorumCert>& certs, std::size_t cluster_size) const;

  /// Hook factory for the parallel-execution audit: each replay builds
  /// its own contract stack from scratch (nullptr factory or a factory
  /// returning nullptr audits a pure-ledger chain).
  using HookFactory =
      std::function<std::unique_ptr<chain::VmExecutionHook>()>;

  /// Replay `blocks` (genesis first) twice — once sequentially, once
  /// through the wave-parallel scheduler fanned across `pool` with
  /// `workers` workers — and compare per-block verdicts, ledger digests,
  /// contract digests and the full receipt stream. Any mismatch is a
  /// ParallelExecutionDivergence: the scheduler broke the determinism
  /// contract of DESIGN.md §13.
  [[nodiscard]] AuditReport audit_parallel_execution(
      const std::vector<chain::Block>& blocks, const HookFactory& make_hook,
      ThreadPool& pool, std::size_t workers) const;

 private:
  void audit_structure(const std::vector<chain::Block>& blocks,
                       AuditReport& report) const;
  void audit_state_roots(const std::vector<chain::Block>& blocks,
                         AuditReport& report) const;

  chain::ChainParams params_;
  ContractDigestFn contract_digest_;
  const chain::BlockValidator* validator_ = nullptr;
};

}  // namespace mc::audit
