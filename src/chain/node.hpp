// Full node: chain storage, fork choice, validation, block production.
//
// Every node re-validates and re-executes every transaction in every
// block — the duplicated computing the paper sets out to transform. The
// node counts its hash attempts, signature checks and executed VM gas so
// experiments can expose that duplication directly. A new best tip rewinds
// both stores to the fork point, then executes the branch (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "chain/mempool.hpp"
#include "chain/pos.hpp"
#include "chain/state.hpp"
#include "chain/types.hpp"

namespace mc::chain {

class BlockValidator;

namespace exec {
class BlockExecutor;
class ContractSpeculation;
struct ExecutionConfig;
}  // namespace exec

/// Contract execution hook: the node owns the ledger, the VM layer owns
/// contract storage. The hook returns gas used and may throw to signal an
/// invalid contract transaction. A null hook executes contracts as no-ops
/// with zero gas (pure-ledger simulations).
class ExecutionHook {
 public:
  virtual ~ExecutionHook() = default;

  /// Execute tx's contract side effects at `height`; returns gas used.
  virtual Gas execute(const Transaction& tx, Height height) = 0;

  /// Roll contract state back to the seal of block `height` (DESIGN.md
  /// §16); height 0 past the undo window resets to the empty state.
  virtual void rollback_to(Height height) = 0;

  /// A block at `height` was fully applied — seal its contract undo
  /// record, in lockstep with the ledger's (default: no-op).
  virtual void on_block_connected(Height height) { (void)height; }

  /// Digest of the hook's current contract state (folded into the block
  /// header's state_root; default: zero for hook-less chains).
  [[nodiscard]] virtual Hash256 state_digest() const { return {}; }

  /// Speculative-execution capability for the parallel scheduler; null
  /// (the default) makes every contract tx execute at its commit slot.
  [[nodiscard]] virtual exec::ContractSpeculation* speculation() {
    return nullptr;
  }
};

/// Per-node workload counters for energy/duplication accounting.
struct NodeCounters {
  std::uint64_t hash_attempts = 0;     ///< PoW nonce grinding
  std::uint64_t sig_verifications = 0; ///< tx signature checks
  std::uint64_t txs_executed = 0;      ///< transactions applied to state
  std::uint64_t blocks_validated = 0;
  std::uint64_t orphans_evicted = 0;   ///< dropped by the orphan-pool cap
  Gas gas_executed = 0;
};

/// Receipt for a transaction committed on the best chain.
struct TxReceipt {
  TxId id{};
  Height height = 0;
  Gas gas_used = 0;
  std::uint32_t index = 0;  ///< position within its block
};

enum class BlockVerdict : std::uint8_t {
  Accepted,       ///< extended or reorganized the best chain
  AcceptedSide,   ///< valid but on a shorter side branch
  Duplicate,
  Orphan,         ///< parent unknown; held for retry
  Invalid,
};

class Node {
 public:
  Node(crypto::PrivateKey key, ChainParams params, Block genesis,
       ExecutionHook* hook = nullptr);
  // Out-of-line: BlockExecutor is incomplete here. Move-only — the
  // executor (and its footprint cache) travels with the node.
  ~Node();
  Node(Node&&) noexcept;
  Node& operator=(Node&&) noexcept;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Validate into the mempool; true if accepted.
  bool submit(const Transaction& tx);

  /// Configure the execution pipeline (worker count, thread pool).
  /// Defaults to sequential execution; verdicts and state roots are
  /// identical either way.
  void set_execution(const exec::ExecutionConfig& config);
  [[nodiscard]] const exec::BlockExecutor& executor() const {
    return *executor_;
  }

  /// Attach a (shared) parallel block validator. Unset, the node
  /// validates sequentially; verdicts are identical either way.
  void set_validator(const BlockValidator* v) { validator_ = v; }
  [[nodiscard]] const BlockValidator* validator() const { return validator_; }

  /// Explicit full-block ingestion entry (wallet/RPC/consensus surface):
  /// pre-validates the transaction set — signatures and tx_root fanned
  /// across the attached validator's pool — then connects the block.
  BlockVerdict submit_block(const Block& block) { return receive(block); }

  /// PoW production: select txs, grind up to `max_attempts` nonces.
  /// Returns the block on success. Hash attempts are counted either way.
  std::optional<Block> produce_pow(std::uint64_t time_ms,
                                   std::uint64_t max_attempts);

  /// PoS/PBFT production: assemble and sign a block without mining.
  Block propose(std::uint64_t time_ms);

  /// Validate and connect a block received from the network.
  BlockVerdict receive(const Block& block);

  [[nodiscard]] const Address& address() const { return address_; }
  [[nodiscard]] const crypto::PublicKey& public_key() const {
    return key_.pub;
  }
  [[nodiscard]] Height height() const { return tip_height_; }
  [[nodiscard]] BlockId tip() const { return tip_; }
  [[nodiscard]] const WorldState& state() const { return state_; }
  [[nodiscard]] WorldState& mutable_state() { return state_; }
  [[nodiscard]] Mempool& mempool() { return mempool_; }
  [[nodiscard]] const Mempool& mempool() const { return mempool_; }
  [[nodiscard]] const NodeCounters& counters() const { return counters_; }
  [[nodiscard]] const ChainParams& params() const { return params_; }

  /// Blocks along the best chain, genesis first.
  [[nodiscard]] std::vector<BlockId> best_chain() const;

  [[nodiscard]] bool has_block(const BlockId& id) const {
    return blocks_.count(id) > 0;
  }

  /// Blocks parked while their parent is missing (<= params.max_orphans).
  [[nodiscard]] std::size_t orphan_count() const { return orphans_.size(); }
  [[nodiscard]] const Block* block(const BlockId& id) const;

  /// Whether `txid` is included in the best chain.
  [[nodiscard]] bool tx_committed(const TxId& txid) const {
    return committed_txs_.count(txid) > 0;
  }

  /// Receipt for a committed transaction; nullopt if not on the best
  /// chain (including after being reorged out).
  [[nodiscard]] std::optional<TxReceipt> receipt(const TxId& txid) const {
    auto it = committed_txs_.find(txid);
    if (it == committed_txs_.end()) return std::nullopt;
    return it->second;
  }

 private:
  /// Execute `block` on the live state, charge the work counters (one
  /// signature check per tx entered, though the BlockValidator pre-pass
  /// made them) and check its state_root; appends receipts if non-null.
  bool connect(const Block& block, std::vector<TxReceipt>* receipts);

  /// Connect the branch ending at `id` as the new tip (DESIGN.md §16);
  /// false, with the old branch restored, if a branch block fails.
  bool switch_tip(const BlockId& id, Height height);

  /// Rewind both stores to best-chain height `height` (from genesis past
  /// the undo window).
  void rewind(Height height);

  /// The ledger at height 0: a fresh state holding the premine.
  void reset_to_genesis();

  /// Commitment over ledger + contract state (block header state_root).
  [[nodiscard]] Hash256 state_commitment() const;

  void retry_orphans(const BlockId& parent);

  crypto::PrivateKey key_;
  Address address_;
  ChainParams params_;
  ExecutionHook* hook_;
  /// Execution pipeline (chain/execution): sequential by default,
  /// wave-parallel after set_execution. Owns the scheduler metrics.
  std::unique_ptr<exec::BlockExecutor> executor_;
  const BlockValidator* validator_ = nullptr;

  std::unordered_map<BlockId, Block> blocks_;
  std::vector<Block> orphans_;
  BlockId genesis_id_{};
  BlockId tip_{};
  Height tip_height_ = 0;

  WorldState state_;
  Mempool mempool_;
  NodeCounters counters_;
  std::unordered_map<TxId, TxReceipt> committed_txs_;
};

}  // namespace mc::chain
