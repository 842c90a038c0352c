#include "chain/node.hpp"

#include <algorithm>

#include "audit/check.hpp"
#include "audit/state_reference.hpp"
#include "chain/block_validator.hpp"
#include "chain/execution/executor.hpp"
#include "chain/pow.hpp"

namespace mc::chain {

namespace {

/// Audit builds re-derive every committed ledger digest from scratch.
void check_commitment(const WorldState& state) {
  MC_DCHECK(audit::reference_state_digest(state) == state.digest(),
            "incremental state commitment diverged from the reference");
}

}  // namespace

Node::Node(crypto::PrivateKey key, ChainParams params, Block genesis,
           ExecutionHook* hook)
    : key_(key),
      address_(crypto::address_of(key.pub)),
      params_(params),
      hook_(hook),
      executor_(
          std::make_unique<exec::BlockExecutor>(std::move(params), hook)) {
  genesis_id_ = genesis.id();
  blocks_.emplace(genesis_id_, StoredBlock{genesis, 0});
  tip_ = genesis_id_;
  tip_height_ = 0;
  for (const auto& [addr, amount] : params_.premine) state_.credit(addr, amount);
}

Node::~Node() = default;
Node::Node(Node&&) noexcept = default;
Node& Node::operator=(Node&&) noexcept = default;

void Node::set_execution(const exec::ExecutionConfig& config) {
  executor_->set_config(config);
}

bool Node::submit(const Transaction& tx) {
  ++counters_.sig_verifications;
  if (!tx.verify_signature()) return false;
  if (committed_txs_.count(tx.id()) > 0) return false;
  // Just verified above — don't pay for the Schnorr check twice.
  return mempool_.add(tx, /*assume_verified=*/true);
}

std::optional<Block> Node::produce_pow(std::uint64_t time_ms,
                                       std::uint64_t max_attempts) {
  Block block = propose(time_ms);
  block.header.target = params_.pow_target;
  const MineResult mined = mine(block.header, max_attempts,
                                /*start_nonce=*/counters_.hash_attempts);
  counters_.hash_attempts += mined.attempts;
  if (!mined.found) return std::nullopt;
  return block;
}

Block Node::propose(std::uint64_t time_ms) {
  Block block;
  block.header.parent = tip_;
  block.header.height = tip_height_ + 1;
  block.header.time_ms = time_ms;
  block.header.target = params_.pow_target;
  block.header.proposer = address_;
  block.txs = mempool_.select(state_, params_, params_.max_block_txs);
  block.header.tx_root = block.compute_tx_root();

  // Preview pass: derive the post-block state commitment by applying in
  // place and undoing through the state journal. A selected tx that
  // fails execution (e.g. a reverting contract call) is evicted and the
  // block falls back to empty rather than proposing garbage. Every
  // selected tx passed the mempool's signature check, so the preview
  // skips re-verifying Schnorr.
  state_.checkpoint();
  if (!apply_block(state_, block, /*count=*/false)) {
    state_.revert();
    if (hook_ != nullptr) hook_->rollback_to(tip_height_);
    mempool_.remove(block.txs);
    block.txs.clear();
    block.header.tx_root = block.compute_tx_root();
    state_.checkpoint();
    apply_block(state_, block, /*count=*/false);  // reward only
  }
  block.header.state_root = state_commitment(state_);
  state_.revert();
  if (hook_ != nullptr) hook_->rollback_to(tip_height_);
  MC_DCHECK(block.tx_root_valid(), "proposed block with stale tx_root");
  MC_DCHECK(block.txs.size() <= params_.max_block_txs,
            "proposed block exceeds max_block_txs");
  return block;
}

std::vector<const Block*> Node::path_from_genesis(const BlockId& id) const {
  std::vector<const Block*> path;
  BlockId cursor = id;
  while (true) {
    auto it = blocks_.find(cursor);
    if (it == blocks_.end()) return {};  // disconnected
    path.push_back(&it->second.block);
    if (cursor == genesis_id_) break;
    cursor = it->second.block.header.parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Hash256 Node::state_commitment(const WorldState& state) const {
  return crypto::sha256_pair(
      state.digest(), hook_ != nullptr ? hook_->state_digest() : Hash256{});
}

bool Node::apply_block(WorldState& state, const Block& block, bool count,
                       std::vector<TxReceipt>* receipts) {
  // Delegated to the execution pipeline (chain/execution): sequential or
  // wave-parallel per the node's ExecutionConfig, identical results
  // either way. Work counters are charged exactly as the old inline loop
  // did: one signature check per tx entered, execution work per tx
  // applied.
  const exec::BlockExecResult result =
      executor_->execute_block(state, block, receipts,
                               /*sigs_prechecked=*/true);
  if (count) {
    counters_.sig_verifications += result.txs_seen;
    counters_.txs_executed += result.txs_applied;
    counters_.gas_executed += result.gas_used;
  }
  return result.ok;
}

std::optional<WorldState> Node::replay(
    const std::vector<const Block*>& path,
    std::vector<TxReceipt>* receipts) {
  WorldState fresh;
  for (const auto& [addr, amount] : params_.premine) fresh.credit(addr, amount);
  if (hook_ != nullptr) hook_->rollback_to(0);
  for (const Block* b : path) {
    if (b->header.height == 0) continue;  // genesis carries no txs
    // Every stored block passed the signature pre-check in receive().
    if (!apply_block(fresh, *b, /*count=*/true, receipts))
      return std::nullopt;
    if (state_commitment(fresh) != b->header.state_root)
      return std::nullopt;  // branch lies about its state
  }
  return fresh;
}

void Node::adopt(const BlockId& id, Height height, WorldState&& new_state,
                 const std::vector<const Block*>& path,
                 std::vector<TxReceipt> receipts) {
  MC_DCHECK(!path.empty() && path.back()->id() == id,
            "adopt path does not end at the new tip");
  MC_DCHECK(path.size() == height + 1,
            "adopt path length disagrees with the new tip height");
  tip_ = id;
  tip_height_ = height;
  state_ = std::move(new_state);
  check_commitment(state_);
  committed_txs_.clear();
  for (auto& r : receipts) committed_txs_[r.id] = r;
  for (const Block* b : path) mempool_.remove(b->txs);
}

BlockVerdict Node::receive(const Block& block) {
  const BlockId id = block.id();
  if (blocks_.count(id) > 0) return BlockVerdict::Duplicate;

  auto parent_it = blocks_.find(block.header.parent);
  if (parent_it == blocks_.end()) {
    // Already parked? Re-announcements of an orphan are common while the
    // gap before it is still being synced.
    for (const Block& held : orphans_)
      if (held.id() == id) return BlockVerdict::Orphan;
    orphans_.push_back(block);
    // Bounded pool: evict oldest first. A real evicted block re-arrives
    // via chain sync once its parent connects; an unbounded pool is a
    // memory hole a malicious peer can feed forever.
    while (orphans_.size() > params_.max_orphans) {
      orphans_.erase(orphans_.begin());
      ++counters_.orphans_evicted;
    }
    return BlockVerdict::Orphan;
  }

  ++counters_.blocks_validated;

  // Structural checks.
  if (block.header.height != parent_it->second.height + 1)
    return BlockVerdict::Invalid;
  // Transaction-set check: Merkle root + every signature — aggregated
  // Schnorr batches per pool chunk when the validator has batching on,
  // per-tx verify otherwise; both give identical verdicts (batch failures
  // bisect to the exact lowest failing index). Signatures verified here
  // are not re-verified during state application below.
  static const BlockValidator seq_fallback;
  const BlockValidation vr =
      (validator_ != nullptr ? *validator_ : seq_fallback).validate(block);
  if (!vr.ok()) return BlockVerdict::Invalid;
  if (block.txs.size() > params_.max_block_txs) return BlockVerdict::Invalid;
  if (params_.consensus == ConsensusKind::ProofOfWork &&
      !meets_target(id, block.header.target))
    return BlockVerdict::Invalid;

  const Height height = block.header.height;
  blocks_.emplace(id, StoredBlock{block, height});

  BlockVerdict verdict = BlockVerdict::AcceptedSide;
  if (height > tip_height_) {
    if (block.header.parent == tip_) {
      // Common case: direct extension — apply in place on the live
      // state; the journal undoes a rejected block.
      state_.checkpoint();
      std::vector<TxReceipt> receipts;
      if (!apply_block(state_, block, /*count=*/true, &receipts) ||
          state_commitment(state_) != block.header.state_root) {
        // A failing tx, or a proposer that committed to a different
        // post-state: neither ledger nor contract effects may leak.
        state_.revert();
        if (hook_ != nullptr) hook_->rollback_to(tip_height_);
        blocks_.erase(id);
        return BlockVerdict::Invalid;
      }
      state_.release_checkpoint();
      check_commitment(state_);
      MC_DCHECK(height == tip_height_ + 1,
                "direct extension must advance the tip by exactly one");
      tip_ = id;
      tip_height_ = height;
      for (auto& r : receipts) committed_txs_[r.id] = r;
      mempool_.remove(block.txs);
    } else {
      // Reorg: replay the candidate branch from genesis.
      const auto path = path_from_genesis(id);
      std::vector<TxReceipt> receipts;
      auto new_state = replay(path, &receipts);
      if (!new_state.has_value()) {
        blocks_.erase(id);
        // Restore contract state of the still-best chain (this replay
        // succeeded before, so it succeeds again).
        if (hook_ != nullptr) replay(path_from_genesis(tip_));
        return BlockVerdict::Invalid;
      }
      adopt(id, height, std::move(*new_state), path, std::move(receipts));
    }
    verdict = BlockVerdict::Accepted;
  }

  retry_orphans(id);
  return verdict;
}

void Node::retry_orphans(const BlockId& parent) {
  // Pull out any orphans that now connect and re-submit them.
  std::vector<Block> ready;
  auto it = orphans_.begin();
  while (it != orphans_.end()) {
    if (it->header.parent == parent) {
      ready.push_back(*it);
      it = orphans_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& b : ready) receive(b);
}

const Block* Node::block(const BlockId& id) const {
  auto it = blocks_.find(id);
  return it == blocks_.end() ? nullptr : &it->second.block;
}

std::vector<BlockId> Node::best_chain() const {
  std::vector<BlockId> out;
  for (const Block* b : path_from_genesis(tip_)) out.push_back(b->id());
  return out;
}

}  // namespace mc::chain
