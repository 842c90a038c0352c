#include "chain/node.hpp"

#include <algorithm>

#include "audit/check.hpp"
#include "audit/state_reference.hpp"
#include "chain/block_validator.hpp"
#include "chain/execution/executor.hpp"
#include "chain/pow.hpp"
#include "common/undo_window.hpp"

namespace mc::chain {

Node::Node(crypto::PrivateKey key, ChainParams params, Block genesis,
           ExecutionHook* hook)
    : key_(key),
      address_(crypto::address_of(key.pub)),
      params_(params),
      hook_(hook),
      executor_(
          std::make_unique<exec::BlockExecutor>(std::move(params), hook)) {
  genesis_id_ = genesis.id();
  blocks_.emplace(genesis_id_, std::move(genesis));
  tip_ = genesis_id_;
  tip_height_ = 0;
  reset_to_genesis();
}

Node::~Node() = default;
Node::Node(Node&&) noexcept = default;
Node& Node::operator=(Node&&) noexcept = default;

void Node::set_execution(const exec::ExecutionConfig& config) {
  executor_->set_config(config);
}

bool Node::submit(const Transaction& tx) {
  // One signature check per submit, made inside the mempool's add().
  ++counters_.sig_verifications;
  if (committed_txs_.count(tx.id()) > 0) return false;
  return mempool_.add(tx);
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

  // Preview pass, charging no work counters: execute in place for the
  // post-block state commitment, then rewind. A selected tx that fails
  // execution (e.g. a reverting contract call) is evicted and the block
  // falls back to empty rather than proposing garbage. Every selected tx
  // passed the mempool's signature check, so Schnorr is not re-verified.
  if (!executor_->execute_block(state_, block, nullptr, true).ok) {
    rewind(tip_height_);
    mempool_.remove(block.txs);
    block.txs.clear();
    block.header.tx_root = block.compute_tx_root();
    executor_->execute_block(state_, block);  // reward only
  }
  block.header.state_root = state_commitment();
  rewind(tip_height_);
  MC_DCHECK(block.tx_root_valid(), "proposed block with stale tx_root");
  MC_DCHECK(block.txs.size() <= params_.max_block_txs,
            "proposed block exceeds max_block_txs");
  return block;
}

Hash256 Node::state_commitment() const {
  return crypto::sha256_pair(
      state_.digest(), hook_ != nullptr ? hook_->state_digest() : Hash256{});
}

bool Node::connect(const Block& block, std::vector<TxReceipt>* receipts) {
  const exec::BlockExecResult result =
      executor_->execute_block(state_, block, receipts, true);
  counters_.sig_verifications += result.txs_seen;
  counters_.txs_executed += result.txs_applied;
  counters_.gas_executed += result.gas_used;
  return result.ok && state_commitment() == block.header.state_root;
}

void Node::rewind(Height height) {
  if (height > 0 || state_.can_rollback_to(0))
    state_.rollback_to(height);  // MC_ASSERTs that `height` is in reach
  else
    reset_to_genesis();
  if (hook_ != nullptr) hook_->rollback_to(height);
}

void Node::reset_to_genesis() {
  state_ = WorldState{};
  for (const auto& [addr, amount] : params_.premine) state_.credit(addr, amount);
}

bool Node::switch_tip(const BlockId& id, Height height) {
  // Fork point: walk the new branch and the best chain back to their
  // common ancestor — O(reorg depth), and just the tip for an extension.
  std::vector<const Block*> branch;  // blocks to connect, newest first
  std::vector<const Block*> old;     // blocks to disconnect, newest first
  const auto step = [this](BlockId& cursor, std::vector<const Block*>& out) {
    const Block& b = blocks_.at(cursor);
    out.push_back(&b);
    cursor = b.header.parent;
  };
  BlockId ours = tip_;
  BlockId theirs = id;
  Height base = height;
  for (; base > tip_height_; --base) step(theirs, branch);
  // The base is the fork point for a reorg of at most kUndoDepth blocks,
  // else genesis: the shared blocks below the fork then re-connect too.
  for (; theirs != ours || (base > 0 && tip_height_ - base > kUndoDepth);
       --base) {
    step(theirs, branch);
    step(ours, old);
  }
  std::reverse(branch.begin(), branch.end());
  std::reverse(old.begin(), old.end());

  // Nothing to undo when the branch extends the tip.
  if (base < tip_height_) rewind(base);
  std::vector<TxReceipt> receipts;
  for (const Block* b : branch) {
    if (connect(*b, &receipts)) continue;
    // Nothing of the branch may leak: re-apply the old, which connected.
    rewind(base);
    for (const Block* prev : old) {
      const bool reconnected = connect(*prev, nullptr);
      MC_ASSERT(reconnected, "the old best branch failed to reconnect");
    }
    return false;
  }
  // Audit builds re-derive every committed ledger digest from scratch.
  MC_DCHECK(audit::reference_state_digest(state_) == state_.digest(),
            "incremental state commitment diverged from the reference");
  for (const Block* prev : old)
    for (const Transaction& tx : prev->txs) committed_txs_.erase(tx.id());
  for (const TxReceipt& r : receipts) committed_txs_[r.id] = r;
  for (const Block* b : branch) mempool_.remove(b->txs);
  tip_ = id;
  tip_height_ = height;
  return true;
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
  if (block.header.height != parent_it->second.header.height + 1)
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
  blocks_.emplace(id, block);

  BlockVerdict verdict = BlockVerdict::AcceptedSide;
  if (height > tip_height_) {
    if (!switch_tip(id, height)) {
      blocks_.erase(id);
      return BlockVerdict::Invalid;
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
  return it == blocks_.end() ? nullptr : &it->second;
}

std::vector<BlockId> Node::best_chain() const {
  std::vector<BlockId> out{tip_};
  while (out.back() != genesis_id_)
    out.push_back(blocks_.at(out.back()).header.parent);
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace mc::chain
