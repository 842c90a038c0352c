#include "chain/state.hpp"

#include <algorithm>

#include "audit/check.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_batch.hpp"

namespace mc::chain {

ApplyResult WorldState::validate(const Transaction& tx,
                                 const ChainParams& params,
                                 bool assume_sig_valid) const {
  if (!assume_sig_valid && !tx.verify_signature())
    return {false, 0, "bad signature"};
  const Account acct = account(tx.from);
  if (tx.nonce != acct.nonce) return {false, 0, "bad nonce"};
  if (tx.gas_limit < params.transfer_gas && tx.kind == TxKind::Transfer)
    return {false, 0, "gas limit below intrinsic cost"};
  const Amount max_fee = tx.gas_limit * tx.gas_price;
  if (acct.balance < tx.amount + max_fee)
    return {false, 0, "insufficient balance"};
  if (tx.kind == TxKind::Anchor && tx.payload.size() != 32)
    return {false, 0, "anchor payload must be a 32-byte digest"};
  return {true, 0, ""};
}

ApplyResult WorldState::apply(const Transaction& tx, const Address& proposer,
                              const ChainParams& params, Gas execution_gas,
                              bool credit_recipient, bool assume_sig_valid) {
  ApplyResult check = validate(tx, params, assume_sig_valid);
  if (!check.ok) return check;

  Gas gas = execution_gas;
  switch (tx.kind) {
    case TxKind::Transfer:
      gas += params.transfer_gas;
      break;
    case TxKind::Anchor:
      gas += params.transfer_gas / 2 + 8 * tx.payload.size();
      break;
    case TxKind::Deploy:
    case TxKind::Call:
      gas += params.transfer_gas;  // intrinsic cost on top of VM gas
      break;
  }
  if (gas > tx.gas_limit) return {false, 0, "out of gas"};

  const Amount fee = gas * tx.gas_price;
  Account from = account(tx.from);
  if (from.balance < tx.amount + fee)
    return {false, 0, "insufficient balance for fee"};

  MC_DCHECK(gas <= tx.gas_limit, "charging more gas than the tx limit");
  MC_DCHECK(from.nonce == tx.nonce,
            "apply reached past validate with a mismatched nonce");
  from.balance -= tx.amount + fee;
  from.nonce += 1;
  set_account(tx.from, from);
  if (tx.kind == TxKind::Transfer && credit_recipient)
    credit(tx.to, tx.amount);
  credit(proposer, fee);
  return {true, gas, ""};
}

// --- account trie ---------------------------------------------------------

namespace {

constexpr unsigned kNibbles = 2 * sizeof(Address{}.data);

unsigned nibble(const Address& a, unsigned depth) {
  const std::uint8_t byte = a.data[depth / 2];
  return (depth % 2 == 0 ? byte >> 4 : byte) & 0xFu;
}

bool stale(const Hash256& h) { return h == Hash256{}; }

std::uint16_t bit(unsigned nib) {
  return static_cast<std::uint16_t>(1u << nib);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

const WorldState::Leaf* WorldState::find(const Address& a) const {
  NodeRef ref = root_;
  for (unsigned depth = 0; ref != 0; ++depth) {
    if ((ref & kLeafBit) != 0) {
      const Leaf& leaf = leaves_[ref & ~kLeafBit];
      return leaf.addr == a ? &leaf : nullptr;
    }
    ref = branches_[ref - 1].child[nibble(a, depth)];
  }
  return nullptr;
}

std::uint32_t WorldState::new_leaf(const Address& a) {
  ++account_count_;
  if (!free_leaves_.empty()) {
    const std::uint32_t i = free_leaves_.back();
    free_leaves_.pop_back();
    leaves_[i] = Leaf{a, {}, {}};
    return i;
  }
  MC_ASSERT(leaves_.size() < kLeafBit, "account trie leaf index overflow");
  leaves_.push_back(Leaf{a, {}, {}});
  return static_cast<std::uint32_t>(leaves_.size() - 1);
}

WorldState::NodeRef WorldState::new_branch() {
  if (!free_branches_.empty()) {
    const std::uint32_t i = free_branches_.back();
    free_branches_.pop_back();
    branches_[i] = Branch{};
    return i + 1;
  }
  MC_ASSERT(branches_.size() + 1 < kLeafBit,
            "account trie branch index overflow");
  branches_.emplace_back();
  return static_cast<NodeRef>(branches_.size());
}

WorldState::Leaf& WorldState::touch(const Address& a) {
  // Deque growth keeps element references valid, so the slot being
  // walked stays addressable across new_leaf() / new_branch().
  NodeRef* slot = &root_;
  for (unsigned depth = 0;; ++depth) {
    const NodeRef ref = *slot;
    if (ref == 0) {
      const std::uint32_t i = new_leaf(a);
      *slot = kLeafBit | i;
      return leaves_[i];
    }
    if ((ref & kLeafBit) != 0) {
      Leaf& held = leaves_[ref & ~kLeafBit];
      if (held.addr == a) {
        held.hash = Hash256{};
        return held;
      }
      // Split: branch until the two addresses' nibbles diverge.
      const Address other = held.addr;
      const std::uint32_t fresh = new_leaf(a);
      for (;; ++depth) {
        MC_ASSERT(depth < kNibbles, "distinct addresses share every nibble");
        const NodeRef b = new_branch();
        *slot = b;
        Branch& branch = branches_[b - 1];
        const unsigned na = nibble(a, depth);
        const unsigned no = nibble(other, depth);
        // Both sides may be stale: the held leaf can be new this block.
        branch.stale = bit(na) | bit(no);
        if (na != no) {
          branch.child[na] = kLeafBit | fresh;
          branch.child[no] = ref;
          return leaves_[fresh];
        }
        slot = &branch.child[na];
      }
    }
    Branch& branch = branches_[ref - 1];
    const unsigned nib = nibble(a, depth);
    branch.hash = Hash256{};
    branch.stale |= bit(nib);
    slot = &branch.child[nib];
  }
}

void WorldState::erase(const Address& a) {
  std::array<NodeRef, kNibbles> path{};  // branches from the root down
  unsigned depth = 0;
  NodeRef ref = root_;
  while ((ref & kLeafBit) == 0) {
    MC_ASSERT(ref != 0, "erasing an absent account");
    path[depth] = ref;
    ref = branches_[ref - 1].child[nibble(a, depth)];
    ++depth;
  }
  MC_ASSERT(leaves_[ref & ~kLeafBit].addr == a, "erasing an absent account");
  free_leaves_.push_back(ref & ~kLeafBit);
  --account_count_;

  // Walk back up. `up` replaces the erased subtree in its parent: empty
  // first, then a lone leaf while single-account branches collapse.
  NodeRef up = 0;
  while (depth > 0) {
    --depth;
    Branch& branch = branches_[path[depth] - 1];
    branch.child[nibble(a, depth)] = up;
    branch.hash = Hash256{};
    branch.stale |= bit(nibble(a, depth));
    std::size_t live = 0;
    NodeRef only = 0;
    for (NodeRef c : branch.child)
      if (c != 0) {
        ++live;
        only = c;
      }
    if (live != 1 || (only & kLeafBit) == 0) {
      // Still holds ≥ 2 accounts: ancestors stay, only their digests go.
      for (unsigned d = 0; d < depth; ++d) {
        branches_[path[d] - 1].hash = Hash256{};
        branches_[path[d] - 1].stale |= bit(nibble(a, d));
      }
      return;
    }
    free_branches_.push_back(path[depth] - 1);
    up = only;
  }
  root_ = up;
}

Account WorldState::account(const Address& a) const {
  const Leaf* leaf = find(a);
  return leaf == nullptr ? Account{} : leaf->acct;
}

void WorldState::journal(const Address& a) {
  if (!checkpoint_.has_value()) return;
  if (checkpoint_->prior.count(a) > 0) return;
  const Leaf* leaf = find(a);
  checkpoint_->prior.emplace(
      a, leaf == nullptr ? std::nullopt : std::optional<Account>(leaf->acct));
}

void WorldState::credit(const Address& a, Amount amount) {
  journal(a);
  touch(a).acct.balance += amount;
}

void WorldState::set_account(const Address& a, const Account& acct) {
  journal(a);
  touch(a).acct = acct;
}

void WorldState::for_each_account(
    const std::function<void(const Address&, const Account&)>& fn) const {
  // Children are pushed high nibble first, so leaves pop in address order.
  std::vector<NodeRef> stack;
  if (root_ != 0) stack.push_back(root_);
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    if ((ref & kLeafBit) != 0) {
      const Leaf& leaf = leaves_[ref & ~kLeafBit];
      fn(leaf.addr, leaf.acct);
      continue;
    }
    const Branch& branch = branches_[ref - 1];
    for (auto c = branch.child.rbegin(); c != branch.child.rend(); ++c)
      if (*c != 0) stack.push_back(*c);
  }
}

Hash256 WorldState::trie_root() const {
  if (root_ == 0) return Hash256{};
  // Gather the stale nodes by following the stale-child masks from the
  // root: stale digests form root-to-leaf paths, so the walk visits
  // exactly them and never reads a clean node.
  std::vector<std::uint32_t> leaves;
  std::vector<std::vector<std::uint32_t>> levels;  // stale branches by depth
  std::vector<std::pair<NodeRef, unsigned>> stack;
  const auto visit = [&](NodeRef c, unsigned depth) {
    if ((c & kLeafBit) == 0)
      stack.emplace_back(c, depth);
    else if (stale(leaves_[c & ~kLeafBit].hash))
      leaves.push_back(c & ~kLeafBit);
  };
  visit(root_, 0);
  while (!stack.empty()) {
    const auto [ref, depth] = stack.back();
    stack.pop_back();
    const Branch& branch = branches_[ref - 1];
    if (!stale(branch.hash)) continue;
    if (levels.size() <= depth) levels.resize(depth + 1);
    levels[depth].push_back(ref - 1);
    for (unsigned k = 0; k < 16; ++k)
      if ((branch.stale & bit(k)) != 0 && branch.child[k] != 0)
        visit(branch.child[k], depth + 1);
    branch.stale = 0;
  }

  // Leaves first (they depend on nothing), then branches deepest level
  // first: each batch reads only digests finished by an earlier one.
  // Batches go out in bounded chunks so the first full build does not
  // stage the whole state's encodings at once.
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint8_t> buf;
  std::vector<std::size_t> offsets;
  std::vector<BytesView> views;
  std::vector<Hash256> out;
  const auto hash_batch = [&](std::size_t n, const auto& encode,
                              const auto& store) {
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = std::min(kChunk, n - base);
      buf.clear();
      offsets.clear();
      for (std::size_t i = 0; i < m; ++i) {
        offsets.push_back(buf.size());
        encode(base + i, buf);
      }
      offsets.push_back(buf.size());
      views.clear();
      for (std::size_t i = 0; i < m; ++i)
        views.emplace_back(buf.data() + offsets[i],
                           offsets[i + 1] - offsets[i]);
      out.resize(m);
      crypto::sha256_many(views.data(), m, out.data());
      for (std::size_t i = 0; i < m; ++i) store(base + i, out[i]);
    }
  };

  hash_batch(
      leaves.size(),
      [&](std::size_t i, std::vector<std::uint8_t>& b) {
        const Leaf& leaf = leaves_[leaves[i]];
        std::uint8_t enc[1 + 20 + 8 + 8];
        enc[0] = 0x00;
        std::copy(leaf.addr.data.begin(), leaf.addr.data.end(), enc + 1);
        put_u64(enc + 21, leaf.acct.balance);
        put_u64(enc + 29, leaf.acct.nonce);
        b.insert(b.end(), enc, enc + sizeof enc);
      },
      [&](std::size_t i, const Hash256& h) { leaves_[leaves[i]].hash = h; });

  const auto child_hash = [&](NodeRef c) -> const Hash256& {
    return (c & kLeafBit) != 0 ? leaves_[c & ~kLeafBit].hash
                               : branches_[c - 1].hash;
  };
  for (std::size_t depth = levels.size(); depth-- > 0;) {
    const std::vector<std::uint32_t>& level = levels[depth];
    hash_batch(
        level.size(),
        [&](std::size_t i, std::vector<std::uint8_t>& b) {
          const Branch& branch = branches_[level[i]];
          std::uint16_t bitmap = 0;
          for (unsigned k = 0; k < 16; ++k)
            if (branch.child[k] != 0) bitmap |= bit(k);
          b.push_back(0x01);
          b.push_back(static_cast<std::uint8_t>(bitmap));
          b.push_back(static_cast<std::uint8_t>(bitmap >> 8));
          for (NodeRef c : branch.child)
            if (c != 0) {
              const Hash256& h = child_hash(c);
              b.insert(b.end(), h.data.begin(), h.data.end());
            }
        },
        [&](std::size_t i, const Hash256& h) { branches_[level[i]].hash = h; });
  }
  return child_hash(root_);
}

// --- anchors, digest, journal ---------------------------------------------

bool WorldState::anchored(const Address& owner, const Hash256& digest) const {
  return anchor_index_.count(AnchorKey{owner, digest}) > 0;
}

void WorldState::record_anchor(const Address& owner, const Hash256& digest,
                               Height height) {
  anchors_.push_back(AnchorRecord{owner, digest, height});
  ++anchor_index_[AnchorKey{owner, digest}];
}

Hash256 WorldState::digest() const {
  for (; anchors_folded_ < anchors_.size(); ++anchors_folded_) {
    const AnchorRecord& r = anchors_[anchors_folded_];
    ByteWriter w;
    w.u8(0x02);
    w.hash(anchor_acc_);
    w.raw(BytesView(r.owner.data));
    w.hash(r.digest);
    w.u64(r.height);
    anchor_acc_ = crypto::sha256(BytesView(w.data()));
  }
  ByteWriter w;
  w.u8(0x03);
  w.hash(trie_root());
  w.hash(anchor_acc_);
  w.u64(anchors_.size());
  return crypto::sha256(BytesView(w.data()));
}

void WorldState::checkpoint() {
  MC_ASSERT(!checkpoint_.has_value(), "WorldState checkpoint already open");
  checkpoint_.emplace();
  checkpoint_->anchors = anchors_.size();
  checkpoint_->anchor_acc = anchor_acc_;
  checkpoint_->anchors_folded = anchors_folded_;
}

void WorldState::revert() {
  MC_ASSERT(checkpoint_.has_value(), "WorldState revert without checkpoint");
  Checkpoint cp = std::move(*checkpoint_);
  checkpoint_.reset();
  for (const auto& [addr, prior] : cp.prior) {
    if (prior.has_value())
      touch(addr).acct = *prior;
    else
      erase(addr);  // created since the checkpoint
  }
  for (std::size_t i = cp.anchors; i < anchors_.size(); ++i) {
    const auto it = anchor_index_.find(AnchorKey{anchors_[i].owner,
                                                 anchors_[i].digest});
    if (--it->second == 0) anchor_index_.erase(it);
  }
  anchors_.resize(cp.anchors);
  // The saved accumulator folds a prefix of the surviving anchors.
  anchor_acc_ = cp.anchor_acc;
  anchors_folded_ = cp.anchors_folded;
}

void WorldState::release_checkpoint() { checkpoint_.reset(); }

}  // namespace mc::chain
