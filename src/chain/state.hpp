// World state: account balances, nonces and the anchor registry.
//
// Contract storage lives in vm::ContractStore; WorldState owns the value
// ledger plus the on-chain dataset anchor index that §III.A's integrity
// scheme relies on.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/transaction.hpp"
#include "chain/types.hpp"

namespace mc::chain {

struct Account {
  Amount balance = 0;
  std::uint64_t nonce = 0;  ///< next expected transaction nonce

  friend bool operator==(const Account& a, const Account& b) {
    return a.balance == b.balance && a.nonce == b.nonce;
  }
};

/// Result of applying one transaction.
struct ApplyResult {
  bool ok = false;
  Gas gas_used = 0;
  std::string error;  ///< empty when ok
};

/// An anchored off-chain dataset digest (kind == TxKind::Anchor).
struct AnchorRecord {
  Address owner{};
  Hash256 digest{};
  Height height = 0;
};

/// The ledger: accounts in a 16-ary Merkle trie plus the anchor registry,
/// with an O(block) state commitment (DESIGN.md §16).
///
/// Accounts live in the trie itself, keyed by address nibbles (high
/// nibble first). A subtree that holds one account collapses to that
/// account's leaf, so the shape — and therefore the root — depends only
/// on the set of (address, account) pairs, never on insertion order or
/// history. Mutations only mark the root-to-leaf path stale; digest()
/// rehashes the stale nodes bottom-up, one trie level per batched
/// sha256_many call. A one-level undo journal (checkpoint / revert)
/// replaces whole-state copies for speculative block application.
class WorldState {
 public:
  /// Read-only account lookup; absent accounts read as zero.
  [[nodiscard]] Account account(const Address& a) const;

  [[nodiscard]] Amount balance(const Address& a) const {
    return account(a).balance;
  }
  [[nodiscard]] std::uint64_t nonce(const Address& a) const {
    return account(a).nonce;
  }

  /// Mint `amount` into `a` (genesis funding, block rewards). Crediting 0
  /// still creates the account: present differs from absent.
  void credit(const Address& a, Amount amount);

  /// Validate a transaction against current state (signature, nonce,
  /// balance, gas); does not mutate. `assume_sig_valid` skips the
  /// signature check when the caller has already verified it (e.g. a
  /// BlockValidator pre-pass or the mempool's admission check) — state
  /// rules are still enforced in full.
  [[nodiscard]] ApplyResult validate(const Transaction& tx,
                                     const ChainParams& params,
                                     bool assume_sig_valid = false) const;

  /// Validate then apply balance/nonce effects and fee transfer to
  /// `proposer`. Contract execution effects are applied by the caller
  /// (node) which owns the VM; this handles the ledger side.
  /// `credit_recipient=false` debits only — used by the sharded ledger,
  /// where the recipient account lives in a different shard's state.
  ApplyResult apply(const Transaction& tx, const Address& proposer,
                    const ChainParams& params, Gas execution_gas = 0,
                    bool credit_recipient = true,
                    bool assume_sig_valid = false);

  /// Anchors recorded so far, newest last.
  [[nodiscard]] const std::vector<AnchorRecord>& anchors() const {
    return anchors_;
  }

  /// True if `digest` has been anchored by `owner` (hash-indexed, O(1)).
  [[nodiscard]] bool anchored(const Address& owner,
                              const Hash256& digest) const;

  void record_anchor(const Address& owner, const Hash256& digest,
                     Height height);

  [[nodiscard]] std::size_t account_count() const { return account_count_; }

  /// Visit every account in ascending address order.
  void for_each_account(
      const std::function<void(const Address&, const Account&)>& fn) const;

  /// State commitment H(0x03 ‖ trie root ‖ anchor accumulator ‖ anchor
  /// count). Rehashes only the paths touched since the last call, so it
  /// costs O(block) after the first call (which builds the whole trie in
  /// one batched pass). Refreshes cached node digests: like a mutation,
  /// it must not run concurrently with other calls on the same state.
  [[nodiscard]] Hash256 digest() const;

  // --- undo journal -----------------------------------------------------

  /// Start recording first-touch prior values so revert() can undo every
  /// mutation made from here on. One level: no checkpoint may be open.
  void checkpoint();

  /// Undo every mutation since checkpoint() — accounts, anchors and the
  /// anchor index — and close the checkpoint. digest() and anchored()
  /// afterwards equal their values at checkpoint() bit for bit.
  void revert();

  /// Keep every mutation since checkpoint() and close the checkpoint.
  void release_checkpoint();

  /// Overwrite an account wholesale. The ledger-write primitive apply()
  /// is built on; outside chain/state prefer apply().
  void set_account(const Address& a, const Account& acct);

 private:
  /// Trie node handle: 0 is empty, kLeafBit|i is leaves_[i], otherwise
  /// branches_[ref - 1].
  using NodeRef = std::uint32_t;
  static constexpr NodeRef kLeafBit = 0x8000'0000u;

  /// Cached node digests are all-zero while stale (a real SHA-256 output
  /// of zero is not a concern at 2^-256).
  struct Leaf {
    Address addr{};
    Account acct{};
    mutable Hash256 hash{};
  };
  struct Branch {
    std::array<NodeRef, 16> child{};
    mutable Hash256 hash{};
    /// Children on a stale path (bit k = child[k]): digest() descends
    /// only into these, never reading clean siblings to find work.
    mutable std::uint16_t stale = 0;
  };

  struct AnchorKey {
    Address owner{};
    Hash256 digest{};
    friend bool operator==(const AnchorKey&, const AnchorKey&) = default;
  };
  struct AnchorKeyHash {
    std::size_t operator()(const AnchorKey& k) const noexcept {
      return std::hash<Hash256>{}(k.digest) ^ std::hash<Address>{}(k.owner);
    }
  };

  struct Checkpoint {
    /// First-touch prior value per account; nullopt = absent before.
    std::unordered_map<Address, std::optional<Account>> prior;
    std::size_t anchors = 0;
    Hash256 anchor_acc{};
    std::size_t anchors_folded = 0;
  };

  [[nodiscard]] const Leaf* find(const Address& a) const;
  /// The leaf of `a`, created zeroed when absent; its path marked stale.
  Leaf& touch(const Address& a);
  /// Remove `a` (present) and collapse single-account subtrees.
  void erase(const Address& a);
  void journal(const Address& a);

  std::uint32_t new_leaf(const Address& a);
  NodeRef new_branch();
  [[nodiscard]] Hash256 trie_root() const;

  // Deques, not vectors: node storage grows in small fixed blocks, so a
  // large state carries no doubling slack (memory tracks account count).
  NodeRef root_ = 0;
  std::deque<Leaf> leaves_;
  std::deque<Branch> branches_;
  std::vector<std::uint32_t> free_leaves_;
  std::vector<std::uint32_t> free_branches_;
  std::size_t account_count_ = 0;

  std::vector<AnchorRecord> anchors_;
  std::unordered_map<AnchorKey, std::uint32_t, AnchorKeyHash> anchor_index_;
  /// Anchor chain acc' = H(0x02 ‖ acc ‖ owner ‖ digest ‖ height), folded
  /// lazily by digest() over anchors_[0, anchors_folded_).
  mutable Hash256 anchor_acc_{};
  mutable std::size_t anchors_folded_ = 0;

  std::optional<Checkpoint> checkpoint_;
};

}  // namespace mc::chain
