// Mempool: pending transactions awaiting block inclusion.
//
// Selection is fee-priority with per-sender nonce ordering, mirroring
// production node behaviour closely enough for the throughput experiments.
//
// Thread safety: all public methods are internally synchronized. The
// transformed architecture ingests transactions from many concurrent
// off-chain feeds while the consensus thread selects blocks, so the pool
// is a shared-access structure (exercised under TSan by
// tests/stress_concurrency_test.cpp).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/state.hpp"
#include "chain/transaction.hpp"
#include "common/thread_annotations.hpp"

namespace mc::chain {

class Mempool {
 public:
  Mempool() = default;
  Mempool(const Mempool& other) : by_id_(other.copy_map()) {}
  Mempool& operator=(const Mempool& other) {
    if (this != &other) {
      auto copied = other.copy_map();
      MutexLock lock(mutex_);
      by_id_ = std::move(copied);
    }
    return *this;
  }

  /// Add a transaction; rejects duplicates and bad signatures (verified
  /// here, outside the lock). Returns true if accepted.
  bool add(const Transaction& tx);

  /// True if the pool already holds this transaction id.
  [[nodiscard]] bool contains(const TxId& id) const {
    MutexLock lock(mutex_);
    return by_id_.count(id) > 0;
  }

  /// Pick up to `max_txs` transactions, highest gas price first, keeping
  /// per-sender nonce order and respecting current state nonces/balances.
  [[nodiscard]] std::vector<Transaction> select(const WorldState& state,
                                                const ChainParams& params,
                                                std::size_t max_txs) const;

  /// Drop transactions included in a block (or otherwise finalized).
  void remove(const std::vector<Transaction>& txs);

  /// Point-in-time copy of every pending transaction (auditing, tests).
  [[nodiscard]] std::vector<Transaction> snapshot() const;

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mutex_);
    return by_id_.size();
  }
  [[nodiscard]] bool empty() const {
    MutexLock lock(mutex_);
    return by_id_.empty();
  }

  void clear() {
    MutexLock lock(mutex_);
    by_id_.clear();
  }

 private:
  [[nodiscard]] std::unordered_map<TxId, Transaction> copy_map() const {
    MutexLock lock(mutex_);
    return by_id_;
  }

  // Justification: the mempool IS a shared concurrent container — the
  // one place per node where gossip/validator threads meet; its lock is
  // the abstraction the rest of the chain layer builds on. The guard
  // relation is machine-checked by clang -Wthread-safety.
  mutable Mutex mutex_;
  std::unordered_map<TxId, Transaction> by_id_ MC_GUARDED_BY(mutex_);
};

}  // namespace mc::chain
