#include "chain/mempool.hpp"

#include <algorithm>
#include <map>

#include "audit/check.hpp"

namespace mc::chain {

bool Mempool::add(const Transaction& tx) {
  if (!tx.verify_signature()) return false;  // verify outside the lock
  const TxId id = tx.id();
  MutexLock lock(mutex_);
  return by_id_.emplace(id, tx).second;
}

std::vector<Transaction> Mempool::select(const WorldState& state,
                                         const ChainParams& params,
                                         std::size_t max_txs) const {
  MutexLock lock(mutex_);
  // Group by sender, sort each group by nonce, then greedily merge by
  // gas price while tracking simulated nonces and balances.
  std::unordered_map<Address, std::vector<const Transaction*>> by_sender;
  for (const auto& [id, tx] : by_id_) by_sender[tx.from].push_back(&tx);
  for (auto& [sender, list] : by_sender) {
    std::sort(list.begin(), list.end(),
              [](const Transaction* a, const Transaction* b) {
                return a->nonce < b->nonce;
              });
  }

  struct Cursor {
    const std::vector<const Transaction*>* list;
    std::size_t next = 0;
    std::uint64_t expected_nonce = 0;
    Amount balance = 0;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(by_sender.size());
  for (auto& [sender, list] : by_sender) {
    const Account acct = state.account(sender);
    cursors.push_back(Cursor{&list, 0, acct.nonce, acct.balance});
  }

  std::vector<Transaction> out;
  Gas gas_budget = params.block_gas_limit;
  while (out.size() < max_txs) {
    // Among each sender's next in-order transaction, take the highest fee.
    Cursor* best = nullptr;
    for (auto& c : cursors) {
      while (c.next < c.list->size() &&
             (*c.list)[c.next]->nonce < c.expected_nonce)
        ++c.next;  // skip stale nonces
      if (c.next >= c.list->size()) continue;
      const Transaction* tx = (*c.list)[c.next];
      if (tx->nonce != c.expected_nonce) continue;  // gap; sender stalled
      if (tx->amount + tx->gas_limit * tx->gas_price > c.balance) {
        ++c.next;  // unaffordable; try the sender's next (will likely gap)
        continue;
      }
      if (tx->gas_limit > gas_budget) continue;
      if (best == nullptr ||
          tx->gas_price > (*best->list)[best->next]->gas_price)
        best = &c;
    }
    if (best == nullptr) break;
    const Transaction* tx = (*best->list)[best->next];
    MC_DCHECK(tx->gas_limit <= gas_budget,
              "selected tx exceeds the remaining block gas budget");
    out.push_back(*tx);
    best->expected_nonce += 1;
    best->balance -= tx->amount + tx->gas_limit * tx->gas_price;
    best->next += 1;
    gas_budget -= tx->gas_limit;
  }
  MC_DCHECK(out.size() <= max_txs, "selection overflowed max_txs");
  return out;
}

void Mempool::remove(const std::vector<Transaction>& txs) {
  MutexLock lock(mutex_);
  for (const auto& tx : txs) by_id_.erase(tx.id());
}

std::vector<Transaction> Mempool::snapshot() const {
  MutexLock lock(mutex_);
  std::vector<Transaction> out;
  out.reserve(by_id_.size());
  for (const auto& [id, tx] : by_id_) out.push_back(tx);
  return out;
}

}  // namespace mc::chain
