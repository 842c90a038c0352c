// A fully-replicated contract consortium (paper Fig. 2, executable form).
//
// N member nodes — hospitals, providers, the government hub — each run a
// full chain node with its own contract store. Proposers rotate
// round-robin (the PBFT ordering of chain/pbft.hpp decides *when* a block
// commits; this class executes *what* it contains). Every member
// re-executes every transaction: the class exposes that duplication (and
// the resulting digest agreement) directly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/block_validator.hpp"
#include "chain/node.hpp"
#include "chain/vm_hook.hpp"
#include "common/thread_pool.hpp"
#include "vm/contract_store.hpp"

namespace mc::core {

struct ConsortiumConfig {
  std::size_t members = 4;
  chain::ChainParams params{};  ///< consensus forced to Pbft
  std::string chain_tag = "medchain-consortium";
  /// Accounts funded at genesis in addition to the admin key.
  std::vector<std::pair<chain::Address, chain::Amount>> premine{};
};

/// Result of committing one block of transactions.
struct CommitResult {
  bool ok = false;
  chain::Height height = 0;
  std::size_t txs = 0;
  std::string error;
};

class Consortium {
 public:
  explicit Consortium(ConsortiumConfig config = {});

  /// The consortium admin identity (funded at genesis).
  [[nodiscard]] const crypto::PrivateKey& admin() const { return admin_; }

  /// Submit transactions and commit them as one block, applied by every
  /// member. Fails atomically: an invalid tx rejects the whole block on
  /// all members.
  CommitResult commit(const std::vector<chain::Transaction>& txs);

  /// Deploy contract code via an on-chain transaction; returns the
  /// contract id once every member has executed the deployment.
  std::optional<vm::Word> deploy_contract(const crypto::PrivateKey& from,
                                          Bytes bytecode);

  /// Call a contract via an on-chain transaction (one-tx block).
  CommitResult call_contract(const crypto::PrivateKey& from,
                             vm::Word contract_id,
                             std::vector<vm::Word> calldata);

  /// Next nonce for an account (tracked against member 0's ledger).
  [[nodiscard]] std::uint64_t nonce_of(const crypto::PrivateKey& key) const;

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] chain::Height height() const;

  /// True when every member's ledger and contract store agree.
  [[nodiscard]] bool in_consensus() const;

  /// Total transactions executed across all members (the duplication).
  [[nodiscard]] std::uint64_t total_executions() const;

  [[nodiscard]] chain::Node& member(std::size_t i) {
    return *members_.at(i)->node;
  }
  [[nodiscard]] vm::ContractStore& store(std::size_t i) {
    return members_.at(i)->store;
  }

 private:
  struct Member {
    vm::ContractStore store;
    std::unique_ptr<chain::VmExecutionHook> hook;
    std::unique_ptr<chain::Node> node;
  };

  ConsortiumConfig config_;
  crypto::PrivateKey admin_;
  /// Shared worker pool: every member fans block validation (signatures +
  /// Merkle leaves) across it. Members validate the same block serially
  /// in commit(), so sharing one pool loses no parallelism.
  ThreadPool pool_;
  chain::BlockValidator validator_{&pool_};
  std::vector<std::unique_ptr<Member>> members_;
  std::size_t next_proposer_ = 0;
  std::uint64_t clock_ms_ = 0;
};

}  // namespace mc::core
