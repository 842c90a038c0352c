// Shared blockchain value types and chain parameters.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/schnorr.hpp"

namespace mc::chain {

using Address = crypto::Address;
using Amount = std::uint64_t;
using Gas = std::uint64_t;
using Height = std::uint64_t;

/// Transaction/block ids are SHA-256d digests of canonical encodings.
using TxId = Hash256;
using BlockId = Hash256;

/// Consensus flavour a ChainSim instance runs.
enum class ConsensusKind : std::uint8_t {
  ProofOfWork,   ///< public chain, duplicated hash mining
  ProofOfStake,  ///< public chain, stake-weighted virtual mining
  Pbft,          ///< permissioned consortium (the medical blockchain)
};

struct ChainParams {
  ConsensusKind consensus = ConsensusKind::Pbft;

  /// PoW: initial target on Hash256::prefix_u64(); larger = easier.
  std::uint64_t pow_target = ~0ULL / 5'000;

  /// Desired seconds between blocks (difficulty retarget goal).
  double block_interval_s = 2.0;

  /// Retarget window in blocks.
  Height retarget_window = 16;

  std::size_t max_block_txs = 256;

  /// Flat gas charged for a plain value transfer.
  Gas transfer_gas = 21'000;

  /// Gas budget cap per block (bounds duplicated re-execution per node).
  Gas block_gas_limit = 10'000'000;

  /// Reward minted to the proposer of each block.
  Amount block_reward = 50;

  /// Cap on blocks held while their parent is missing (crash recovery,
  /// partition heal). Oldest orphans are evicted first; an evicted block
  /// is re-fetched by chain sync if it was real.
  std::size_t max_orphans = 64;

  /// Genesis allocation: balances credited before block 1, outside any
  /// block undo record; a reorg past the undo window re-credits it.
  std::vector<std::pair<Address, Amount>> premine;
};

}  // namespace mc::chain
