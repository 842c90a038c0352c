// End-to-end blockchain network simulation (PoW / PoS).
//
// Drives a population of full nodes over the gossip fabric with Poisson
// transaction arrivals and either analytically-timed PoW mining or
// slot-based PoS proposal. Produces the throughput / latency / energy /
// duplication numbers behind bench_c1_scalability and bench_c2_energy.
//
// PoW mining is modeled in *simulated* time: block discovery is an
// exponential race at the configured aggregate hash rate, and the hash
// attempts that race implies are charged to the energy meter — grinding
// real nonces on the host CPU would measure the host, not the protocol.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/node.hpp"
#include "chain/p2p.hpp"
#include "chain/pos.hpp"
#include "sim/energy.hpp"
#include "sim/network.hpp"

namespace mc::chain {

struct ChainSimConfig {
  std::size_t node_count = 8;
  std::uint32_t regions = 4;
  ChainParams params;
  sim::NetworkConfig net;
  sim::EnergyCostModel energy;

  std::size_t client_count = 16;
  std::size_t tx_count = 400;         ///< transactions to inject
  double tx_rate_per_s = 200.0;       ///< Poisson arrival rate
  double hashes_per_s_per_node = 1e6; ///< PoW hash rate per node
  double gossip_drop_rate = 0.0;      ///< per-message loss injection
  double sim_limit_s = 3'600.0;
  std::uint64_t seed = 42;
  /// Aggregated Schnorr batch verification in the shared BlockValidator
  /// (identical verdicts either way; off = per-tx verify, for A/B timing).
  bool batch_verify = true;
};

struct ChainSimReport {
  std::size_t nodes = 0;
  std::size_t submitted_txs = 0;
  /// Txs a majority of nodes have had on their best chain.
  std::size_t committed_txs = 0;
  /// Txs on the best chain of every node when the run ends.
  std::size_t txs_on_every_best_chain = 0;
  double duration_s = 0;  ///< sim time of the last commit
  double throughput_tps = 0;
  double avg_commit_latency_s = 0;
  double max_commit_latency_s = 0;
  std::uint64_t blocks_on_best_chain = 0;
  std::uint64_t blocks_produced = 0;

  // Duplicated-computing evidence.
  std::uint64_t total_hash_attempts = 0;
  std::uint64_t total_sig_verifications = 0;
  std::uint64_t total_txs_executed = 0;
  double execution_duplication = 0;  ///< txs_executed / committed_txs

  // Parallelism headroom: pairwise static-footprint conflict analysis of
  // every block on node 0's best chain (chain/conflict.hpp). The
  // complement of conflict_rate is the fraction of tx pairs a
  // conflict-DAG scheduler could run concurrently.
  std::size_t conflict_pairs = 0;
  std::size_t conflict_conflicting_pairs = 0;
  std::size_t conflict_unbounded_txs = 0;
  double conflict_rate = 0;

  // Network + energy.
  std::uint64_t gossip_messages = 0;
  std::uint64_t gossip_bytes = 0;
  double energy_total_j = 0;
  double energy_per_committed_tx_j = 0;
};

/// Run one configured simulation to completion and report.
ChainSimReport run_chain_sim(const ChainSimConfig& config);

}  // namespace mc::chain
