// End-to-end chain simulation tests (PoW and PoS gossip networks).
#include <gtest/gtest.h>

#include "chain/chainsim.hpp"

namespace mc::chain {
namespace {

ChainSimConfig small_config(ConsensusKind consensus) {
  ChainSimConfig config;
  config.node_count = 5;
  config.regions = 2;
  config.client_count = 6;
  config.tx_count = 60;
  config.tx_rate_per_s = 100.0;
  config.params.consensus = consensus;
  config.params.block_interval_s = 0.5;
  config.sim_limit_s = 600.0;
  config.seed = 1234;
  return config;
}

TEST(ChainSim, PowRunCommitsTransactions) {
  const ChainSimReport report = run_chain_sim(small_config(ConsensusKind::ProofOfWork));
  EXPECT_EQ(report.submitted_txs, 60u);
  EXPECT_GE(report.committed_txs, 55u);  // a straggler tail may remain
  EXPECT_GT(report.throughput_tps, 0.0);
  EXPECT_GT(report.avg_commit_latency_s, 0.0);
  EXPECT_GT(report.total_hash_attempts, 0u);  // PoW burned hashes
  EXPECT_GT(report.blocks_on_best_chain, 0u);
}

TEST(ChainSim, ForkedPowCountsEveryTxOnAllBestChains) {
  // 0.1 s blocks fork the chain: some txs land in side blocks that
  // become best only through a later child. A tx counts once a majority
  // of nodes have it on their best chain, however it got there, so
  // every tx on all nodes' best chains at the end is counted.
  ChainSimConfig config = small_config(ConsensusKind::ProofOfWork);
  config.tx_count = 100;
  config.params.block_interval_s = 0.1;
  const ChainSimReport report = run_chain_sim(config);
  EXPECT_LT(report.blocks_on_best_chain, report.blocks_produced)
      << "the run must fork to exercise side-branch commits";
  EXPECT_EQ(report.txs_on_every_best_chain, report.submitted_txs);
  EXPECT_EQ(report.committed_txs, report.txs_on_every_best_chain);
}

TEST(ChainSim, PosRunBurnsNoHashes) {
  const ChainSimReport report = run_chain_sim(small_config(ConsensusKind::ProofOfStake));
  EXPECT_GE(report.committed_txs, 55u);
  EXPECT_EQ(report.total_hash_attempts, 0u);  // virtual mining
  EXPECT_GT(report.energy_total_j, 0.0);      // but idle/VM/network remain
}

TEST(ChainSim, ExecutionDuplicationScalesWithNodes) {
  // The §I duplicated-computing claim: per-committed-tx execution count
  // grows ~linearly in the number of nodes.
  auto dup_of = [](std::size_t nodes) {
    ChainSimConfig config = small_config(ConsensusKind::ProofOfStake);
    config.node_count = nodes;
    return run_chain_sim(config).execution_duplication;
  };
  const double dup4 = dup_of(4);
  const double dup8 = dup_of(8);
  EXPECT_GE(dup4, 3.0);  // ~4 minus reorg noise
  EXPECT_GT(dup8, dup4 * 1.5);
}

TEST(ChainSim, GossipTrafficGrowsWithNodes) {
  ChainSimConfig small = small_config(ConsensusKind::ProofOfStake);
  ChainSimConfig large = small;
  large.node_count = 10;
  const auto report_small = run_chain_sim(small);
  const auto report_large = run_chain_sim(large);
  EXPECT_GT(report_large.gossip_messages, report_small.gossip_messages);
  EXPECT_GT(report_large.energy_total_j, report_small.energy_total_j);
}

TEST(ChainSim, DeterministicForSeed) {
  const auto a = run_chain_sim(small_config(ConsensusKind::ProofOfStake));
  const auto b = run_chain_sim(small_config(ConsensusKind::ProofOfStake));
  EXPECT_EQ(a.committed_txs, b.committed_txs);
  EXPECT_DOUBLE_EQ(a.avg_commit_latency_s, b.avg_commit_latency_s);
  EXPECT_EQ(a.gossip_messages, b.gossip_messages);
}

TEST(ChainSim, PbftKindRejected) {
  ChainSimConfig config = small_config(ConsensusKind::Pbft);
  EXPECT_THROW(run_chain_sim(config), std::invalid_argument);
}

}  // namespace
}  // namespace mc::chain
