// Experiment C1 (paper §I claim): blockchain throughput/latency does not
// scale with node count — "the performance of a single node is better
// than multiple nodes due to the faster consensus".
//
// Three consensus substrates, one sweep each: PoW public chain and PoS
// public chain over the gossip fabric (full simulation), and the PBFT
// consortium (message-driven state machine).
#include <cstdio>
#include <cstring>

#include "chain/chainsim.hpp"
#include "chain/pbft.hpp"
#include "common/table.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace mc;
using namespace mc::chain;

/// --no-batch switches BlockValidator to per-tx signature verification
/// (A/B wall-clock comparison; the simulated chain metrics are identical).
bool g_batch_verify = true;

ChainSimConfig base_config(ConsensusKind consensus, std::size_t nodes) {
  ChainSimConfig config;
  config.batch_verify = g_batch_verify;
  config.node_count = nodes;
  config.regions = 4;
  config.client_count = 8;
  config.tx_count = 150;
  config.tx_rate_per_s = 150.0;
  config.params.consensus = consensus;
  config.params.block_interval_s = 0.5;
  config.sim_limit_s = 600.0;
  config.seed = 2024;
  return config;
}

void public_chain_sweep(ConsensusKind consensus, const char* name) {
  banner(std::string("C1: ") + name + " gossip network vs node count");
  Table table({"nodes", "committed", "tps", "avg_latency_s", "max_latency_s",
               "gossip_msgs", "exec_duplication", "conflict_rate",
               "energy/tx"});
  for (const std::size_t nodes : {2u, 4u, 8u, 16u, 32u}) {
    const ChainSimReport report = run_chain_sim(base_config(consensus, nodes));
    table.row()
        .cell(nodes)
        .cell(report.committed_txs)
        .cell(report.throughput_tps, 1)
        .cell(report.avg_commit_latency_s, 3)
        .cell(report.max_commit_latency_s, 3)
        .cell(report.gossip_messages)
        .cell(report.execution_duplication, 2)
        .cell(report.conflict_rate, 3)
        .cell(sim::format_joules(report.energy_per_committed_tx_j));
  }
  table.print();
}

/// Short block intervals fork the public chains (8 nodes, 30 s of
/// simulated time). Each reorg re-executes the blocks it connects, so
/// forks show up as exec_duplication above the node count.
void fork_sweep() {
  banner("C1: forks vs block interval (8-node gossip network)");
  Table table({"consensus", "interval_s", "produced", "best_chain",
               "committed", "txs_executed", "exec_duplication"});
  for (const ConsensusKind consensus :
       {ConsensusKind::ProofOfWork, ConsensusKind::ProofOfStake}) {
    for (const double interval : {0.5, 0.2, 0.1}) {
      ChainSimConfig config = base_config(consensus, 8);
      config.params.block_interval_s = interval;
      config.sim_limit_s = 30.0;
      const ChainSimReport report = run_chain_sim(config);
      table.row()
          .cell(consensus == ConsensusKind::ProofOfWork ? "PoW" : "PoS")
          .cell(interval, 2)
          .cell(report.blocks_produced)
          .cell(report.blocks_on_best_chain)
          .cell(report.committed_txs)
          .cell(report.total_txs_executed)
          .cell(report.execution_duplication, 2);
    }
  }
  table.print();
}

void pbft_sweep() {
  banner("C1: PBFT consortium vs cluster size (50 requests)");
  Table table({"replicas", "quorum", "committed", "avg_latency_s",
               "messages", "bytes", "msgs_per_commit"});
  for (const std::size_t n : {4u, 7u, 10u, 16u, 22u, 31u}) {
    PbftCluster cluster(sim::Network::uniform(n, 4));
    constexpr int kRequests = 50;
    for (int i = 0; i < kRequests; ++i)
      cluster.submit(crypto::sha256("block-" + std::to_string(i)));
    cluster.run();
    double total_latency = 0;
    for (const auto& commit : cluster.commits())
      total_latency += commit.latency();
    table.row()
        .cell(n)
        .cell(cluster.quorum())
        .cell(cluster.commits().size())
        .cell(total_latency / static_cast<double>(cluster.commits().size()),
              4)
        .cell(cluster.messages_sent())
        .cell(cluster.bytes_sent())
        .cell(static_cast<double>(cluster.messages_sent()) /
                  static_cast<double>(cluster.commits().size()),
              0);
  }
  table.print();
}

void gossip_loss_sweep() {
  banner("C1: commit rate under gossip message loss (8-node PoS)");
  Table table({"drop_rate", "submitted", "committed", "commit_frac",
               "avg_latency_s"});
  for (const double drop : {0.0, 0.05, 0.15, 0.30, 0.50}) {
    ChainSimConfig config = base_config(ConsensusKind::ProofOfStake, 8);
    config.gossip_drop_rate = drop;
    const ChainSimReport report = run_chain_sim(config);
    table.row()
        .cell(drop, 2)
        .cell(report.submitted_txs)
        .cell(report.committed_txs)
        .cell(static_cast<double>(report.committed_txs) /
                  static_cast<double>(report.submitted_txs),
              2)
        .cell(report.avg_commit_latency_s, 3);
  }
  table.print();
}

void pbft_fault_latency() {
  banner("C1: PBFT latency under a crashed primary (view change)");
  Table table({"scenario", "commit_latency_s", "final_view"});
  {
    PbftCluster healthy(sim::Network::uniform(7, 2));
    healthy.submit(crypto::sha256("b"));
    healthy.run();
    table.row()
        .cell("healthy primary")
        .cell(healthy.commits().at(0).latency(), 4)
        .cell(healthy.view());
  }
  {
    PbftCluster crashed(sim::Network::uniform(7, 2), {}, {0});
    crashed.submit(crypto::sha256("b"));
    crashed.run();
    table.row()
        .cell("primary crashed")
        .cell(crashed.commits().at(0).latency(), 4)
        .cell(crashed.view());
  }
  table.print();
  std::puts(
      "\nShape check (paper): throughput is flat-to-falling and latency,\n"
      "gossip traffic, duplication and energy-per-tx all rise with node\n"
      "count — on every consensus flavour. PBFT message cost is 2n(n-1)\n"
      "per request (quadratic broadcast).");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-batch") == 0) {
      g_batch_verify = false;
    } else {
      std::fprintf(stderr, "usage: %s [--no-batch]\n", argv[0]);
      return 2;
    }
  }
  std::puts("== bench_c1_scalability: paper §I scalability claim ==");
  if (!g_batch_verify) std::puts("(batch signature verification OFF)");
  public_chain_sweep(ConsensusKind::ProofOfWork, "proof-of-work");
  public_chain_sweep(ConsensusKind::ProofOfStake, "proof-of-stake");
  fork_sweep();
  pbft_sweep();
  gossip_loss_sweep();
  pbft_fault_latency();
  return 0;
}
