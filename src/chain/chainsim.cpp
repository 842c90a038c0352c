#include "chain/chainsim.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "chain/block_validator.hpp"
#include "chain/conflict.hpp"
#include "chain/execution/executor.hpp"
#include "chain/pow.hpp"
#include "common/thread_pool.hpp"

namespace mc::chain {
namespace {

/// Mutable simulation world shared by the event handlers.
struct SimWorld {
  explicit SimWorld(const ChainSimConfig& config)
      : cfg(config), rng(config.seed), meter(config.energy) {}

  const ChainSimConfig& cfg;
  Rng rng;
  sim::EnergyMeter meter;
  sim::EventQueue queue;
  // One worker pool shared by every simulated node: block validation fans
  // per-tx signature checks across it. Real deployments give each node
  // its own cores; sharing one pool here keeps the sim single-process.
  ThreadPool pool;
  BlockValidator validator{&pool, 8, cfg.batch_verify,
                           /*batch_salt=*/cfg.seed};
  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<GossipNet> gossip;
  StakeRegistry stakes;

  std::vector<crypto::PrivateKey> clients;
  std::vector<std::uint64_t> client_nonces;
  std::size_t txs_submitted = 0;

  struct TxTrack {
    sim::SimTime submitted_at = 0;
    std::set<sim::NodeId> voters;  ///< nodes seen with it on their best chain
  };
  std::unordered_map<TxId, TxTrack> tracked;
  std::vector<TxId> pending;  ///< tracked, not yet recorded; submit order
  std::vector<double> latencies;
  sim::SimTime last_commit_at = 0;

  std::uint64_t blocks_produced = 0;
  sim::SimTime last_block_at = 0;
};

void on_gossip(SimWorld& world, sim::NodeId node, GossipKind kind,
               const Hash256& /*id*/, const Bytes& payload, sim::SimTime at) {
  Node& n = *world.nodes[node];
  if (kind == GossipKind::Transaction) {
    n.submit(Transaction::decode(BytesView(payload)));
    return;
  }
  const Block block = Block::decode(BytesView(payload));
  const BlockVerdict verdict = n.receive(block);
  if (verdict != BlockVerdict::Accepted) return;
  // A receive can connect more than `block` (a side branch that becomes
  // best through this child), so every pending tx this node now has on
  // its best chain gets the node's vote, once per node however often a
  // reorg moves it out and back in.
  for (auto it = world.pending.begin(); it != world.pending.end();) {
    SimWorld::TxTrack& track = world.tracked.at(*it);
    if (!n.tx_committed(*it) || !track.voters.insert(node).second ||
        track.voters.size() < world.nodes.size() / 2 + 1) {
      ++it;
      continue;
    }
    world.latencies.push_back(at - track.submitted_at);
    world.last_commit_at = std::max(world.last_commit_at, at);
    it = world.pending.erase(it);
  }
}

void submit_next_tx(SimWorld& world) {
  if (world.txs_submitted >= world.cfg.tx_count) return;
  ++world.txs_submitted;

  const std::size_t from_idx = world.rng.uniform(world.clients.size());
  std::size_t to_idx = world.rng.uniform(world.clients.size());
  if (to_idx == from_idx) to_idx = (to_idx + 1) % world.clients.size();

  Transaction tx = make_transfer(
      world.clients[from_idx],
      crypto::address_of(world.clients[to_idx].pub),
      /*amount=*/1 + world.rng.uniform(100),
      world.client_nonces[from_idx]++,
      /*gas_price=*/1 + world.rng.uniform(4));

  world.tracked[tx.id()] = SimWorld::TxTrack{world.queue.now(), {}};
  world.pending.push_back(tx.id());
  const sim::NodeId origin =
      static_cast<sim::NodeId>(world.rng.uniform(world.nodes.size()));
  world.gossip->publish(origin, GossipKind::Transaction, tx.id(), tx.encode());

  const double gap = world.rng.exponential(1.0 / world.cfg.tx_rate_per_s);
  world.queue.schedule_in(gap, [&world] { submit_next_tx(world); });
}

void produce_and_publish(SimWorld& world, sim::NodeId proposer,
                         std::uint64_t attempts_network_wide) {
  Node& n = *world.nodes[proposer];
  ++world.blocks_produced;

  // Charge the modeled mining work: every node ground nonces for the
  // whole inter-block interval (the duplicated race).
  if (world.cfg.params.consensus == ConsensusKind::ProofOfWork) {
    const std::uint64_t per_node =
        attempts_network_wide / world.nodes.size();
    for (std::size_t i = 0; i < world.nodes.size(); ++i)
      world.meter.charge_hashes(i, per_node);
  }

  Block block =
      n.propose(static_cast<std::uint64_t>(world.queue.now() * 1000.0));
  // PoW target ~0ULL passes structurally; discovery time was modeled.
  world.gossip->publish(proposer, GossipKind::Block, block.id(),
                        block.encode());
}

void schedule_pow_round(SimWorld& world) {
  const double network_hash_rate =
      world.cfg.hashes_per_s_per_node *
      static_cast<double>(world.nodes.size());
  // Exponential block race at the configured mean interval.
  const double mean_interval = world.cfg.params.block_interval_s;
  const double gap = world.rng.exponential(mean_interval);
  world.queue.schedule_in(gap, [&world, gap, network_hash_rate] {
    const auto attempts =
        static_cast<std::uint64_t>(gap * network_hash_rate);
    const auto winner =
        static_cast<sim::NodeId>(world.rng.uniform(world.nodes.size()));
    produce_and_publish(world, winner, attempts);
    if (world.latencies.size() < world.cfg.tx_count &&
        world.queue.now() < world.cfg.sim_limit_s)
      schedule_pow_round(world);
  });
}

void schedule_pos_round(SimWorld& world) {
  world.queue.schedule_in(world.cfg.params.block_interval_s, [&world] {
    // Deterministic stake-weighted proposer, seeded by node 0's tip.
    const Hash256 seed = world.nodes[0]->tip();
    const Address winner_addr =
        world.stakes.select_proposer(seed, world.nodes[0]->height() + 1);
    sim::NodeId winner = 0;
    for (sim::NodeId i = 0; i < world.nodes.size(); ++i) {
      if (world.nodes[i]->address() == winner_addr) {
        winner = i;
        break;
      }
    }
    produce_and_publish(world, winner, 0);
    if (world.latencies.size() < world.cfg.tx_count &&
        world.queue.now() < world.cfg.sim_limit_s)
      schedule_pos_round(world);
  });
}

}  // namespace

ChainSimReport run_chain_sim(const ChainSimConfig& config) {
  if (config.params.consensus == ConsensusKind::Pbft)
    throw std::invalid_argument(
        "run_chain_sim handles PoW/PoS; use PbftCluster for consortium runs");

  SimWorld world(config);

  // Clients funded in the premine.
  ChainParams params = config.params;
  params.pow_target = ~0ULL;  // discovery is modeled in sim time
  for (std::size_t i = 0; i < config.client_count; ++i) {
    auto key = crypto::key_from_seed("client-" + std::to_string(i) + "-" +
                                     std::to_string(config.seed));
    params.premine.emplace_back(crypto::address_of(key.pub),
                                Amount{100'000'000});
    world.clients.push_back(key);
    world.client_nonces.push_back(0);
  }

  const Block genesis = make_genesis("medchain-sim", params.pow_target);
  for (std::size_t i = 0; i < config.node_count; ++i) {
    auto key = crypto::key_from_seed("node-" + std::to_string(i) + "-" +
                                     std::to_string(config.seed));
    world.nodes.push_back(std::make_unique<Node>(key, params, genesis));
    world.nodes.back()->set_validator(&world.validator);
    world.stakes.bond(crypto::address_of(key.pub), 100);
  }

  sim::Network network =
      sim::Network::uniform(config.node_count, config.regions, config.net);
  world.gossip = std::make_unique<GossipNet>(
      std::move(network), world.queue,
      [&world](sim::NodeId node, GossipKind kind, const Hash256& id,
               const Bytes& payload, sim::SimTime at) {
        on_gossip(world, node, kind, id, payload, at);
      },
      config.seed ^ 0x6055, config.gossip_drop_rate);

  submit_next_tx(world);
  if (config.params.consensus == ConsensusKind::ProofOfWork)
    schedule_pow_round(world);
  else
    schedule_pos_round(world);

  world.queue.run(config.sim_limit_s);

  // Aggregate the report.
  ChainSimReport report;
  report.nodes = config.node_count;
  report.submitted_txs = world.txs_submitted;
  report.committed_txs = world.latencies.size();
  report.duration_s = world.last_commit_at;
  report.throughput_tps =
      report.duration_s > 0
          ? static_cast<double>(report.committed_txs) / report.duration_s
          : 0;
  double total_latency = 0;
  for (double l : world.latencies) {
    total_latency += l;
    report.max_commit_latency_s = std::max(report.max_commit_latency_s, l);
  }
  report.avg_commit_latency_s =
      world.latencies.empty() ? 0 : total_latency / world.latencies.size();
  report.blocks_produced = world.blocks_produced;
  report.blocks_on_best_chain = world.nodes[0]->height();
  for (const auto& entry : world.tracked)
    if (std::all_of(world.nodes.begin(), world.nodes.end(),
                    [&](const auto& n) { return n->tx_committed(entry.first); }))
      ++report.txs_on_every_best_chain;

  for (std::size_t i = 0; i < world.nodes.size(); ++i) {
    const NodeCounters& c = world.nodes[i]->counters();
    report.total_sig_verifications += c.sig_verifications;
    report.total_txs_executed += c.txs_executed;
    world.meter.charge_vm(i, c.gas_executed);
    // Idle is charged for the span the simulation was actually live, not
    // the full sim_limit_s horizon run() fast-forwards the clock to.
    world.meter.charge_idle(i, world.queue.last_event_at());
  }
  // Hash energy was charged during mining events; recover attempt count.
  report.total_hash_attempts = static_cast<std::uint64_t>(
      world.meter.total_hash() / config.energy.joules_per_hash);
  report.execution_duplication =
      report.committed_txs > 0
          ? static_cast<double>(report.total_txs_executed) /
                static_cast<double>(report.committed_txs)
          : 0;

  // Conflict analysis over the committed chain: how much of the block
  // workload could have run in parallel (node 0's view; all honest nodes
  // converge to the same best chain). Routed through the execution
  // layer's scheduling footprint — the same static-exact / concretized-
  // symbolic ladder the wave scheduler uses — so the reported
  // conflict_rate is what the scheduler would actually see.
  {
    BlockConflictReport chain_conflicts;
    const Node& n0 = *world.nodes[0];
    const vm::ContractStore* store = n0.executor().footprints().store();
    for (const BlockId& id : n0.best_chain()) {
      const Block* block = n0.block(id);
      if (block != nullptr)
        chain_conflicts.merge(analyze_block_conflicts(
            *block, [&](const Transaction& tx) {
              return exec::scheduling_footprint(tx, store,
                                                block->header.height);
            }));
    }
    report.conflict_pairs = chain_conflicts.pairs;
    report.conflict_conflicting_pairs = chain_conflicts.conflicting_pairs;
    report.conflict_unbounded_txs = chain_conflicts.unbounded_txs;
    report.conflict_rate = chain_conflicts.conflict_rate();
  }

  report.gossip_messages = world.gossip->stats().messages;
  report.gossip_bytes = world.gossip->stats().bytes;
  // Network energy charged in aggregate to the senders' side.
  world.meter.charge_network(0, report.gossip_bytes);
  report.energy_total_j = world.meter.total();
  report.energy_per_committed_tx_j =
      report.committed_txs > 0
          ? report.energy_total_j / static_cast<double>(report.committed_txs)
          : 0;
  return report;
}

}  // namespace mc::chain
