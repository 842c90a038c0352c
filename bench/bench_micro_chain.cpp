// Micro-benchmarks: ledger state commitment, reorgs and the execution
// DAG (google-benchmark).
//
// BM_WorldStateCommit/<accounts> is the per-block commit cost of a node
// (DESIGN.md §16): open the block's undo record, apply a 256-transfer
// dirty set (sender debit + nonce, recipient credit, proposer fee), take
// the incremental digest() and seal the record (dropping the oldest one
// past the window). With an O(block) commitment the time per iteration
// stays nearly flat as the premined state grows 100×.
//
// BM_NodeReorg/<k> is a depth-k reorg at height 40 (DESIGN.md §16): a
// node holding a 40-block chain (transfers and contract calls) receives
// the last block of a (k + 1)-block fork from height 40 - k. Within the
// undo window (k <= kUndoDepth) it rewinds k blocks and connects k + 1;
// past it (k = 20) it replays the winning chain from genesis. Each
// iteration builds its node untimed; only the reorging receive is timed.
//
// BM_BuildTxDag/<txs> is the dependency-DAG build of one block (DESIGN.md
// §13) from the per-cell index, over seeded footprints shaped like a
// contract-heavy block. Its cost grows with the block's cells, where the
// pairwise builder it replaced compared every pair of txs.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "chain/execution/dag.hpp"
#include "chain/node.hpp"
#include "chain/state.hpp"
#include "chain/vm_hook.hpp"
#include "chain/wallet.hpp"
#include "common/rng.hpp"
#include "vm/assembler.hpp"

namespace {

using namespace mc;
using namespace mc::chain;

Address random_address(Rng& rng) {
  Address a;
  for (auto& byte : a.data) byte = static_cast<std::uint8_t>(rng.next());
  return a;
}

void BM_WorldStateCommit(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTransfers = 256;
  Rng rng(0xc0ffee);
  std::vector<Address> pool;
  pool.reserve(accounts);
  WorldState ledger;
  for (std::size_t i = 0; i < accounts; ++i) {
    pool.push_back(random_address(rng));
    ledger.credit(pool.back(), 1'000'000'000);
  }
  const Address proposer = random_address(rng);
  (void)ledger.digest();  // the one full build, outside the timed loop

  Height height = 0;
  for (auto _ : state) {
    ledger.open_block();
    for (std::size_t t = 0; t < kTransfers; ++t) {
      const Address& from = pool[rng.uniform(accounts)];
      const Address& to = pool[rng.uniform(accounts)];
      Account sender = ledger.account(from);
      sender.balance -= 21'001;
      sender.nonce += 1;
      ledger.set_account(from, sender);
      ledger.credit(to, 1);
      ledger.credit(proposer, 21'000);
    }
    benchmark::DoNotOptimize(ledger.digest());
    ledger.seal_block(++height);
  }
  state.counters["accounts"] = static_cast<double>(ledger.account_count());
  state.counters["transfers_per_block"] = static_cast<double>(kTransfers);
}
BENCHMARK(BM_WorldStateCommit)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMicrosecond);

/// A node over its own contract store.
struct ChainNode {
  vm::ContractStore store;
  VmExecutionHook hook{store};
  Node node;
  ChainNode(const char* who, const ChainParams& params, const Block& genesis)
      : node(crypto::key_from_seed(who), params, genesis, &hook) {}
};

/// The main chain (heights 1..40) and a k + 1-block fork from 40 - k.
struct ReorgChains {
  ChainParams params;
  Block genesis = make_genesis("bench-reorg", ~0ULL);
  std::vector<Block> main;
  std::vector<Block> fork;
};

/// Grow `producer` by `n` blocks: three transfers to fresh accounts and
/// one counter call each (the first block deploys the counter instead).
void grow(ChainNode& producer, std::vector<Wallet>& users, Rng& rng,
          vm::Word& counter, std::size_t n, std::vector<Block>& out) {
  for (std::size_t b = 0; b < n; ++b) {
    std::optional<Transaction> deploy;
    if (counter == 0) {
      deploy = users[0].deploy(vm::assemble(
          "PUSH 1\nSLOAD\nPUSH 1\nADD\nPUSH 1\nSSTORE\nSTOP"));
      producer.node.submit(*deploy);
    } else {
      producer.node.submit(users[0].call(counter, {}));
    }
    for (std::size_t t = 1; t <= 3; ++t)
      producer.node.submit(
          users[t].transfer(random_address(rng), 1 + rng.uniform(1'000)));
    out.push_back(producer.node.propose(1'000 * (out.size() + 1)));
    producer.node.receive(out.back());
    if (deploy.has_value())
      counter = *producer.hook.contract_id_of(deploy->id());
  }
}

const ReorgChains& reorg_chains(std::size_t k) {
  static std::map<std::size_t, ReorgChains> built;
  auto [it, fresh] = built.try_emplace(k);
  ReorgChains& c = it->second;
  if (!fresh) return c;
  constexpr std::size_t kHeight = 40;
  std::vector<Wallet> users;
  for (const char* who : {"u0", "u1", "u2", "u3"}) {
    users.push_back(Wallet::from_seed(who));
    c.params.premine.emplace_back(users.back().address(), 1'000'000'000'000);
  }
  c.params.consensus = ConsensusKind::Pbft;
  ChainNode main_producer("main", c.params, c.genesis);
  ChainNode fork_producer("fork", c.params, c.genesis);
  Rng rng(0x4e06 + k);
  vm::Word counter = 0;
  grow(main_producer, users, rng, counter, kHeight - k, c.main);
  for (const Block& b : c.main) fork_producer.node.receive(b);
  std::vector<Wallet> fork_users = users;
  vm::Word fork_counter = counter;
  grow(main_producer, users, rng, counter, k, c.main);
  grow(fork_producer, fork_users, rng, fork_counter, k + 1, c.fork);
  return c;
}

void BM_NodeReorg(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const ReorgChains& c = reorg_chains(k);
  std::uint64_t executed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto member = std::make_unique<ChainNode>("reorged", c.params, c.genesis);
    for (const Block& b : c.main) member->node.receive(b);
    for (std::size_t i = 0; i < k; ++i) member->node.receive(c.fork[i]);
    const std::uint64_t before = member->node.counters().txs_executed;
    state.ResumeTiming();
    const BlockVerdict verdict = member->node.receive(c.fork[k]);
    state.PauseTiming();
    if (verdict != BlockVerdict::Accepted) state.SkipWithError("reorg failed");
    executed = member->node.counters().txs_executed - before;
    member.reset();
    state.ResumeTiming();
  }
  state.counters["txs_executed"] = static_cast<double>(executed);
}
BENCHMARK(BM_NodeReorg)
    ->Arg(1)
    ->Arg(8)
    ->Arg(20)
    ->Iterations(100)
    ->Unit(benchmark::kMicrosecond);

/// Footprints of a contract-heavy block: each tx writes one or two
/// storage cells (a third of them only reads instead) among 64
/// contracts × 16 keys, and one tx in 64 is ⊤.
std::vector<TxFootprint> dag_footprints(std::size_t txs) {
  Rng rng(0xda6);
  std::vector<TxFootprint> fps(txs);
  for (TxFootprint& fp : fps) {
    const std::size_t cells = 1 + rng.uniform(2);
    for (std::size_t c = 0; c < cells; ++c) {
      const FootprintCell cell = {fp_domain::kContract, rng.uniform(64),
                                  rng.uniform(16)};
      if (rng.uniform(3) == 0) {
        fp.reads.push_back(cell);
      } else {
        fp.reads.push_back(cell);
        fp.writes.push_back(cell);
      }
    }
    fp.normalize();
    fp.unbounded = rng.uniform(64) == 0;
  }
  return fps;
}

void BM_BuildTxDag(benchmark::State& state) {
  const std::vector<TxFootprint> fps =
      dag_footprints(static_cast<std::size_t>(state.range(0)));
  std::size_t edges = 0;
  for (auto _ : state) {
    const exec::TxDag dag = exec::build_tx_dag(fps);
    edges = dag.edges;
    benchmark::DoNotOptimize(dag.critical_path);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fps.size()));
}
BENCHMARK(BM_BuildTxDag)
    ->Arg(96)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
