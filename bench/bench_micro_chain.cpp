// Micro-benchmarks: ledger state commitment and the execution DAG
// (google-benchmark).
//
// BM_WorldStateCommit/<accounts> is the per-block commit cost of a node
// (DESIGN.md §16): open the undo journal, apply a 256-transfer dirty set
// (sender debit + nonce, recipient credit, proposer fee), then take the
// incremental digest(). With an O(block) commitment the time per
// iteration stays nearly flat as the premined state grows 100×.
//
// BM_BuildTxDag/<txs> is the dependency-DAG build of one block (DESIGN.md
// §13) from the per-cell index, over seeded footprints shaped like a
// contract-heavy block. Its cost grows with the block's cells, where the
// pairwise builder it replaced compared every pair of txs.
#include <benchmark/benchmark.h>

#include <vector>

#include "chain/execution/dag.hpp"
#include "chain/state.hpp"
#include "common/rng.hpp"

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

  for (auto _ : state) {
    ledger.checkpoint();
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
    ledger.release_checkpoint();
  }
  state.counters["accounts"] = static_cast<double>(ledger.account_count());
  state.counters["transfers_per_block"] = static_cast<double>(kTransfers);
}
BENCHMARK(BM_WorldStateCommit)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
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
