// Micro-benchmarks: ledger state commitment (google-benchmark).
//
// BM_WorldStateCommit/<accounts> is the per-block commit cost of a node
// (DESIGN.md §16): open the undo journal, apply a 256-transfer dirty set
// (sender debit + nonce, recipient credit, proposer fee), then take the
// incremental digest(). With an O(block) commitment the time per
// iteration stays nearly flat as the premined state grows 100×.
#include <benchmark/benchmark.h>

#include <vector>

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

}  // namespace

BENCHMARK_MAIN();
