// Experiment C8: conflict-DAG parallel block execution.
//
// The paper's transform turns duplicated block execution into the
// consortium's unit of useful work; the wave scheduler (DESIGN.md §13)
// decides how much of that work each validator can spread across cores.
// C8 measures (a) replay speedup over the sequential executor as the
// worker count grows on a contract-heavy, low-conflict workload,
// (b) how the realized parallelism degrades as a rising fraction of
// calls targets one hot contract (conflict rate → serialization), and
// (c) the schedule the symbolic per-selector footprint summaries admit
// on a param-keyed per-patient workload.
//
// Pass --quick for the CI smoke variant (smaller chain, fewer sweep
// points) and --sequential to run only the sequential baseline (the A/B
// control: identical workload, workers = 1).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chain/execution/executor.hpp"
#include "chain/node.hpp"
#include "chain/vm_hook.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "vm/assembler.hpp"

namespace {

using namespace mc;

bool g_quick = false;
bool g_sequential_only = false;

// Mixer contract: selector 1 runs calldata[1] rounds of an LCG/xorshift
// mix over calldata[2] and folds the result into storage[1]. The loop
// makes each call genuinely compute-bound (~58 gas/round) while the
// storage footprint stays a single constant key, so calls to distinct
// deployments commute and the DAG stays wide.
const char* kMixerSource = R"(
PUSH 0
CALLDATALOAD
PUSH 1
EQ
JUMPI @work
PUSH 1
SLOAD
RETURN 1
work:
PUSH 2
CALLDATALOAD
PUSH 1
CALLDATALOAD
loop:
DUP 1
ISZERO
JUMPI @done
PUSH 1
SUB
SWAP 1
PUSH 48271
MUL
PUSH 11
ADD
DUP 1
PUSH 7
SHR
XOR
SWAP 1
JUMP @loop
done:
POP
PUSH 1
SLOAD
ADD
PUSH 1
SSTORE
STOP
)";

// Rounds of mixing per call: sized so a call costs ~120k gas (limit is
// 500k) and the interpreter work dwarfs per-tx scheduling overhead.
constexpr vm::Word kMixRounds = 2'000;

// Per-patient record contract (C8c): same compute-bound mixer loop, but
// the result folds into storage[H(7, calldata[3])] — one cell per
// patient id, on ONE shared contract. The key is Param-classed, so the
// pre-symbolic analyzer saw an unbounded footprint and serialized every
// pair of calls; the symbolic summary pins it to H(7, calldata[3]) and
// the concretizer evaluates it per tx to a distinct exact cell.
const char* kPatientRecordSource = R"(
PUSH 0
CALLDATALOAD
PUSH 1
EQ
JUMPI @work
REVERT
work:
PUSH 2
CALLDATALOAD        ; [seed]
PUSH 1
CALLDATALOAD        ; [seed, rounds]
loop:
DUP 1
ISZERO
JUMPI @done
PUSH 1
SUB
SWAP 1
PUSH 48271
MUL
PUSH 11
ADD
DUP 1
PUSH 7
SHR
XOR
SWAP 1
JUMP @loop
done:
POP                 ; [mixed]
PUSH 7
PUSH 3
CALLDATALOAD        ; [mixed, 7, patient]
HASHN 2             ; [mixed, rkey]
DUP 1               ; [mixed, rkey, rkey]
SLOAD               ; [mixed, rkey, old]
DUP 3               ; [mixed, rkey, old, mixed]
ADD                 ; [mixed, rkey, old+mixed]
SWAP 1              ; [mixed, old+mixed, rkey]
SSTORE              ; [mixed]
POP
STOP
)";

struct Workload {
  chain::ChainParams params;
  std::vector<chain::Block> blocks;  ///< deploy block first
};

/// Contract-heavy chain: `users.size()` senders round-robin over
/// `contract_count` counters, except a `hot_fraction` of calls that all
/// hit contract 0 (the conflict dial). A sprinkle of transfers keeps the
/// ledger path in the mix.
Workload build_workload(std::size_t user_count, std::size_t contract_count,
                        std::size_t block_count, std::size_t txs_per_block,
                        double hot_fraction) {
  Workload w;
  w.params.consensus = chain::ConsensusKind::Pbft;

  std::vector<crypto::PrivateKey> users;
  for (std::size_t i = 0; i < user_count; ++i) {
    users.push_back(crypto::key_from_seed("c8-user-" + std::to_string(i)));
    w.params.premine.push_back(
        {crypto::address_of(users.back().pub), 1'000'000'000});
  }
  std::vector<std::uint64_t> nonces(user_count, 0);

  chain::Block deploy_block;
  deploy_block.header.height = 1;
  std::vector<chain::Transaction> deploys;
  for (std::size_t c = 0; c < contract_count; ++c) {
    deploys.push_back(chain::make_deploy(users[c % user_count],
                                         vm::assemble(kMixerSource),
                                         nonces[c % user_count]++));
    deploy_block.txs.push_back(deploys.back());
  }
  w.blocks.push_back(deploy_block);

  // Discover the assigned contract ids on a scratch stack.
  std::vector<vm::Word> ids;
  {
    vm::ContractStore store;
    chain::VmExecutionHook hook(store);
    chain::exec::BlockExecutor executor(w.params, &hook);
    chain::WorldState state;
    for (const auto& [addr, amount] : w.params.premine)
      state.credit(addr, amount);
    const auto res = executor.execute_block(state, deploy_block);
    if (!res.ok) {
      std::fprintf(stderr, "deploy block failed: %s\n", res.error.c_str());
      std::exit(1);
    }
    for (const auto& d : deploys) ids.push_back(*hook.contract_id_of(d.id()));
  }

  Rng rng(0xc8 + static_cast<std::uint64_t>(hot_fraction * 1000));
  for (std::size_t b = 0; b < block_count; ++b) {
    chain::Block block;
    block.header.height = static_cast<chain::Height>(b + 2);
    for (std::size_t t = 0; t < txs_per_block; ++t) {
      const std::size_t u = (b * txs_per_block + t) % user_count;
      if (rng.bernoulli(0.15)) {
        block.txs.push_back(chain::make_transfer(
            users[u], crypto::address_of(users[(u + 1) % user_count].pub), 1,
            nonces[u]++));
        continue;
      }
      const vm::Word target = rng.bernoulli(hot_fraction)
                                  ? ids[0]
                                  : ids[u % contract_count];
      block.txs.push_back(chain::make_call(
          users[u], target, {1, kMixRounds, b * txs_per_block + t},
          nonces[u]++));
    }
    w.blocks.push_back(block);
  }
  return w;
}

struct RunResult {
  double millis = 0;
  chain::exec::BlockExecMetrics metrics;
  /// Conflicting tx pairs over all in-block pairs of the non-deploy
  /// blocks, under the footprints the scheduler uses.
  double conflict_rate = 0;
};

RunResult replay(const Workload& w, std::size_t workers, ThreadPool* pool) {
  vm::ContractStore store;
  chain::VmExecutionHook hook(store);
  chain::exec::BlockExecutor executor(w.params, &hook);
  if (workers > 1) {
    chain::exec::ExecutionConfig cfg;
    cfg.workers = workers;
    cfg.pool = pool;
    executor.set_config(cfg);
  }
  chain::WorldState state;
  for (const auto& [addr, amount] : w.params.premine)
    state.credit(addr, amount);

  const auto start = std::chrono::steady_clock::now();
  for (const chain::Block& block : w.blocks) {
    const auto res = executor.execute_block(state, block);
    if (!res.ok) {
      std::fprintf(stderr, "replay failed at height %llu: %s\n",
                   static_cast<unsigned long long>(block.header.height),
                   res.error.c_str());
      std::exit(1);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  RunResult r;
  r.millis =
      std::chrono::duration<double, std::milli>(stop - start).count();
  r.metrics = executor.metrics();
  // Untimed: DAG edges are a transitive reduction, so count pairs.
  chain::BlockConflictReport conflicts;
  for (std::size_t b = 1; b < w.blocks.size(); ++b) {
    const chain::Block& block = w.blocks[b];
    conflicts.merge(chain::analyze_block_conflicts(
        block, [&](const chain::Transaction& tx) {
          return chain::exec::scheduling_footprint(tx, &store,
                                                   block.header.height);
        }));
  }
  r.conflict_rate = conflicts.conflict_rate();
  return r;
}

void speedup_vs_workers(const Workload& w) {
  banner("C8a: replay speedup vs workers (low-conflict contract workload)");
  Table table({"workers", "time_ms", "speedup", "ideal", "waves", "avg_wave",
               "max_wave", "par_txs", "seq_txs", "aborts"});
  std::vector<std::size_t> worker_counts = {1};
  if (!g_sequential_only) {
    worker_counts.push_back(2);
    worker_counts.push_back(4);
    if (!g_quick) worker_counts.push_back(8);
  }
  double base_ms = 0;
  for (const std::size_t workers : worker_counts) {
    ThreadPool pool(workers > 1 ? workers : 1);
    const RunResult r = replay(w, workers, &pool);
    if (workers == 1) base_ms = r.millis;
    table.row()
        .cell(workers)
        .cell(r.millis, 1)
        .cell(base_ms > 0 ? base_ms / r.millis : 1.0, 2)
        .cell(r.metrics.ideal_speedup(), 2)
        .cell(r.metrics.waves)
        .cell(r.metrics.avg_wave_width(), 2)
        .cell(r.metrics.max_wave_width)
        .cell(r.metrics.parallel_txs)
        .cell(r.metrics.sequential_txs)
        .cell(r.metrics.aborts);
  }
  table.print();
  std::puts(
      "\nspeedup = sequential time / parallel time over the identical\n"
      "block sequence; ideal = executed-tx ticks / schedule critical path\n"
      "(what the conflict DAG admits at that worker count — wall-clock\n"
      "converges to it only when the host has that many real cores).\n"
      "Determinism of the result is enforced by the execution_test suite\n"
      "and ChainAuditor::audit_parallel_execution.");
}

void parallelism_vs_conflict(std::size_t user_count,
                             std::size_t contract_count,
                             std::size_t block_count,
                             std::size_t txs_per_block) {
  banner("C8b: realized parallelism vs hot-contract conflict rate");
  Table table({"hot_frac", "conflict_rate", "time_ms", "speedup", "ideal",
               "avg_wave", "waves"});
  std::vector<double> fractions = {0.0, 0.25, 0.5, 1.0};
  if (g_quick) fractions = {0.0, 0.5};
  for (const double hot : fractions) {
    const Workload w = build_workload(user_count, contract_count,
                                      block_count, txs_per_block, hot);
    ThreadPool pool(4);
    const RunResult seq = replay(w, 1, nullptr);
    const RunResult par = replay(w, 4, &pool);
    table.row()
        .cell(hot, 2)
        .cell(par.conflict_rate, 3)
        .cell(par.millis, 1)
        .cell(seq.millis / par.millis, 2)
        .cell(par.metrics.ideal_speedup(), 2)
        .cell(par.metrics.avg_wave_width(), 2)
        .cell(par.metrics.waves);
  }
  table.print();
  std::puts(
      "\nhot_frac 1.0 funnels every call through one contract: the DAG\n"
      "collapses to a chain and the scheduler degrades gracefully to\n"
      "sequential commit order.");
}

/// Per-patient chain for C8c: ONE shared patient-record contract, and tx
/// t of every block updates patient t's record — every in-block pair
/// touches distinct H(7, patient) cells, so the true conflict rate is
/// zero. Whether the scheduler can SEE that is exactly what the symbolic
/// summaries decide.
Workload build_patient_workload(std::size_t user_count,
                                std::size_t block_count,
                                std::size_t txs_per_block) {
  Workload w;
  w.params.consensus = chain::ConsensusKind::Pbft;

  std::vector<crypto::PrivateKey> users;
  for (std::size_t i = 0; i < user_count; ++i) {
    users.push_back(crypto::key_from_seed("c8c-user-" + std::to_string(i)));
    w.params.premine.push_back(
        {crypto::address_of(users.back().pub), 1'000'000'000});
  }
  std::vector<std::uint64_t> nonces(user_count, 0);

  chain::Block deploy_block;
  deploy_block.header.height = 1;
  const chain::Transaction deploy = chain::make_deploy(
      users[0], vm::assemble(kPatientRecordSource), nonces[0]++);
  deploy_block.txs.push_back(deploy);
  w.blocks.push_back(deploy_block);

  vm::Word record_id = 0;
  {
    vm::ContractStore store;
    chain::VmExecutionHook hook(store);
    chain::exec::BlockExecutor executor(w.params, &hook);
    chain::WorldState state;
    for (const auto& [addr, amount] : w.params.premine)
      state.credit(addr, amount);
    const auto res = executor.execute_block(state, deploy_block);
    if (!res.ok) {
      std::fprintf(stderr, "deploy block failed: %s\n", res.error.c_str());
      std::exit(1);
    }
    record_id = *hook.contract_id_of(deploy.id());
  }

  for (std::size_t b = 0; b < block_count; ++b) {
    chain::Block block;
    block.header.height = static_cast<chain::Height>(b + 2);
    for (std::size_t t = 0; t < txs_per_block; ++t) {
      const std::size_t u = t % user_count;
      block.txs.push_back(chain::make_call(
          users[u], record_id,
          {1, kMixRounds, b * txs_per_block + t, /*patient=*/t},
          nonces[u]++));
    }
    w.blocks.push_back(block);
  }
  return w;
}

void per_patient_workload(std::size_t patient_count, std::size_t block_count,
                          std::size_t txs_per_block) {
  banner("C8c: symbolic summaries on a param-keyed per-patient workload");
  const Workload w =
      build_patient_workload(patient_count, block_count, txs_per_block);
  const RunResult seq = replay(w, 1, nullptr);
  ThreadPool pool(4);
  const RunResult par = replay(w, 4, &pool);
  Table table({"conflict_rate", "time_ms", "speedup", "ideal", "avg_wave",
               "waves"});
  table.row()
      .cell(par.conflict_rate, 3)
      .cell(par.millis, 1)
      .cell(seq.millis / par.millis, 2)
      .cell(par.metrics.ideal_speedup(), 2)
      .cell(par.metrics.avg_wave_width(), 2)
      .cell(par.metrics.waves);
  table.print();
  std::puts(
      "\nIdentical blocks, one shared contract, storage key\n"
      "H(7, calldata[3]) = the tx's patient id. The scheduler concretizes\n"
      "the per-selector symbolic summary against each tx's calldata, the\n"
      "cells come out disjoint, and conflict_rate collapses to zero —\n"
      "ideal approaches the low-conflict ceiling of C8a at the same\n"
      "worker count.");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) g_quick = true;
    if (std::strcmp(argv[i], "--sequential") == 0) g_sequential_only = true;
  }
  std::printf("== bench_c8_parallel_exec: conflict-DAG wave scheduler%s%s ==\n",
              g_quick ? " (quick)" : "",
              g_sequential_only ? " (sequential baseline)" : "");
  std::printf("host hardware threads: %u (wall-clock speedup is capped "
              "by this; `ideal` is not)\n",
              std::thread::hardware_concurrency());

  // One contract per user for the low-conflict sweep: a block's calls
  // touch disjoint contract cells and the transfer sprinkle touches none,
  // so the measured ceiling is the scheduler's, not the workload's.
  const std::size_t users = g_quick ? 24 : 48;
  const std::size_t contracts = users;
  const std::size_t blocks = g_quick ? 12 : 40;
  const std::size_t txs = g_quick ? 24 : 48;

  const Workload low_conflict =
      build_workload(users, contracts, blocks, txs, /*hot_fraction=*/0.0);
  speedup_vs_workers(low_conflict);
  if (!g_sequential_only) {
    parallelism_vs_conflict(users, contracts, g_quick ? 6 : 16, txs);
    per_patient_workload(users, g_quick ? 6 : 12, txs);
  }
  return 0;
}
