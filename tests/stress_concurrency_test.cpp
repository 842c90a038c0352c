// TSan-targeted concurrency stress tests.
//
// Sized to keep the suite fast while still forcing real interleavings:
// ThreadPool submit/shutdown races, concurrent mempool ingest from many
// feeder threads against a selecting consensus thread, and parallel
// off-chain analytics fanned out through the move-compute scheduler.
// Run these under the `tsan` preset to get the actual race checking.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chain/block.hpp"
#include "chain/block_validator.hpp"
#include "chain/execution/executor.hpp"
#include "chain/faultsim.hpp"
#include "chain/mempool.hpp"
#include "chain/node.hpp"
#include "chain/transaction.hpp"
#include "chain/vm_hook.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/fabric/fabric.hpp"
#include "core/fabric/run_board.hpp"
#include "core/scheduler.hpp"
#include "crypto/schnorr.hpp"
#include "vm/assembler.hpp"

namespace mc {
namespace {

TEST(StressConcurrency, ThreadPoolSubmitShutdownRace) {
  // Repeatedly tear pools down while feeder threads are mid-submit; every
  // accepted task must run, every rejected submit must throw cleanly.
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> executed{0};
    std::atomic<int> rejected{0};
    auto pool = std::make_unique<ThreadPool>(2);

    std::vector<std::thread> feeders;
    std::atomic<bool> go{false};
    for (int t = 0; t < 3; ++t) {
      feeders.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 50; ++i) {
          try {
            pool->submit([&executed] { ++executed; });
          } catch (const std::runtime_error&) {
            ++rejected;
          }
        }
      });
    }
    go = true;
    std::this_thread::yield();
    pool->stop();  // race the feeders; accepted work still drains
    for (auto& f : feeders) f.join();
    pool.reset();
    EXPECT_EQ(executed.load() + rejected.load(), 3 * 50);
  }
}

TEST(StressConcurrency, ParallelForFromMultipleThreads) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&pool, &total] {
      for (int round = 0; round < 10; ++round)
        pool.parallel_for(32, [&total](std::size_t i) { total += i + 1; });
    });
  }
  for (auto& c : callers) c.join();
  // 4 callers x 10 rounds x sum(1..32)
  EXPECT_EQ(total.load(), 4u * 10u * (32u * 33u / 2u));
}

TEST(StressConcurrency, ParallelForSkewedBodies) {
  // Bodies of very uneven cost — every 16th index runs a long mixing
  // loop, the rest a short one — from three caller threads on one shared
  // pool, the shape of a wave with a few costly contract runs. Claimants
  // race on the shared index counter; every slot must be written exactly
  // once, by its own body, with the sequential value.
  const auto mix = [](std::size_t i) {
    std::uint64_t x = i + 1;
    const std::size_t rounds = i % 16 == 0 ? 20'000 : 10;
    for (std::size_t r = 0; r < rounds; ++r)
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
  };
  ThreadPool pool(4);
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 3; ++t) {
    callers.emplace_back([&pool, &wrong, &mix, t] {
      for (int round = 0; round < 8; ++round) {
        const std::size_t n = 48 + 16 * t;
        std::vector<std::uint64_t> out(n, 0);
        std::vector<int> runs(n, 0);
        pool.parallel_for(n, [&](std::size_t i) {
          out[i] = mix(i);
          ++runs[i];
        });
        for (std::size_t i = 0; i < n; ++i)
          if (out[i] != mix(i) || runs[i] != 1) ++wrong;
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(StressConcurrency, ConcurrentMempoolIngestAndSelect) {
  chain::ChainParams params;
  chain::WorldState state;

  // Pre-sign everything; signing is deterministic and single-threaded.
  const int kSenders = 4;
  const int kTxPerSender = 25;
  std::vector<std::vector<chain::Transaction>> txs(kSenders);
  for (int s = 0; s < kSenders; ++s) {
    auto key = crypto::key_from_seed("stress-sender-" + std::to_string(s));
    state.credit(crypto::address_of(key.pub), 100'000'000);
    for (int i = 0; i < kTxPerSender; ++i)
      txs[s].push_back(chain::make_transfer(
          key, crypto::address_of(key.pub), /*amount=*/1,
          /*nonce=*/static_cast<std::uint64_t>(i)));
  }

  chain::Mempool pool;
  std::atomic<bool> stop_selecting{false};
  std::atomic<int> accepted{0};

  // Consensus thread: continuously select + probe while feeders ingest.
  std::thread selector([&] {
    while (!stop_selecting.load()) {
      const auto picked = pool.select(state, params, 64);
      EXPECT_LE(picked.size(), 64u);
      (void)pool.size();
      (void)pool.contains(txs[0][0].id());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> feeders;
  for (int s = 0; s < kSenders; ++s) {
    feeders.emplace_back([&pool, &txs, s, &accepted] {
      for (const auto& tx : txs[s])
        if (pool.add(tx)) ++accepted;
    });
  }
  for (auto& f : feeders) f.join();
  stop_selecting = true;
  selector.join();

  EXPECT_EQ(accepted.load(), kSenders * kTxPerSender);
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kSenders * kTxPerSender));

  // Snapshot + remove race-free postcondition: removing every snapshotted
  // tx empties the pool.
  pool.remove(pool.snapshot());
  EXPECT_TRUE(pool.empty());
}

TEST(StressConcurrency, ParallelOffchainAnalyticsViaScheduler) {
  // Each worker runs an independent placement over its own site fleet
  // (schedulers are single-owner by design) and publishes aggregate
  // statistics through atomics — the fan-out pattern the transformed
  // architecture uses for per-site analytics.
  ThreadPool pool(4);
  const std::size_t kWorkers = 8;
  std::atomic<std::uint64_t> placements{0};
  std::atomic<std::uint64_t> hub_moves{0};

  pool.parallel_for(kWorkers, [&](std::size_t w) {
    std::vector<core::SchedSite> sites(4, core::SchedSite{1e10, 0.0});
    core::MoveComputeScheduler sched(sites, core::SchedSite{1e11, 0.0});
    std::vector<core::SchedTask> tasks;
    for (std::size_t i = 0; i < 32; ++i) {
      core::SchedTask task;
      task.id = "w" + std::to_string(w) + "-t" + std::to_string(i);
      task.data_site = i % sites.size();
      task.flops = 1e9 * static_cast<double>(1 + i % 7);
      task.data_bytes = 1 << 16;
      task.hub_only = (i % 11 == 0);
      tasks.push_back(task);
    }
    const core::Schedule schedule = sched.schedule(tasks);
    placements += schedule.placements.size();
    hub_moves += schedule.moved_to_hub;
  });

  EXPECT_EQ(placements.load(), kWorkers * 32u);
  EXPECT_GE(hub_moves.load(), kWorkers * 3u);  // the hub_only tasks at least
}

TEST(StressConcurrency, FabricLeaseSpeculationChurn) {
  // Each worker thread owns an independent ComputeFabric (fabrics are
  // single-owner by design — the event loop is single-threaded) running
  // the same crash+straggler scenario, and posts its report into one
  // shared FabricRunBoard (the annotated fan-in guarded by clang's
  // -Wthread-safety leg). TSan probes the parallel_for fan-out; the
  // postcondition pins full determinism: every same-seeded run must
  // produce the same record even with lease churn, revocations and
  // speculative duplicates in play.
  ThreadPool pool(4);
  const std::size_t kRuns = 8;
  core::fabric::FabricRunBoard board;

  pool.parallel_for(kRuns, [&board](std::size_t) {
    core::fabric::FabricConfig config;
    config.workers = 6;
    config.seed = 0x57e;
    config.space.lease_s = 0.3;
    config.straggler_frac = 0.3;
    config.straggler_slowdown = 10.0;
    config.faults.crash(0, 0.2, 2.0).crash(1, 0.5, 2.5);
    core::fabric::ComputeFabric fabric(config);
    for (std::size_t i = 0; i < 300; ++i)
      fabric.submit("t" + std::to_string(i), 10'000'000, 0,
                    static_cast<sim::NodeId>(i % config.workers));
    board.post(fabric.run());
  });

  EXPECT_EQ(board.runs(), kRuns);
  EXPECT_TRUE(board.fingerprints_agree());
  EXPECT_EQ(board.total_commits(), kRuns * 300u);
  EXPECT_GT(board.total_recoveries(), 0u);  // the faults actually bit
  EXPECT_EQ(board.total_poisoned(), 0u);
}

TEST(StressConcurrency, BlockValidatorHammeredFromManyThreads) {
  // Many consensus threads validating the same decoded blocks through one
  // shared pool-backed validator. Exercises (a) concurrent parallel_for
  // fan-out on a shared ThreadPool and (b) concurrent id() cache hits on
  // shared Transaction objects — both must be TSan-clean.
  const auto sender = crypto::key_from_seed("stress-bv-sender");
  const chain::Address to =
      crypto::address_of(crypto::key_from_seed("stress-bv-to").pub);

  chain::Block good;
  for (std::size_t i = 0; i < 48; ++i)
    good.txs.push_back(chain::make_transfer(sender, to, 1 + i, i));
  good.header.tx_root = good.compute_tx_root();

  chain::Block bad = good;
  bad.txs[29].sig.s ^= 1;
  bad.header.tx_root = bad.compute_tx_root();
  // Re-warm ids on the mutated tx before sharing across threads (direct
  // field mutation requires the first id() call to be single-threaded).
  (void)bad.txs[29].id();

  // Decoded copies share nothing with the originals; validate those too.
  const chain::Block good_decoded =
      chain::Block::decode(BytesView(good.encode()));

  ThreadPool pool(4);
  const chain::BlockValidator validator(&pool, /*min_parallel_txs=*/1);

  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 25;
  std::atomic<std::size_t> ok_good{0}, ok_decoded{0}, bad_at_29{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        if (validator.validate(good).ok()) ++ok_good;
        if (validator.validate(good_decoded).ok()) ++ok_decoded;
        const chain::BlockValidation v = validator.validate(bad);
        if (v.first_invalid_tx == 29 && v.tx_root_ok) ++bad_at_29;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok_good.load(), kThreads * kRounds);
  EXPECT_EQ(ok_decoded.load(), kThreads * kRounds);
  EXPECT_EQ(bad_at_29.load(), kThreads * kRounds);
}

TEST(StressConcurrency, FaultSimUnderRandomCrashesStaysConsistent) {
  // The whole fault stack — injector, PBFT crash-recovery, gossip, chain
  // sync — on top of the pool-backed BlockValidator. The event loop is
  // single-threaded; the races TSan should probe are in the validator
  // fan-out under a randomized crash/partition schedule.
  chain::FaultSimConfig config;
  config.node_count = 8;
  config.regions = 2;
  config.client_count = 4;
  config.tx_count = 40;
  config.tx_rate_per_s = 20.0;
  config.sim_limit_s = 60.0;
  config.seed = 7;
  config.faults = sim::FaultPlan::random(
      /*seed=*/7, /*regions=*/2, /*nodes=*/8, /*horizon_s=*/40.0,
      /*crash_rate_per_node_s=*/0.01, /*mean_downtime_s=*/4.0,
      /*partition_rate_per_s=*/0.02, /*mean_partition_s=*/5.0);

  const chain::FaultSimReport report = chain::run_fault_sim(config);
  EXPECT_GT(report.blocks_committed, 0u);
  EXPECT_TRUE(report.live_nodes_agree);
  EXPECT_LE(report.committed_txs, report.submitted_txs);
}

// --- parallel block execution under TSan -----------------------------------

namespace exec_stress {

// Counter (bounded footprint) and slot writer (⊤ footprint): together
// they exercise wave speculation, commit-slot fallbacks and dynamic
// footprint recording inside the scheduler.
const char* kCounter = R"(
PUSH 0
CALLDATALOAD
PUSH 1
EQ
JUMPI @add
PUSH 1
SLOAD
RETURN 1
add:
PUSH 1
CALLDATALOAD
PUSH 1
SLOAD
ADD
PUSH 1
SSTORE
STOP
)";
const char* kSlotWriter = R"(
PUSH 1
CALLDATALOAD
PUSH 0
CALLDATALOAD
SSTORE
STOP
)";

struct Replica {
  vm::ContractStore store;
  chain::VmExecutionHook hook{store};
  chain::Node node;

  Replica(const chain::ChainParams& params, const chain::Block& genesis,
          const std::string& who)
      : node(crypto::key_from_seed(who), params, genesis, &hook) {}
};

struct Fixture {
  std::vector<crypto::PrivateKey> users;
  chain::ChainParams params;
  chain::Block genesis = chain::make_genesis("exec-stress", ~0ULL);
  std::vector<chain::Block> blocks;

  Fixture() {
    params.consensus = chain::ConsensusKind::Pbft;
    for (int i = 0; i < 8; ++i) {
      users.push_back(crypto::key_from_seed("stress-u" + std::to_string(i)));
      params.premine.push_back(
          {crypto::address_of(users.back().pub), 1'000'000'000});
    }
    // Build a contract-heavy chain once, sequentially.
    Replica builder(params, genesis, "stress-builder");
    std::vector<std::uint64_t> nonces(users.size(), 0);
    std::vector<chain::Transaction> deploys = {
        chain::make_deploy(users[0], vm::assemble(kCounter), nonces[0]++),
        chain::make_deploy(users[1], vm::assemble(kCounter), nonces[1]++),
        chain::make_deploy(users[2], vm::assemble(kSlotWriter), nonces[2]++)};
    commit(builder, deploys, 1'000);
    std::vector<vm::Word> ids;
    for (const auto& d : deploys)
      ids.push_back(*builder.hook.contract_id_of(d.id()));

    Rng rng(0x57e55ULL);
    for (int b = 0; b < 10; ++b) {
      std::vector<chain::Transaction> txs;
      for (int t = 0; t < 16; ++t) {
        const std::size_t u = rng.uniform(users.size());
        switch (rng.uniform(3)) {
          case 0:
            txs.push_back(chain::make_transfer(
                users[u], crypto::address_of(users[rng.uniform(8)].pub),
                1 + rng.uniform(100), nonces[u]++));
            break;
          case 1:
            txs.push_back(chain::make_call(users[u], ids[rng.uniform(2)],
                                           {1, 1 + rng.uniform(9)},
                                           nonces[u]++));
            break;
          default:
            txs.push_back(chain::make_call(users[u], ids[2],
                                           {rng.uniform(6), rng.uniform(3)},
                                           nonces[u]++));
            break;
        }
      }
      commit(builder, txs, 2'000 + 1'000 * b);
    }
  }

  void commit(Replica& builder, const std::vector<chain::Transaction>& txs,
              std::uint64_t time_ms) {
    for (const auto& tx : txs) ASSERT_TRUE(builder.node.submit(tx));
    const chain::Block block = builder.node.propose(time_ms);
    ASSERT_EQ(block.txs.size(), txs.size());
    ASSERT_EQ(builder.node.receive(block), chain::BlockVerdict::Accepted);
    blocks.push_back(block);
  }
};

}  // namespace exec_stress

TEST(StressConcurrency, ParallelExecContractWavesMatchSequential) {
  // One wave-parallel replica applies a contract-heavy chain: speculation
  // fans across the pool while the commit thread mutates state/store in
  // alternation — the frozen-state/join protocol TSan should probe.
  exec_stress::Fixture fx;
  if (testing::Test::HasFatalFailure()) return;

  ThreadPool pool(4);
  exec_stress::Replica seq(fx.params, fx.genesis, "stress-seq");
  exec_stress::Replica par(fx.params, fx.genesis, "stress-par");
  chain::exec::ExecutionConfig cfg;
  cfg.workers = 4;
  cfg.pool = &pool;
  par.node.set_execution(cfg);

  for (const chain::Block& b : fx.blocks) {
    ASSERT_EQ(seq.node.receive(b), chain::BlockVerdict::Accepted);
    ASSERT_EQ(par.node.receive(b), chain::BlockVerdict::Accepted);
  }
  EXPECT_EQ(par.node.state().digest(), seq.node.state().digest());
  EXPECT_EQ(par.store.digest(), seq.store.digest());
  EXPECT_GT(par.node.executor().metrics().parallel_txs, 0u);
}

TEST(StressConcurrency, ParallelExecReplicasShareOnePool) {
  // Several wave-parallel replicas replay the same chain concurrently,
  // all fanning their waves across ONE shared ThreadPool — pool reuse
  // across schedulers plus replica threads driving commits in parallel.
  exec_stress::Fixture fx;
  if (testing::Test::HasFatalFailure()) return;

  constexpr int kReplicas = 3;
  ThreadPool pool(4);
  std::vector<std::unique_ptr<exec_stress::Replica>> replicas;
  for (int i = 0; i < kReplicas; ++i) {
    replicas.push_back(std::make_unique<exec_stress::Replica>(
        fx.params, fx.genesis, "stress-r" + std::to_string(i)));
    chain::exec::ExecutionConfig cfg;
    cfg.workers = 4;
    cfg.pool = &pool;
    replicas.back()->node.set_execution(cfg);
  }

  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kReplicas; ++i) {
    threads.emplace_back([&, i] {
      for (const chain::Block& b : fx.blocks)
        if (replicas[static_cast<std::size_t>(i)]->node.receive(b) ==
            chain::BlockVerdict::Accepted)
          ++accepted;
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(accepted.load(),
            kReplicas * static_cast<int>(fx.blocks.size()));
  for (int i = 1; i < kReplicas; ++i) {
    EXPECT_EQ(replicas[static_cast<std::size_t>(i)]->node.state().digest(),
              replicas[0]->node.state().digest());
    EXPECT_EQ(replicas[static_cast<std::size_t>(i)]->store.digest(),
              replicas[0]->store.digest());
  }
}

}  // namespace
}  // namespace mc
