// Parallel block execution (DESIGN.md §13): the wave scheduler must be
// bit-identical to sequential execution — same state digests, same
// contract-store digests, same receipts, same accept/reject verdicts —
// on transfer chains, contract chains, randomized mixed workloads, a
// proposer spending after its own fee credits, and the abort/re-run
// path where a recorded dynamic footprint goes stale.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "audit/chain_auditor.hpp"
#include "chain/execution/executor.hpp"
#include "chain/node.hpp"
#include "chain/vm_hook.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "vm/assembler.hpp"

namespace mc::chain {
namespace {

// Counter contract (bounded footprint): selector 1 increments storage[1]
// by calldata[1], selector 2 returns it. Distinct deployments write
// disjoint cells, so calls to different counters parallelize.
const char* kCounterSource = R"(
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

// Slot writer: storage[calldata[0]] = calldata[1]. The key is
// param-derived — the pre-symbolic analyzer reported ⊤ for it, but the
// concretizer now evaluates the symbolic key against each tx's calldata
// to an exact cell, so these calls schedule without recorded hints.
const char* kSlotWriterSource = R"(
PUSH 1
CALLDATALOAD
PUSH 0
CALLDATALOAD
SSTORE
STOP
)";

// Indirect writer (genuinely unbounded): storage[storage[calldata[0]]] =
// calldata[1]. The key is loaded from storage, which the symbolic domain
// has no model for, so even the concretizer refuses and the scheduler
// leans on recorded dynamic footprints — the last rung of the ladder.
const char* kIndirectWriterSource = R"(
PUSH 1
CALLDATALOAD
PUSH 0
CALLDATALOAD
SLOAD
SSTORE
STOP
)";

// Branchy contract whose *read set* depends on prior state — the one
// shape that can make a recorded footprint under-approximate:
//   selector 1: storage[1] = calldata[1]            (mode flag)
//   selector 2: storage[0] = calldata[1]            (indirect base)
//   otherwise:  mode == 0 → storage[2] = 1          (plain path)
//               mode != 0 → storage[storage[0]] = 1 (indirect path)
const char* kBranchySource = R"(
PUSH 0
CALLDATALOAD
PUSH 1
EQ
JUMPI @setmode
PUSH 0
CALLDATALOAD
PUSH 2
EQ
JUMPI @setbase
PUSH 1
SLOAD
JUMPI @indirect
PUSH 1
PUSH 2
SSTORE
STOP
indirect:
PUSH 1
PUSH 0
SLOAD
SSTORE
STOP
setmode:
PUSH 1
CALLDATALOAD
PUSH 1
SSTORE
STOP
setbase:
PUSH 1
CALLDATALOAD
PUSH 0
SSTORE
STOP
)";

std::vector<crypto::PrivateKey> make_users(std::size_t n) {
  std::vector<crypto::PrivateKey> users;
  for (std::size_t i = 0; i < n; ++i)
    users.push_back(crypto::key_from_seed("exec-user-" + std::to_string(i)));
  return users;
}

ChainParams params_with_premine(const std::vector<crypto::PrivateKey>& users) {
  ChainParams params;
  params.consensus = ConsensusKind::Pbft;
  for (const auto& user : users)
    params.premine.push_back({crypto::address_of(user.pub), 1'000'000'000});
  return params;
}

Transaction make_anchor_tx(const crypto::PrivateKey& from,
                           const Hash256& digest, std::uint64_t nonce) {
  Transaction tx;
  tx.kind = TxKind::Anchor;
  tx.nonce = nonce;
  tx.gas_limit = 50'000;
  tx.payload = Bytes(digest.data.begin(), digest.data.end());
  tx.sign_with(from);
  return tx;
}

/// One full node with its own contract stack.
struct Replica {
  vm::ContractStore store;
  VmExecutionHook hook{store};
  Node node;

  Replica(const ChainParams& params, const Block& genesis,
          const std::string& who)
      : node(crypto::key_from_seed(who), params, genesis, &hook) {}
};

/// Builder proposes; a sequential and a wave-parallel replica both apply
/// every block; convergence is asserted digest-for-digest.
struct ParallelRig {
  std::vector<crypto::PrivateKey> users = make_users(8);
  ChainParams params = params_with_premine(users);
  Block genesis = make_genesis("exec-chain", ~0ULL);
  ThreadPool pool{4};
  Replica builder{params, genesis, "builder"};
  Replica seq{params, genesis, "seq-replica"};
  Replica par{params, genesis, "par-replica"};
  std::vector<std::uint64_t> nonces = std::vector<std::uint64_t>(8, 0);
  std::vector<Block> chain{genesis};

  ParallelRig() {
    exec::ExecutionConfig cfg;
    cfg.workers = 4;
    cfg.pool = &pool;
    par.node.set_execution(cfg);
  }

  std::uint64_t next_nonce(std::size_t user) { return nonces[user]++; }

  Block commit(const std::vector<Transaction>& txs, std::uint64_t time_ms) {
    for (const auto& tx : txs) EXPECT_TRUE(builder.node.submit(tx));
    const Block block = builder.node.propose(time_ms);
    EXPECT_EQ(block.txs.size(), txs.size());
    EXPECT_EQ(builder.node.receive(block), BlockVerdict::Accepted);
    EXPECT_EQ(seq.node.receive(block), BlockVerdict::Accepted);
    EXPECT_EQ(par.node.receive(block), BlockVerdict::Accepted);
    chain.push_back(block);
    return block;
  }

  void expect_converged() {
    EXPECT_EQ(seq.node.height(), par.node.height());
    EXPECT_EQ(seq.node.state().digest(), par.node.state().digest());
    EXPECT_EQ(seq.store.digest(), par.store.digest());
    EXPECT_EQ(seq.node.counters().txs_executed,
              par.node.counters().txs_executed);
    EXPECT_EQ(seq.node.counters().gas_executed,
              par.node.counters().gas_executed);
  }
};

/// One BlockExecutor over its own contract stack, collecting receipts.
struct ExecStack {
  vm::ContractStore store;
  VmExecutionHook hook{store};
  exec::BlockExecutor executor;
  std::vector<TxReceipt> receipts;

  ExecStack(const ChainParams& params, const exec::ExecutionConfig& cfg)
      : executor(params, &hook) {
    executor.set_config(cfg);
  }

  void apply(WorldState& state, const Block& block) {
    const exec::BlockExecResult res =
        executor.execute_block(state, block, &receipts);
    ASSERT_TRUE(res.ok) << res.error;
  }
};

void expect_same_receipts(const ExecStack& a, const ExecStack& b) {
  ASSERT_EQ(a.receipts.size(), b.receipts.size());
  for (std::size_t k = 0; k < a.receipts.size(); ++k) {
    EXPECT_EQ(a.receipts[k].id, b.receipts[k].id);
    EXPECT_EQ(a.receipts[k].height, b.receipts[k].height);
    EXPECT_EQ(a.receipts[k].gas_used, b.receipts[k].gas_used);
    EXPECT_EQ(a.receipts[k].index, b.receipts[k].index);
  }
}

/// A VmExecutionHook that owns its ContractStore, for HookFactory use.
/// The store lives in a base constructed before VmExecutionHook.
struct StoreHolder {
  vm::ContractStore owned_store;
};
struct OwningVmHook : StoreHolder, VmExecutionHook {
  OwningVmHook() : VmExecutionHook(owned_store) {}
};

// --- ledger-only convergence -----------------------------------------------

TEST(ParallelExec, TransferChainMatchesSequential) {
  ParallelRig rig;
  // Blocks mixing disjoint sender/recipient pairs with overlapping
  // recipients and repeat senders. With a Call in the block, the wave
  // path schedules it; without one, the block has no wave work and runs
  // sequentially.
  const auto transfers = [&](int b) {
    std::vector<Transaction> txs;
    for (std::size_t u = 0; u < rig.users.size(); ++u) {
      const std::size_t to = (u + 1 + static_cast<std::size_t>(b)) % 8;
      txs.push_back(make_transfer(rig.users[u],
                                  crypto::address_of(rig.users[to].pub),
                                  100 + static_cast<Amount>(b),
                                  rig.next_nonce(u)));
    }
    // Two extra txs from user 0 — a same-sender chain inside the block.
    txs.push_back(make_transfer(rig.users[0],
                                crypto::address_of(rig.users[3].pub), 7,
                                rig.next_nonce(0)));
    txs.push_back(make_transfer(rig.users[0],
                                crypto::address_of(rig.users[4].pub), 9,
                                rig.next_nonce(0)));
    return txs;
  };
  for (int b = 0; b < 5; ++b) rig.commit(transfers(b), 1'000 * (b + 1));
  rig.expect_converged();

  // Ledger-only blocks never enter the wave path, even with 4 workers.
  const exec::BlockExecMetrics& m = rig.par.node.executor().metrics();
  EXPECT_EQ(m.waves, 0u);
  EXPECT_EQ(m.parallel_txs, 0u);
  EXPECT_EQ(m.dag_edges, 0u);

  // A deploy-only block has no wave work either.
  const Transaction deploy = make_deploy(
      rig.users[5], vm::assemble(kCounterSource), rig.next_nonce(5));
  rig.commit({deploy}, 6'000);
  EXPECT_EQ(m.waves, 0u);
  const vm::Word counter = *rig.builder.hook.contract_id_of(deploy.id());

  // The same transfer shape plus one Call per block: the transfers, the
  // same-sender chain included, now commit from waves. Their ledger side
  // is applied in block order at each commit slot, so the same-sender
  // chain adds no edges and each block is one wave.
  for (int b = 5; b < 8; ++b) {
    std::vector<Transaction> txs = transfers(b);
    txs.push_back(make_call(rig.users[5], counter, {1, 1}, rig.next_nonce(5)));
    rig.commit(txs, 1'000 * (b + 2));
  }
  rig.expect_converged();
  EXPECT_EQ(m.waves, 3u);
  EXPECT_EQ(m.parallel_txs, 3u * 11u);
  EXPECT_EQ(m.dag_edges, 0u);

  // Two calls to the same counter write one contract cell: that still
  // orders them, one edge and one more wave.
  std::vector<Transaction> txs = transfers(8);
  txs.push_back(make_call(rig.users[5], counter, {1, 2}, rig.next_nonce(5)));
  txs.push_back(make_call(rig.users[6], counter, {1, 3}, rig.next_nonce(6)));
  rig.commit(txs, 11'000);
  rig.expect_converged();
  EXPECT_EQ(m.dag_edges, 1u);
  EXPECT_EQ(m.waves, 5u);
  // The sequential replica never entered the wave path.
  EXPECT_EQ(rig.seq.node.executor().metrics().parallel_txs, 0u);
}

// One sender, two contracts: the calls share only the sender's ledger
// account, which no wave touches, so they speculate side by side.
TEST(ParallelExec, OneSenderCallsOnTwoContractsShareAWave) {
  const auto users = make_users(8);
  const ChainParams params = params_with_premine(users);
  ThreadPool pool{4};
  ExecStack par(params, exec::ExecutionConfig{4, &pool});
  ExecStack seq(params, exec::ExecutionConfig{});
  WorldState par_state;
  WorldState seq_state;
  for (const auto& [addr, amount] : params.premine) {
    par_state.credit(addr, amount);
    seq_state.credit(addr, amount);
  }

  Block deploys;
  deploys.header.height = 1;
  deploys.txs = {make_deploy(users[0], vm::assemble(kCounterSource), 0),
                 make_deploy(users[0], vm::assemble(kCounterSource), 1)};
  par.apply(par_state, deploys);
  seq.apply(seq_state, deploys);
  if (testing::Test::HasFatalFailure()) return;
  const vm::Word a = *par.hook.contract_id_of(deploys.txs[0].id());
  const vm::Word b = *par.hook.contract_id_of(deploys.txs[1].id());

  Block calls;
  calls.header.height = 2;
  calls.txs = {make_call(users[1], a, {1, 5}, 0),
               make_call(users[1], b, {1, 6}, 1)};
  par.apply(par_state, calls);
  seq.apply(seq_state, calls);
  if (testing::Test::HasFatalFailure()) return;

  const exec::BlockExecMetrics& m = par.executor.metrics();
  EXPECT_EQ(m.waves, 1u);
  EXPECT_EQ(m.dag_edges, 0u);
  EXPECT_EQ(m.parallel_txs, 2u);
  EXPECT_EQ(m.aborts, 0u);
  EXPECT_EQ(par_state.digest(), seq_state.digest());
  EXPECT_EQ(par.store.digest(), seq.store.digest());
  expect_same_receipts(par, seq);
}

// The ledger side is not in any footprint, so a sender's later tx can
// share a wave with the call whose fee starves it. The balance check
// runs at each commit slot in block order, so both paths reject the
// block at the same tx with the same error.
TEST(ParallelExec, CallFeeStarvingTheSendersNextTxRejectedIdentically) {
  const auto users = make_users(8);
  const ChainParams params = params_with_premine(users);
  ThreadPool pool{4};
  ExecStack par(params, exec::ExecutionConfig{4, &pool});
  ExecStack seq(params, exec::ExecutionConfig{});

  Block deploys;
  deploys.header.height = 1;
  deploys.txs = {make_deploy(users[0], vm::assemble(kCounterSource), 0),
                 make_deploy(users[0], vm::assemble(kCounterSource), 1)};
  const Address payee =
      crypto::address_of(crypto::key_from_seed("exec-payee").pub);
  std::vector<exec::BlockExecResult> results;
  for (ExecStack* stack : {&par, &seq}) {
    WorldState state;
    for (const auto& [addr, amount] : params.premine)
      state.credit(addr, amount);
    stack->apply(state, deploys);
    if (testing::Test::HasFatalFailure()) return;
    const vm::Word a = *stack->hook.contract_id_of(deploys.txs[0].id());
    const vm::Word b = *stack->hook.contract_id_of(deploys.txs[1].id());

    // users[1] starts with exactly its premine; its transfer at index 3
    // needs all of it (amount + 21'000 max fee), so the call's fee at
    // index 1 leaves it short.
    Block block;
    block.header.height = 2;
    block.txs = {
        make_transfer(users[2], payee, 10, 0),
        make_call(users[1], a, {1, 5}, 0),
        make_call(users[3], b, {1, 6}, 0),
        make_transfer(users[1], payee, Amount{1'000'000'000} - 21'000, 1),
        make_transfer(users[4], payee, 10, 0)};
    results.push_back(stack->executor.execute_block(state, block));
  }
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[0].error, "insufficient balance");
  EXPECT_EQ(results[0].error, results[1].error);
  EXPECT_EQ(results[0].txs_applied, 3u);
  EXPECT_EQ(results[0].txs_applied, results[1].txs_applied);
  EXPECT_EQ(results[0].gas_used, results[1].gas_used);
  // The parallel replica took the wave path and put the starving call and
  // the starved transfer in one wave.
  EXPECT_EQ(par.executor.metrics().waves, 1u);
  EXPECT_EQ(par.executor.metrics().dag_edges, 0u);
  EXPECT_EQ(par.store.digest(), seq.store.digest());
}

// --- contract convergence ---------------------------------------------------

TEST(ParallelExec, ContractChainMatchesSequential) {
  ParallelRig rig;
  // Three counter deployments (deploys serialize via the registry cell).
  std::vector<Transaction> deploys;
  for (std::size_t u = 0; u < 3; ++u)
    deploys.push_back(make_deploy(rig.users[u], vm::assemble(kCounterSource),
                                  rig.next_nonce(u)));
  rig.commit(deploys, 1'000);

  std::vector<vm::Word> counters;
  for (std::size_t u = 0; u < 3; ++u)
    counters.push_back(*rig.builder.hook.contract_id_of(deploys[u].id()));

  // Blocks of calls: distinct senders to distinct counters speculate in
  // one wave; repeat calls to the same counter serialize across waves.
  for (int b = 0; b < 4; ++b) {
    std::vector<Transaction> txs;
    for (std::size_t u = 0; u < 6; ++u)
      txs.push_back(make_call(rig.users[u], counters[u % 3],
                              {1, static_cast<vm::Word>(u + 1)},
                              rig.next_nonce(u)));
    txs.push_back(make_transfer(rig.users[6],
                                crypto::address_of(rig.users[7].pub), 11,
                                rig.next_nonce(6)));
    rig.commit(txs, 2'000 + 1'000 * b);
  }
  rig.expect_converged();

  // Speculation actually committed from waves (not all commit-slot runs).
  EXPECT_GT(rig.par.node.executor().metrics().parallel_txs, 0u);
  // And the counters hold the sequential totals on the parallel replica.
  for (std::size_t c = 0; c < 3; ++c) {
    const auto* dc = rig.par.store.contract(counters[c]);
    ASSERT_NE(dc, nullptr);
    EXPECT_EQ(dc->storage.at(1),
              rig.seq.store.contract(counters[c])->storage.at(1));
  }
}

TEST(ParallelExec, DynamicFootprintsRecordedForUnboundedCalls) {
  ParallelRig rig;
  const Transaction deploy = make_deploy(
      rig.users[0], vm::assemble(kIndirectWriterSource), rig.next_nonce(0));
  const Transaction filler0 = make_transfer(
      rig.users[6], crypto::address_of(rig.users[7].pub), 5,
      rig.next_nonce(6));
  rig.commit({deploy, filler0}, 1'000);
  const vm::Word writer = *rig.builder.hook.contract_id_of(deploy.id());

  // ⊤-footprint calls: each records its first-run cell set at commit.
  for (int b = 0; b < 2; ++b) {
    std::vector<Transaction> txs;
    for (std::size_t u = 1; u < 5; ++u)
      txs.push_back(make_call(rig.users[u], writer,
                              {static_cast<vm::Word>(u), vm::Word{1}},
                              rig.next_nonce(u)));
    rig.commit(txs, 2'000 + 1'000 * b);
  }
  rig.expect_converged();
  EXPECT_GT(rig.par.node.executor().footprints().recorded_count(), 0u);
  // ⊤ txs serialize: they execute at their commit slot, not in waves.
  EXPECT_GT(rig.par.node.executor().metrics().sequential_txs, 0u);
}

// --- divergence on invalid blocks ------------------------------------------

TEST(ParallelExec, InvalidBlockRejectedIdentically) {
  // Once ledger-only (sequential path on both replicas), once with a Call
  // in the bad block, so the parallel replica rejects the overspend at
  // its commit slot on the wave path.
  for (const bool with_call : {false, true}) {
    SCOPED_TRACE(with_call ? "call-bearing block" : "ledger-only block");
    ParallelRig rig;
    std::vector<Transaction> txs;
    for (std::size_t u = 0; u < 4; ++u)
      txs.push_back(make_transfer(rig.users[u],
                                  crypto::address_of(rig.users[u + 4].pub),
                                  50, rig.next_nonce(u)));
    if (with_call)
      txs.push_back(make_deploy(rig.users[6], vm::assemble(kCounterSource),
                                rig.next_nonce(6)));
    rig.commit(txs, 1'000);
    const Hash256 seq_digest = rig.seq.node.state().digest();
    const Hash256 seq_store = rig.seq.store.digest();

    // Hand-craft a block with an overspending tx in the middle: both
    // execution modes must reject it and roll back completely.
    Block bad = rig.builder.node.propose(2'000);
    bad.txs.clear();
    if (with_call)
      bad.txs.push_back(make_call(rig.users[6],
                                  *rig.builder.hook.contract_id_of(
                                      txs.back().id()),
                                  {1, 5}, rig.nonces[6]));
    for (std::size_t u = 0; u < 3; ++u)
      bad.txs.push_back(make_transfer(rig.users[u],
                                      crypto::address_of(rig.users[5].pub),
                                      10, rig.nonces[u]));
    bad.txs.insert(bad.txs.begin() + (with_call ? 2 : 1),
                   make_transfer(rig.users[7],
                                 crypto::address_of(rig.users[0].pub),
                                 Amount{5'000'000'000}, rig.nonces[7]));
    bad.header.tx_root = bad.compute_tx_root();
    EXPECT_EQ(rig.seq.node.receive(bad), BlockVerdict::Invalid);
    EXPECT_EQ(rig.par.node.receive(bad), BlockVerdict::Invalid);
    EXPECT_EQ(rig.par.node.executor().metrics().waves > 0, with_call);
    EXPECT_EQ(rig.seq.node.height(), 1u);
    EXPECT_EQ(rig.par.node.height(), 1u);
    EXPECT_EQ(rig.seq.node.state().digest(), seq_digest);
    EXPECT_EQ(rig.par.node.state().digest(), seq_digest);
    EXPECT_EQ(rig.seq.store.digest(), seq_store);
    EXPECT_EQ(rig.par.store.digest(), seq_store);
  }
}

// --- abort/re-run: a recorded footprint that goes stale ---------------------

// A dynamic footprint is recorded from one concrete run and reused as a
// scheduling hint on any later execution of the same transaction (reorg
// replays, audits). When the pre-state differs between record time and
// replay time, the hint can under-approximate — and commit-slot
// validation must catch it. Two chains run through ONE BlockExecutor
// (the provider cache persists; the contract store carries over):
//
//   Chain A (recording, mode off): T_probe takes the PLAIN path, so its
//   recorded set is {read (D,1), write (D,2)} — no (D,0). T_base's
//   selector-2 summary concretizes to {write (D,0)} statically.
//   Chain B (stale replay, mode on, base moved to 3): [T_base, T_probe]
//   in one block look independent per those footprints, so both
//   speculate in one wave. T_probe actually takes the INDIRECT path and
//   reads storage[0] = 3, which T_base rewrites to 7 at its commit slot:
//   stale observation → abort → sequential re-run → storage[7] = 1,
//   exactly the sequential outcome.
TEST(ParallelExec, StaleRecordedFootprintAbortsAndRerunsIdentically) {
  const auto users = make_users(8);
  const ChainParams params = params_with_premine(users);
  ThreadPool pool{4};

  const auto fresh_state = [&] {
    WorldState state;
    for (const auto& [addr, amount] : params.premine)
      state.credit(addr, amount);
    return state;
  };
  const auto block_at = [](Height h, std::vector<Transaction> txs) {
    Block b;
    b.header.height = h;
    b.txs = std::move(txs);
    return b;
  };

  ExecStack par(params, exec::ExecutionConfig{4, &pool});
  ExecStack seq(params, exec::ExecutionConfig{});

  std::vector<Block> chain_a;
  std::vector<Block> chain_b;

  const Transaction deploy =
      make_deploy(users[0], vm::assemble(kBranchySource), 0);
  // Discover the contract id on a scratch stack before building the call
  // transactions (the real runs see the same deploy as their first tx,
  // so both stores assign the same id).
  vm::Word id = 0;
  {
    vm::ContractStore probe_store;
    VmExecutionHook probe_hook(probe_store);
    exec::BlockExecutor probe_exec(params, &probe_hook);
    WorldState state = fresh_state();
    const exec::BlockExecResult res =
        probe_exec.execute_block(state, block_at(1, {deploy}));
    ASSERT_TRUE(res.ok) << res.error;
    const auto discovered = probe_hook.contract_id_of(deploy.id());
    ASSERT_TRUE(discovered.has_value());
    id = *discovered;
  }

  const Transaction t_mode = make_call(users[1], id, {1, 1}, 0);   // mode on
  const Transaction t_base = make_call(users[2], id, {2, 7}, 0);   // base = 7
  const Transaction t_probe = make_call(users[3], id, {3}, 0);     // branchy
  const Transaction t_base2 = make_call(users[4], id, {2, 3}, 0);  // base = 3
  const auto filler = [&](std::size_t user, std::uint64_t nonce) {
    return make_transfer(users[user], crypto::address_of(users[5].pub), 5,
                         nonce);
  };

  // Chain A: deploy, record T_base and T_probe with the mode flag off.
  chain_a.push_back(block_at(1, {deploy, filler(6, 0)}));
  chain_a.push_back(block_at(2, {t_base, filler(7, 0)}));
  chain_a.push_back(block_at(3, {t_probe, filler(6, 1)}));
  // Chain B (fresh ledger, same store): mode on, base to 3, stale pair.
  chain_b.push_back(block_at(1, {t_mode, filler(7, 0)}));
  chain_b.push_back(block_at(2, {t_base2, filler(6, 0)}));
  chain_b.push_back(block_at(3, {t_base, t_probe}));

  for (ExecStack* stack : {&par, &seq}) {
    WorldState state_a = fresh_state();
    for (const Block& b : chain_a) stack->apply(state_a, b);
    WorldState state_b = fresh_state();
    for (const Block& b : chain_b) stack->apply(state_b, b);
    if (testing::Test::HasFatalFailure()) return;
    if (stack == &par) {
      // T_probe's default path reads a storage-derived key, so it is the
      // one call the concretizer refuses; chain A recorded it. (T_base
      // hits selector 2, whose symbolic summary is exact — it no longer
      // needs a recorded hint.)
      EXPECT_GE(stack->executor.footprints().recorded_count(), 1u);
      // …and the stale pair produced exactly one abort + re-run.
      EXPECT_EQ(stack->executor.metrics().aborts, 1u);
      EXPECT_EQ(stack->executor.metrics().reruns, 1u);
    }
  }

  // Bit-identical outcome despite the abort.
  EXPECT_EQ(par.store.digest(), seq.store.digest());
  expect_same_receipts(par, seq);
  // The re-run took the indirect path; the aborted speculative write to
  // storage[3] never leaked into the store.
  const vm::DeployedContract* dc = par.store.contract(id);
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->storage.at(0), 7u);
  EXPECT_EQ(dc->storage.at(1), 1u);
  EXPECT_EQ(dc->storage.at(7), 1u);
  EXPECT_EQ(dc->storage.count(3), 0u);
}

// --- the proposer spends in its own block -----------------------------------

// Every applied tx credits its fee to header.proposer. When the proposer
// also sends a tx later in the same block, that tx reads a balance the
// earlier txs' fee credits changed — cells no scheduling footprint
// names. The ledger side is applied at each tx's commit slot, so the
// wave path sees exactly the sequential balance and nothing aborts.
TEST(ParallelExec, ProposerSpendingAfterFeeCreditsMatchesSequential) {
  const auto users = make_users(8);
  const ChainParams params = params_with_premine(users);
  ThreadPool pool{4};
  ExecStack par(params, exec::ExecutionConfig{4, &pool});
  ExecStack seq(params, exec::ExecutionConfig{});

  const Transaction deploy =
      make_deploy(users[1], vm::assemble(kCounterSource), 0);
  Block deploy_block;
  deploy_block.header.height = 1;
  deploy_block.header.proposer = crypto::address_of(users[0].pub);
  deploy_block.txs = {deploy};

  WorldState par_state;
  WorldState seq_state;
  for (const auto& [addr, amount] : params.premine) {
    par_state.credit(addr, amount);
    seq_state.credit(addr, amount);
  }
  par.apply(par_state, deploy_block);
  seq.apply(seq_state, deploy_block);
  if (testing::Test::HasFatalFailure()) return;
  const vm::Word counter = *par.hook.contract_id_of(deploy.id());

  // Fee-paying txs first, then the proposer's own transfer and call.
  // The transfer has no footprint cells, so it is scheduled into the
  // first wave beside them.
  Block block;
  block.header.height = 2;
  block.header.proposer = crypto::address_of(users[0].pub);
  for (std::size_t u = 2; u < 5; ++u)
    block.txs.push_back(make_transfer(
        users[u], crypto::address_of(users[u + 3].pub), 40, 0));
  block.txs.push_back(make_call(users[1], counter, {1, 3}, 1));
  const Address payee =
      crypto::address_of(crypto::key_from_seed("exec-payee").pub);
  block.txs.push_back(make_transfer(users[0], payee, 25, 0));
  block.txs.push_back(make_call(users[0], counter, {1, 4}, 1));
  par.apply(par_state, block);
  seq.apply(seq_state, block);
  if (testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(par_state.digest(), seq_state.digest());
  EXPECT_EQ(par.store.digest(), seq.store.digest());
  expect_same_receipts(par, seq);
  const exec::BlockExecMetrics& m = par.executor.metrics();
  EXPECT_GT(m.waves, 0u);
  EXPECT_GT(m.parallel_txs, 0u);
  EXPECT_EQ(m.aborts, 0u);
}

// --- randomized mixed workload, gated by the auditor ------------------------

TEST(ParallelExec, AuditorPassesRandomizedMixedWorkload) {
  ParallelRig rig;
  Rng rng(0x9a11e1ULL);

  // Contracts: two counters (statically bounded), one slot writer
  // (param-keyed, bounded via concretization), one indirect writer
  // (storage-derived key: the genuine ⊤/recorded path).
  const Transaction d0 =
      make_deploy(rig.users[0], vm::assemble(kCounterSource),
                  rig.next_nonce(0));
  const Transaction d1 =
      make_deploy(rig.users[1], vm::assemble(kCounterSource),
                  rig.next_nonce(1));
  const Transaction d2 =
      make_deploy(rig.users[2], vm::assemble(kSlotWriterSource),
                  rig.next_nonce(2));
  const Transaction d3 =
      make_deploy(rig.users[3], vm::assemble(kIndirectWriterSource),
                  rig.next_nonce(3));
  rig.commit({d0, d1, d2, d3}, 1'000);
  const std::vector<vm::Word> contracts = {
      *rig.builder.hook.contract_id_of(d0.id()),
      *rig.builder.hook.contract_id_of(d1.id()),
      *rig.builder.hook.contract_id_of(d2.id()),
      *rig.builder.hook.contract_id_of(d3.id())};

  for (int b = 0; b < 6; ++b) {
    std::vector<Transaction> txs;
    const std::size_t count = 6 + rng.uniform(6);
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t u = rng.uniform(rig.users.size());
      switch (rng.uniform(5)) {
        case 0: {  // transfer, half the time into a hot account
          const std::size_t to = rng.bernoulli(0.5) ? 0 : rng.uniform(8);
          txs.push_back(make_transfer(
              rig.users[u], crypto::address_of(rig.users[to].pub),
              1 + rng.uniform(500), rig.next_nonce(u)));
          break;
        }
        case 1:  // counter increment
          txs.push_back(make_call(rig.users[u],
                                  contracts[rng.uniform(2)],
                                  {1, 1 + rng.uniform(9)},
                                  rig.next_nonce(u)));
          break;
        case 2:  // concretized slot write; value 0 exercises the erase path
          txs.push_back(make_call(rig.users[u], contracts[2],
                                  {rng.uniform(5), rng.uniform(3)},
                                  rig.next_nonce(u)));
          break;
        case 3:  // ⊤ indirect write: storage-derived key, recorded path
          txs.push_back(make_call(rig.users[u], contracts[3],
                                  {rng.uniform(5), rng.uniform(3)},
                                  rig.next_nonce(u)));
          break;
        default: {  // anchor
          const Hash256 digest = crypto::sha256(
              "dataset-" + std::to_string(rng.uniform(1000)));
          txs.push_back(
              make_anchor_tx(rig.users[u], digest, rig.next_nonce(u)));
          break;
        }
      }
    }
    rig.commit(txs, 2'000 + 1'000 * b);
  }
  rig.expect_converged();

  // Independent double replay through the auditor: verdicts, ledger
  // digests, contract digests and receipts must all match.
  const audit::ChainAuditor auditor(rig.params);
  const audit::AuditReport report = auditor.audit_parallel_execution(
      rig.chain,
      [] {
        return std::unique_ptr<VmExecutionHook>(new OwningVmHook());
      },
      rig.pool, /*workers=*/4);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.txs_replayed, 0u);
  EXPECT_EQ(report.count(audit::ViolationKind::ParallelExecutionDivergence),
            0u);
}

// --- concretizer ladder and recorded-cache eviction (PR 9) ------------------

// Two patients updating their own H(7, patient) record cells on ONE
// shared contract must not conflict once the per-selector summary is
// concretized.
TEST(Footprints, SchedulingFootprintConcretizesPatientCells) {
  const char* src = R"(
    PUSH 0
    CALLDATALOAD
    PUSH 1
    EQ
    JUMPI @put
    REVERT
    put:
    PUSH 2
    CALLDATALOAD
    PUSH 7
    PUSH 3
    CALLDATALOAD
    HASHN 2
    SSTORE
    STOP
  )";
  vm::ContractStore store;
  // medchain-lint: allow(footprint-bypass) — test drives the gate directly
  const vm::Word id = store.deploy(vm::assemble(src), /*deployer=*/1,
                                   /*height=*/1);
  const auto users = make_users(2);

  const auto call_for = [&](std::size_t u, vm::Word patient) {
    return make_call(users[u], id, {1, 0, /*value=*/9, patient},
                     /*nonce=*/0);
  };
  const Transaction alice = call_for(0, 101);
  const Transaction bob = call_for(1, 202);

  const TxFootprint fa =
      exec::scheduling_footprint(alice, &store, /*height=*/2);
  const TxFootprint fb =
      exec::scheduling_footprint(bob, &store, /*height=*/2);
  EXPECT_FALSE(fa.unbounded);
  EXPECT_FALSE(fb.unbounded);
  EXPECT_FALSE(footprints_conflict(fa, fb));
  // Same patient from both senders: the concretized cells collide.
  const TxFootprint fb_same =
      exec::scheduling_footprint(call_for(1, 101), &store, 2);
  EXPECT_TRUE(footprints_conflict(fa, fb_same));

  // No store at all: nothing to concretize against.
  EXPECT_TRUE(exec::scheduling_footprint(alice, nullptr, 2).unbounded);
}

// Regression: the recorded-set cache used to reset wholesale at the cap,
// dropping every hint at once. Now it evicts the oldest half FIFO — the
// newest hints must survive the cliff.
TEST(Footprints, RecordedCacheEvictsOldestHalfNotEverything) {
  exec::FootprintProvider provider(nullptr, /*max_recorded=*/4);
  const auto users = make_users(6);

  // Calls with no store to resolve against: ⊤ until recorded, so
  // footprint() answers straight from the dynamic cache.
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < 6; ++i)
    txs.push_back(make_call(users[i], /*contract=*/99, {1, 2},
                            /*nonce=*/0));
  vm::ExecTrace trace;
  trace.writes.insert(1);

  for (std::size_t i = 0; i < 4; ++i)
    provider.record(txs[i], /*contract_id=*/7, trace);
  EXPECT_EQ(provider.recorded_count(), 4u);

  // The 5th record crosses the cap: evict txs[0..1], keep txs[2..3].
  provider.record(txs[4], 7, trace);
  EXPECT_EQ(provider.recorded_count(), 3u);

  const auto recorded = [&](const Transaction& tx) {
    return !provider.footprint(tx).unbounded;
  };
  EXPECT_FALSE(recorded(txs[0]));
  EXPECT_FALSE(recorded(txs[1]));
  EXPECT_TRUE(recorded(txs[2]));
  EXPECT_TRUE(recorded(txs[3]));
  EXPECT_TRUE(recorded(txs[4]));

  // Re-recording an already-cached id must not duplicate its FIFO slot.
  provider.record(txs[2], 7, trace);
  EXPECT_EQ(provider.recorded_count(), 3u);
  provider.record(txs[5], 7, trace);
  EXPECT_EQ(provider.recorded_count(), 4u);
  EXPECT_TRUE(recorded(txs[2]));
}

TEST(ParallelExec, AuditorAgreesOnRejectedBlock) {
  // A chain whose final block is invalid: both replay modes must reject
  // it — agreement on failure is part of the determinism contract.
  ParallelRig rig;
  std::vector<Transaction> txs;
  for (std::size_t u = 0; u < 4; ++u)
    txs.push_back(make_transfer(rig.users[u],
                                crypto::address_of(rig.users[7].pub), 25,
                                rig.next_nonce(u)));
  rig.commit(txs, 1'000);

  Block bad = rig.builder.node.propose(2'000);
  bad.txs = {make_transfer(rig.users[0],
                           crypto::address_of(rig.users[1].pub), 10,
                           rig.nonces[0]),
             make_transfer(rig.users[5],
                           crypto::address_of(rig.users[6].pub),
                           Amount{9'000'000'000}, rig.nonces[5])};
  bad.header.tx_root = bad.compute_tx_root();
  std::vector<Block> chain = rig.chain;
  chain.push_back(bad);

  const audit::ChainAuditor auditor(rig.params);
  const audit::AuditReport report = auditor.audit_parallel_execution(
      chain,
      [] {
        return std::unique_ptr<VmExecutionHook>(new OwningVmHook());
      },
      rig.pool, /*workers=*/4);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// --- verdict parity: every contract failure kind ----------------------------

// ORACLE behind a calldata branch: a non-zero calldata[0] asks the
// oracle, which no stored-contract run answers, so the call traps; zero
// takes the plain branch and writes storage[1].
const char* kOracleBranchSource = R"(
PUSH 0
CALLDATALOAD
JUMPI @ask
PUSH 1
PUSH 1
SSTORE
STOP
ask:
PUSH 7
ORACLE
PUSH 2
SSTORE
STOP
)";

// Each contract failure kind sits mid-block between successful calls and
// transfers. One worker and four workers must reach the same verdict with
// the same error string, the same receipts and the same ledger and
// contract digests, and the auditor's double replay must agree.
TEST(ParallelExec, ContractFailureVerdictsMatchAcrossWorkerCounts) {
  const auto users = make_users(8);
  const ChainParams params = params_with_premine(users);
  ThreadPool pool{4};
  const Address payee =
      crypto::address_of(crypto::key_from_seed("exec-payee").pub);

  Block setup;
  setup.header.height = 1;
  setup.txs = {make_deploy(users[0], vm::assemble(kCounterSource), 0),
               make_deploy(users[0], vm::assemble(kOracleBranchSource), 1)};
  setup.header.tx_root = setup.compute_tx_root();
  vm::Word counter = 0;
  vm::Word oracle = 0;
  {
    ExecStack probe(params, exec::ExecutionConfig{});
    WorldState state;
    for (const auto& [addr, amount] : params.premine)
      state.credit(addr, amount);
    probe.apply(state, setup);
    if (testing::Test::HasFatalFailure()) return;
    counter = *probe.hook.contract_id_of(setup.txs[0].id());
    oracle = *probe.hook.contract_id_of(setup.txs[1].id());
  }

  const auto signed_tx = [&](TxKind kind, Bytes payload) {
    Transaction tx;
    tx.kind = kind;
    tx.gas_limit = 500'000;
    tx.payload = std::move(payload);
    tx.sign_with(users[5]);
    return tx;
  };
  struct Case {
    const char* name;
    Transaction tx;
    const char* error;  ///< "" when the block is valid
  };
  const std::vector<Case> cases = {
      {"malformed call payload", signed_tx(TxKind::Call, Bytes{1, 2, 3}),
       "malformed call payload"},
      {"unknown contract", make_call(users[5], 0xdead, {1, 1}, 0),
       "call to unknown contract"},
      {"oracle branch taken", make_call(users[5], oracle, {1}, 0),
       "contract trapped: oracle-failure"},
      {"oracle branch not taken", make_call(users[5], oracle, {0}, 0), ""},
      {"malformed deploy bytecode", signed_tx(TxKind::Deploy, Bytes{0xff}),
       "malformed contract bytecode"},
      {"admission-rejected deploy", signed_tx(TxKind::Deploy, Bytes{0x02}),
       "contract admission rejected: possible stack underflow"},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Block block;
    block.header.height = 2;
    block.txs = {make_transfer(users[2], payee, 10, 0),
                 make_call(users[3], counter, {1, 5}, 0), c.tx,
                 make_call(users[4], counter, {1, 6}, 0),
                 make_transfer(users[6], payee, 10, 0)};
    block.header.tx_root = block.compute_tx_root();

    struct Outcome {
      exec::BlockExecResult result;
      Hash256 ledger;
      Hash256 contracts;
      std::unique_ptr<ExecStack> stack;
    };
    std::vector<Outcome> outcomes;
    for (const std::size_t workers : {1, 4}) {
      Outcome o;
      o.stack = std::make_unique<ExecStack>(
          params, exec::ExecutionConfig{workers, &pool});
      WorldState state;
      for (const auto& [addr, amount] : params.premine)
        state.credit(addr, amount);
      o.stack->apply(state, setup);
      if (testing::Test::HasFatalFailure()) return;
      o.result =
          o.stack->executor.execute_block(state, block, &o.stack->receipts);
      o.ledger = state.digest();
      o.contracts = o.stack->store.digest();
      outcomes.push_back(std::move(o));
    }
    const Outcome& seq = outcomes[0];
    const Outcome& par = outcomes[1];
    EXPECT_EQ(seq.result.ok, std::string(c.error).empty());
    EXPECT_EQ(seq.result.error, c.error);
    EXPECT_EQ(par.result.ok, seq.result.ok);
    EXPECT_EQ(par.result.error, seq.result.error);
    EXPECT_EQ(seq.result.txs_applied, seq.result.ok ? 5u : 2u);
    EXPECT_EQ(par.result.txs_applied, seq.result.txs_applied);
    EXPECT_EQ(par.result.gas_used, seq.result.gas_used);
    expect_same_receipts(*par.stack, *seq.stack);
    EXPECT_EQ(par.ledger, seq.ledger);
    EXPECT_EQ(par.contracts, seq.contracts);
    // The four-worker stack scheduled the block in waves.
    EXPECT_GT(par.stack->executor.metrics().waves, 0u);

    const audit::ChainAuditor auditor(params);
    const audit::AuditReport report = auditor.audit_parallel_execution(
        {make_genesis("exec-chain", ~0ULL), setup, block},
        [] {
          return std::unique_ptr<VmExecutionHook>(new OwningVmHook());
        },
        pool, /*workers=*/4);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

}  // namespace
}  // namespace mc::chain
