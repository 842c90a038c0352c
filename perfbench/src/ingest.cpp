// Block-ingest workloads: ingest_contract and ingest_ledger.
//
// Closed loop, one client process: per block the client submits the
// block's signed txs to a proposer Node, the proposer proposes, a
// validator Node receives, then the proposer connects its own block.
// Both nodes run VmExecutionHook over their own ContractStore under PBFT
// params and share one 4-thread ThreadPool (batch-verifying
// BlockValidator + 4-worker wave execution).
//
// ingest_contract loads execution: compute-bound calls to per-sender
// mixer contracts, per-patient writes to one shared record contract and
// a few transfers, over a small ledger. ingest_ledger loads state
// commitment: 256-tx blocks of transfers and dataset anchors among a
// large premined population, no VM work.
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "chain/block.hpp"
#include "chain/block_validator.hpp"
#include "chain/execution/dag.hpp"
#include "chain/execution/executor.hpp"
#include "chain/node.hpp"
#include "chain/vm_hook.hpp"
#include "chain/wallet.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/sha256.hpp"
#include "vm/assembler.hpp"

namespace bench {
namespace {

using namespace mc;

constexpr std::size_t kThreads = 4;

// Mixer (the C8 shape): selector 1 runs calldata[1] rounds of an
// LCG/xorshift mix over calldata[2] and folds the result into storage[1].
// One deployment per sender, so calls of distinct senders commute.
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

// Patient record contract: the same mix, folded into storage[H(7,
// calldata[3])] — one cell per patient id on ONE shared contract, so its
// storage grows with the number of distinct patients written.
const char* kRecordSource = R"(
PUSH 0
CALLDATALOAD
PUSH 1
EQ
JUMPI @work
REVERT
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
PUSH 7
PUSH 3
CALLDATALOAD
HASHN 2
DUP 1
SLOAD
DUP 3
ADD
SWAP 1
SSTORE
POP
STOP
)";

struct Size {
  std::size_t accounts = 0;       ///< premined (funded) population
  std::size_t blocks = 0;         ///< measured blocks per episode
  std::size_t min_blocks = 0;     ///< per run, over all episodes
  std::size_t txs_per_block = 0;
  // ingest_contract
  std::size_t patients = 0;       ///< record-contract patient population
  std::size_t payees = 0;         ///< transfer recipients (not senders)
  vm::Word mix_rounds = 0;
  double transfer_share = 0;
  double record_share = 0;
  // ingest_ledger
  double anchor_share = 0;
};

Size size_for(bool contracts, bool tiny) {
  Size s;
  if (contracts) {
    s.accounts = tiny ? 8 : 48;
    s.blocks = tiny ? 4 : 100;
    s.min_blocks = tiny ? 0 : 100;
    s.txs_per_block = tiny ? 16 : 96;
    s.patients = 10'000;
    s.payees = tiny ? 50 : 1'000;
    s.mix_rounds = 1'000;
    s.transfer_share = 0.15;
    s.record_share = 0.40;
  } else {
    s.accounts = tiny ? 2'000 : 100'000;
    s.blocks = tiny ? 4 : 50;
    s.min_blocks = tiny ? 0 : 100;
    s.txs_per_block = tiny ? 64 : 256;
    s.anchor_share = 0.10;
  }
  return s;
}

constexpr chain::Gas kCallGasLimit = 100'000;
constexpr chain::Gas kDeployGasLimit = 100'000;

/// Both nodes, their stores and the shared pool. Heap-allocated and never
/// moved: the nodes hold pointers to the hooks, the hooks to the stores.
struct Pipeline {
  explicit Pipeline(const chain::ChainParams& params, std::uint64_t seed)
      : validator(&pool, 8, /*batch_verify=*/true, seed),
        proposer_hook(proposer_store),
        validator_hook(validator_store),
        proposer(crypto::key_from_seed("bench-proposer-" + std::to_string(seed)),
                 params, chain::make_genesis("medchain-bench", params.pow_target),
                 &proposer_hook),
        validator_node(
            crypto::key_from_seed("bench-validator-" + std::to_string(seed)),
            params, chain::make_genesis("medchain-bench", params.pow_target),
            &validator_hook) {
    chain::exec::ExecutionConfig exec;
    exec.workers = kThreads;
    exec.pool = &pool;
    for (chain::Node* node : {&proposer, &validator_node}) {
      node->set_execution(exec);
      node->set_validator(&validator);
    }
  }

  ThreadPool pool{kThreads};
  chain::BlockValidator validator;
  vm::ContractStore proposer_store;
  vm::ContractStore validator_store;
  chain::VmExecutionHook proposer_hook;
  chain::VmExecutionHook validator_hook;
  chain::Node proposer;
  chain::Node validator_node;
  std::vector<chain::Block> blocks;  ///< every connected block, in order
};

/// Generated inputs of one episode: params (premine), the wallets and one
/// signed tx batch per measured block.
struct Inputs {
  chain::ChainParams params;
  std::vector<chain::Wallet> wallets;
  std::vector<std::vector<chain::Transaction>> batches;
  vm::Word record_id = 0;
};

struct Digests {
  Hash256 ledger{};
  Hash256 contracts{};
  friend bool operator==(const Digests& a, const Digests& b) {
    return a.ledger == b.ledger && a.contracts == b.contracts;
  }
};

/// Timings of one ingested block.
struct BlockTimes {
  double submit_s = 0;
  double propose_s = 0;
  double commit_s = 0;
  std::size_t txs = 0;
};

std::uint64_t block_time_ms(chain::Height h) { return h * 1'000; }

/// Submit → propose → validator receive → proposer connect, with checks.
/// `validator_receive` is the validator step: the real Node, or the
/// traced re-drive.
template <class ValidatorStep>
BlockTimes ingest_block(Pipeline& p, const std::vector<chain::Transaction>& txs,
                        const Options& opts, bool corrupt_here, Report& report,
                        Tracer* tracer, ValidatorStep&& validator_receive) {
  BlockTimes t;
  const chain::Height h = p.proposer.height() + 1;
  const auto start = Clock::now();
  for (const chain::Transaction& tx : txs) {
    report.attempt();
    std::optional<Scope> s;
    if (tracer != nullptr) s.emplace(*tracer, "mempool.submit", h);
    const bool accepted = p.proposer.submit(tx);
    s.reset();
    report.check(accepted, "proposer rejected a submitted tx");
  }
  t.submit_s = seconds_since(start);

  if (tracer != nullptr) {
    // Re-drive of propose()'s first step against the same state.
    Scope s(*tracer, "mempool.select", h);
    (void)p.proposer.mempool().select(p.proposer.state(), p.proposer.params(),
                                      p.proposer.params().max_block_txs);
  }
  const auto propose_start = Clock::now();
  chain::Block block;
  {
    std::optional<Scope> s;
    if (tracer != nullptr) s.emplace(*tracer, "node.propose", h);
    block = p.proposer.propose(block_time_ms(h));
  }
  t.propose_s = seconds_since(propose_start);
  t.txs = block.txs.size();
  report.attempt();
  report.check(block.txs.size() == txs.size(),
               "block at height " + std::to_string(h) +
                   " left out submitted txs");
  if (corrupt_here && opts.corrupt == Corrupt::StateRoot)
    block.header.state_root.data[0] ^= 1;

  const auto commit_start = Clock::now();
  if (!(corrupt_here && opts.corrupt == Corrupt::SkipBlock))
    validator_receive(block);
  t.commit_s = seconds_since(commit_start);

  chain::BlockVerdict own;
  {
    std::optional<Scope> s;
    if (tracer != nullptr) s.emplace(*tracer, "node.receive", h);
    own = p.proposer.receive(block);
  }
  report.check(own == chain::BlockVerdict::Accepted,
               "proposer did not connect its own block at height " +
                   std::to_string(h));
  p.blocks.push_back(block);
  return t;
}

/// Real validator step: Node::receive.
auto node_receive(Pipeline& p, Report& report) {
  return [&p, &report](const chain::Block& block) {
    const chain::BlockVerdict v = p.validator_node.receive(block);
    report.check(v == chain::BlockVerdict::Accepted,
                 "validator verdict not Accepted at height " +
                     std::to_string(block.header.height));
  };
}

/// Workload generation + premine + pipeline build + deployment.
std::unique_ptr<Pipeline> setup(const Options& opts, bool contracts,
                                const Size& size, Inputs& in, Report& report) {
  Rng rng(opts.seed ^ (contracts ? 0xc0417ac7ULL : 0x1ed9e4ULL));
  in = Inputs{};
  in.params.consensus = chain::ConsensusKind::Pbft;
  in.wallets.reserve(size.accounts);
  in.params.premine.reserve(size.accounts);
  const std::string tag = std::to_string(opts.seed) + "-";
  for (std::size_t i = 0; i < size.accounts; ++i) {
    in.wallets.push_back(
        chain::Wallet::from_seed("bench-account-" + tag + std::to_string(i)));
    in.params.premine.emplace_back(in.wallets.back().address(),
                                   1'000'000'000'000ULL);
  }
  auto p = std::make_unique<Pipeline>(in.params, opts.seed);

  // Deployment block (ingest_contract): one mixer per sender plus the
  // shared record contract, through the same submit/propose/receive loop.
  std::vector<vm::Word> mixer_ids;
  if (contracts) {
    std::vector<chain::Transaction> deploys;
    for (chain::Wallet& w : in.wallets)
      deploys.push_back(w.deploy(vm::assemble(kMixerSource), kDeployGasLimit));
    deploys.push_back(
        in.wallets[0].deploy(vm::assemble(kRecordSource), kDeployGasLimit));
    Report setup_report;
    ingest_block(*p, deploys, opts, false, setup_report, nullptr,
                 node_receive(*p, setup_report));
    report.check(setup_report.correct(), "deployment block failed");
    for (std::size_t i = 0; i < size.accounts; ++i) {
      const auto id = p->proposer_hook.contract_id_of(deploys[i].id());
      report.check(id.has_value(), "mixer deployment missing");
      mixer_ids.push_back(id.value_or(0));
    }
    const auto rid = p->proposer_hook.contract_id_of(deploys.back().id());
    report.check(rid.has_value(), "record deployment missing");
    in.record_id = rid.value_or(0);
  }

  // Transfers in ingest_contract pay passive (unfunded) accounts.
  std::vector<chain::Address> payees;
  for (std::size_t i = 0; i < size.payees; ++i)
    payees.push_back(crypto::address_of(
        crypto::key_from_seed("bench-payee-" + tag + std::to_string(i)).pub));

  // Measured blocks: one signed batch each.
  in.batches.resize(size.blocks);
  std::size_t round_robin = 0;
  for (std::size_t b = 0; b < size.blocks; ++b) {
    auto& batch = in.batches[b];
    batch.reserve(size.txs_per_block);
    if (contracts) {
      for (std::size_t t = 0; t < size.txs_per_block; ++t) {
        const std::size_t u = round_robin++ % size.accounts;
        chain::Wallet& w = in.wallets[u];
        const double r = rng.uniform01();
        const vm::Word salt = rng.next();
        if (r < size.transfer_share) {
          batch.push_back(w.transfer(payees[rng.uniform(payees.size())],
                                     1 + rng.uniform(1'000)));
        } else if (r < size.transfer_share + size.record_share) {
          batch.push_back(w.call(in.record_id,
                                 {1, size.mix_rounds, salt,
                                  rng.uniform(size.patients)},
                                 kCallGasLimit));
        } else {
          batch.push_back(
              w.call(mixer_ids[u], {1, size.mix_rounds, salt}, kCallGasLimit));
        }
      }
    } else {
      // Distinct senders per block; recipients anywhere in the population.
      std::unordered_set<std::size_t> used;
      while (batch.size() < size.txs_per_block) {
        const std::size_t u = rng.uniform(size.accounts);
        if (!used.insert(u).second) continue;
        chain::Wallet& w = in.wallets[u];
        if (rng.bernoulli(size.anchor_share)) {
          Hash256 digest;
          for (auto& byte : digest.data)
            byte = static_cast<std::uint8_t>(rng.next());
          batch.push_back(w.anchor(digest));
        } else {
          batch.push_back(w.transfer(
              in.wallets[rng.uniform(size.accounts)].address(),
              1 + rng.uniform(1'000)));
        }
      }
    }
  }
  return p;
}

Digests digests_of(const chain::Node& node, const vm::ContractStore& store) {
  return Digests{node.state().digest(), store.digest()};
}

/// Reference: a fresh sequential (workers = 1) BlockExecutor replay of the
/// connected blocks. Fills `seq_ms` with the per-block execute time of
/// the measured blocks (those after `skip` setup blocks).
Digests sequential_replay(const Inputs& in, const std::vector<chain::Block>& blocks,
                          std::size_t skip, std::vector<double>* seq_ms) {
  vm::ContractStore store;
  chain::VmExecutionHook hook(store);
  chain::exec::BlockExecutor executor(in.params, &hook);
  chain::WorldState state;
  for (const auto& [addr, amount] : in.params.premine)
    state.credit(addr, amount);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const auto start = Clock::now();
    const auto res = executor.execute_block(state, blocks[i], nullptr,
                                            /*sigs_prechecked=*/true);
    if (seq_ms != nullptr && i >= skip)
      seq_ms->push_back(seconds_since(start) * 1e3);
    if (!res.ok) return Digests{};
  }
  return Digests{state.digest(), store.digest()};
}

/// Hook whose block checkpoint (ContractStore::snapshot) is a span.
class TracedHook : public chain::VmExecutionHook {
 public:
  TracedHook(vm::ContractStore& store, Tracer& tracer)
      : VmExecutionHook(store), tracer_(tracer) {}
  void on_block_connected(chain::Height height) override {
    Scope s(tracer_, "contracts.snapshot", height, parent);
    VmExecutionHook::on_block_connected(height);
  }
  std::int64_t parent = -1;

 private:
  Tracer& tracer_;
};

/// The traced validator: Node::receive's direct-extension path re-driven
/// through each layer's public call, each call a span.
class ShadowValidator {
 public:
  ShadowValidator(const chain::ChainParams& params,
                  const chain::BlockValidator& validator, Tracer& tracer)
      : validator_(validator),
        tracer_(tracer),
        hook_(store_, tracer),
        executor_(params, &hook_),
        footprints_(&store_) {
    for (const auto& [addr, amount] : params.premine)
      state_.credit(addr, amount);
  }
  // The executor and the footprint provider point into this object.
  ShadowValidator(const ShadowValidator&) = delete;
  ShadowValidator& operator=(const ShadowValidator&) = delete;

  void set_execution(const chain::exec::ExecutionConfig& config) {
    executor_.set_config(config);
  }

  /// True when the block connects and its state_root matches ours.
  bool receive(const chain::Block& block) {
    const chain::Height h = block.header.height;
    // Sub-steps of validate / execute_block timed on their own, outside
    // the receive span (they repeat work the receive span also does).
    {
      Scope s(tracer_, "validator.tx_root", h);
      (void)validator_.compute_tx_root(block);
    }
    std::vector<chain::TxFootprint> fps;
    {
      Scope s(tracer_, "exec.footprint", h);
      fps.reserve(block.txs.size());
      for (const chain::Transaction& tx : block.txs)
        fps.push_back(footprints_.footprint(tx, h));
    }
    {
      Scope s(tracer_, "exec.dag", h);
      (void)chain::exec::build_tx_dag(fps);
    }

    Scope recv(tracer_, "shadow.receive", h);
    bool ok = true;
    {
      Scope s(tracer_, "validator.validate", h, recv.id());
      ok = validator_.validate(block).ok();
    }
    chain::WorldState next;
    {
      Scope s(tracer_, "state.copy", h, recv.id());
      next = state_;
    }
    {
      Scope s(tracer_, "exec.execute_block", h, recv.id());
      hook_.parent = s.id();
      std::vector<chain::TxReceipt> receipts;
      ok = ok && executor_.execute_block(next, block, &receipts,
                                         /*sigs_prechecked=*/true)
                     .ok;
    }
    Hash256 ledger;
    {
      Scope s(tracer_, "state.digest", h, recv.id());
      ledger = next.digest();
    }
    Hash256 contracts;
    {
      Scope s(tracer_, "contracts.digest", h, recv.id());
      contracts = store_.digest();
    }
    if (!ok || crypto::sha256_pair(ledger, contracts) != block.header.state_root) {
      store_.rollback_to(h - 1);  // as Node::receive: no partial effects
      return false;
    }
    state_ = std::move(next);
    return true;
  }

  [[nodiscard]] Digests digests() const {
    return Digests{state_.digest(), store_.digest()};
  }
  [[nodiscard]] const chain::exec::BlockExecMetrics& metrics() const {
    return executor_.metrics();
  }

 private:
  const chain::BlockValidator& validator_;
  Tracer& tracer_;
  vm::ContractStore store_;
  TracedHook hook_;
  chain::exec::BlockExecutor executor_;
  chain::exec::FootprintProvider footprints_;
  chain::WorldState state_;
};

struct Episode {
  std::vector<double> commit_ms;
  std::vector<double> propose_ms;
  double ingest_s = 0;       ///< submit + propose + validator receive
  std::uint64_t committed = 0;
  Digests validator{};
  std::uint64_t digests = 0;  ///< Sha256 digest-count delta
  chain::NodeCounters validator_counters;
  chain::exec::BlockExecMetrics exec;
  std::size_t accounts = 0;
  std::size_t anchors = 0;
  std::size_t record_cells = 0;
  std::size_t events = 0;
};

/// Drive the measured blocks of one episode. With a tracer, the
/// validator is the traced re-drive instead of the validator Node.
Episode run_episode(Pipeline& p, const Inputs& in, const Options& opts,
                    Report& report, Tracer* tracer, ShadowValidator* shadow) {
  Episode ep;
  const std::size_t corrupt_at = in.batches.size() / 2;
  const std::uint64_t digests_before = crypto::Sha256::digest_count();
  std::vector<chain::TxId> submitted;
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    std::vector<chain::Transaction> txs = in.batches[b];
    const bool corrupt_here = b == corrupt_at;
    if (corrupt_here && opts.corrupt == Corrupt::MissingReceipt) {
      // Valid signature, nonce far ahead: the mempool takes it, no block
      // ever can.
      txs.push_back(chain::make_transfer(in.wallets[0].key(),
                                         in.wallets[0].address(), 1,
                                         in.wallets[0].next_nonce() + 1'000));
    }
    for (const auto& tx : txs) submitted.push_back(tx.id());
    BlockTimes t;
    if (shadow != nullptr) {
      t = ingest_block(p, txs, opts, corrupt_here, report, tracer,
                       [&](const chain::Block& block) {
                         report.check(shadow->receive(block),
                                      "traced re-drive disagrees with the "
                                      "proposer's state_root at height " +
                                          std::to_string(block.header.height));
                       });
    } else {
      t = ingest_block(p, txs, opts, corrupt_here, report, nullptr,
                       node_receive(p, report));
      report.check(p.validator_node.tip() == p.proposer.tip(),
                   "validator tip differs from the proposer's at block " +
                       std::to_string(b));
    }
    ep.commit_ms.push_back(t.commit_s * 1e3);
    ep.propose_ms.push_back(t.propose_s * 1e3);
    ep.ingest_s += t.submit_s + t.propose_s + t.commit_s;
    ep.committed += t.txs;
  }
  ep.digests = crypto::Sha256::digest_count() - digests_before;

  if (shadow == nullptr) {
    if (opts.corrupt == Corrupt::StateDrift)
      p.validator_node.mutable_state().credit(in.wallets[0].address(), 1);
    for (const chain::TxId& id : submitted)
      report.check(p.validator_node.receipt(id).has_value(),
                   "submitted tx has no receipt on the validator");
    ep.validator = digests_of(p.validator_node, p.validator_store);
    report.check(ep.validator == digests_of(p.proposer, p.proposer_store),
                 "validator and proposer end in different states");
    ep.validator_counters = p.validator_node.counters();
    ep.exec = p.validator_node.executor().metrics();
  } else {
    for (const chain::TxId& id : submitted)
      report.check(p.proposer.receipt(id).has_value(),
                   "submitted tx has no receipt on the proposer");
    ep.validator = shadow->digests();
    report.check(ep.validator == digests_of(p.proposer, p.proposer_store),
                 "traced re-drive and proposer end in different states");
    ep.exec = shadow->metrics();
  }
  const chain::Node& node = shadow == nullptr ? p.validator_node : p.proposer;
  const vm::ContractStore& store =
      shadow == nullptr ? p.validator_store : p.proposer_store;
  ep.accounts = node.state().account_count();
  ep.anchors = node.state().anchors().size();
  if (const vm::DeployedContract* c = store.contract(in.record_id))
    ep.record_cells = c->storage.size();
  ep.events = store.events().size();
  return ep;
}

double ms_per(double seconds, std::size_t n) {
  return ratio(seconds * 1e3, static_cast<double>(n));
}

}  // namespace

void run_ingest(const Options& opts, bool contracts, Report& report,
                Tracer& tracer) {
  const Size size = size_for(contracts, opts.tiny);
  const std::size_t setup_blocks = contracts ? 1 : 0;
  std::vector<double> setup_s;
  std::vector<double> commit_ms;
  std::vector<double> propose_ms;
  double ingest_s = 0;
  std::uint64_t committed = 0;
  std::optional<Digests> reference;
  std::optional<Episode> first;
  std::vector<double> seq_ms;

  // Episodes repeat until the run has its minimum of blocks, then while
  // another one of the same length still fits in --seconds, so a run does
  // not overshoot. A traced run stops at the minimum, then adds one
  // traced episode.
  const auto run_start = Clock::now();
  while (true) {
    const auto episode_start = Clock::now();
    // setup_s is a median: the first episode's pipeline is built five
    // times (the first four are dropped), later episodes build their own.
    Inputs in;
    std::unique_ptr<Pipeline> p;
    const int setups = setup_s.empty() && !opts.trace ? 5 : 1;
    for (int i = 0; i < setups; ++i) {
      p.reset();
      const auto setup_start = Clock::now();
      p = setup(opts, contracts, size, in, report);
      setup_s.push_back(seconds_since(setup_start));
    }

    Episode ep = run_episode(*p, in, opts, report, nullptr, nullptr);
    commit_ms.insert(commit_ms.end(), ep.commit_ms.begin(), ep.commit_ms.end());
    propose_ms.insert(propose_ms.end(), ep.propose_ms.begin(),
                      ep.propose_ms.end());
    ingest_s += ep.ingest_s;
    committed += ep.committed;

    if (!reference.has_value()) {
      // Every episode replays the same seed, so one reference serves all.
      reference = sequential_replay(in, p->blocks, setup_blocks,
                                    opts.trace ? &seq_ms : nullptr);
    }
    report.check(ep.validator == *reference,
                 "final ledger/contract digests differ from the workers=1 "
                 "reference replay");
    if (!first.has_value()) first = ep;

    if (commit_ms.size() >= size.min_blocks &&
        (opts.trace || seconds_since(run_start) +
                               seconds_since(episode_start) >
                           opts.seconds))
      break;
  }

  if (opts.trace) {
    // Traced episode: same seed, fresh pipeline, the validator step
    // re-driven through the layers' public calls.
    Inputs in;
    std::unique_ptr<Pipeline> p = setup(opts, contracts, size, in, report);
    ShadowValidator shadow(in.params, p->validator, tracer);
    chain::exec::ExecutionConfig exec;
    exec.workers = kThreads;
    exec.pool = &p->pool;
    shadow.set_execution(exec);
    if (contracts) {
      report.check(shadow.receive(p->blocks.front()),
                   "traced re-drive rejected the deployment block");
      tracer.clear();  // spans cover the measured blocks only
    }
    const Episode traced = run_episode(*p, in, opts, report, &tracer, &shadow);
    report.check(traced.validator == *reference,
                 "traced run ended in different digests than the untraced "
                 "run");
  }

  if (!opts.trace) {
    report.metric("setup_s", quantile(setup_s, 0.5), "s");
    report.metric("latency_ms_p50", quantile(commit_ms, 0.5), "ms");
    report.metric("latency_ms_p90", quantile(commit_ms, 0.9), "ms");
    report.metric("throughput_per_s",
                  ratio(static_cast<double>(committed), ingest_s), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Per-layer metrics from the traced episode (spans), the untraced
  // episodes (end-to-end, the overhead's reference) and the first of them
  // (counters).
  const Episode& ep = *first;
  const std::size_t blocks = size.blocks;
  const std::size_t txs = ep.committed;
  const double receive_s = tracer.total("node.receive");
  const double covered = tracer.total("validator.validate") +
                         tracer.total("state.copy") +
                         tracer.total("exec.execute_block") +
                         tracer.total("state.digest") +
                         tracer.total("contracts.digest");
  const double exec_ms = ms_per(tracer.total("exec.execute_block"), blocks);
  const double seq = mean(seq_ms);
  const auto& m = ep.exec;
  const double ideal = m.ideal_speedup();
  const double realized = ratio(seq, exec_ms);

  report.metric("block_commit_ms_p50", quantile(commit_ms, 0.5), "ms");
  report.metric("block_commit_ms_p90", quantile(commit_ms, 0.9), "ms");
  report.metric("block_propose_ms_p50", quantile(propose_ms, 0.5), "ms");
  report.metric("ingest_tx_per_s",
                ratio(static_cast<double>(committed), ingest_s), "tx/s");
  report.metric("mempool.submit_us_per_tx",
                ratio(tracer.total("mempool.submit") * 1e6,
                      static_cast<double>(tracer.count("mempool.submit"))),
                "us");
  report.metric("mempool.select_ms", ms_per(tracer.total("mempool.select"), blocks), "ms");
  report.metric("validator.validate_ms",
                ms_per(tracer.total("validator.validate"), blocks), "ms");
  report.metric("validator.tx_root_ms",
                ms_per(tracer.total("validator.tx_root"), blocks), "ms");
  report.metric("state.copy_ms", ms_per(tracer.total("state.copy"), blocks), "ms");
  report.metric("state.digest_ms", ms_per(tracer.total("state.digest"), blocks), "ms");
  report.metric("state.accounts", static_cast<double>(ep.accounts), "count");
  report.metric("state.anchors", static_cast<double>(ep.anchors), "count");
  report.metric("exec.footprint_us_per_tx",
                ratio(tracer.total("exec.footprint") * 1e6,
                      static_cast<double>(txs)),
                "us");
  report.metric("exec.dag_ms", ms_per(tracer.total("exec.dag"), blocks), "ms");
  report.metric("exec.execute_block_ms", exec_ms, "ms");
  report.metric("exec.execute_block_seq_ms", seq, "ms");
  report.metric("exec.realized_speedup", realized, "ratio");
  report.metric("exec.ideal_speedup", ideal, "ratio");
  report.metric("exec.realized_over_ideal", ratio(realized, ideal), "ratio");
  report.metric("exec.waves", static_cast<double>(m.waves), "count");
  report.metric("exec.dag_edges", static_cast<double>(m.dag_edges), "count");
  report.metric("exec.parallel_txs", static_cast<double>(m.parallel_txs), "count");
  report.metric("exec.sequential_txs", static_cast<double>(m.sequential_txs), "count");
  report.metric("exec.aborts", static_cast<double>(m.aborts), "count");
  report.metric("exec.reruns", static_cast<double>(m.reruns), "count");
  report.metric("exec.abort_ratio",
                ratio(static_cast<double>(m.aborts),
                      static_cast<double>(m.parallel_txs + m.aborts)),
                "ratio");
  report.metric("exec.gas", static_cast<double>(ep.validator_counters.gas_executed), "count");
  report.metric("contracts.digest_ms",
                ms_per(tracer.total("contracts.digest"), blocks), "ms");
  report.metric("contracts.snapshot_ms",
                ms_per(tracer.total("contracts.snapshot"), blocks), "ms");
  report.metric("contracts.record_cells", static_cast<double>(ep.record_cells), "count");
  report.metric("contracts.events", static_cast<double>(ep.events), "count");
  report.metric("crypto.digests", static_cast<double>(ep.digests), "count");
  report.metric("validator.sigs_checked",
                static_cast<double>(ep.validator_counters.sig_verifications), "count");
  report.metric("node.receive_ms", ms_per(receive_s, blocks), "ms");
  report.metric("trace.receive_coverage", ratio(covered, receive_s), "ratio");
  report.metric("trace.overhead",
                ratio(quantile(tracer.durations("shadow.receive"), 0.5),
                      quantile(commit_ms, 0.5) / 1e3) - 1.0,
                "ratio");
}

}  // namespace bench
