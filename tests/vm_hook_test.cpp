// On-chain contract execution tests: Deploy/Call transactions executed
// through the node's ExecutionHook, cross-node determinism, reorg
// rollback of contract state through the per-block undo records.
#include <gtest/gtest.h>

#include <map>

#include "chain/node.hpp"
#include "chain/vm_hook.hpp"
#include "chain/wallet.hpp"
#include "common/rng.hpp"
#include "contracts/abi.hpp"
#include "contracts/policy.hpp"
#include "vm/assembler.hpp"

namespace mc::chain {
namespace {

// A tiny counter contract: selector 1 increments storage[1] by
// calldata[1], selector 2 returns it.
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

struct ChainWithVm {
  crypto::PrivateKey user = crypto::key_from_seed("user");
  ChainParams params;
  vm::ContractStore store;
  VmExecutionHook hook{store};
  Block genesis = make_genesis("vm-chain", ~0ULL);
  Node node;

  ChainWithVm() : node(make_node("solo")) {}

  Node make_node(const std::string& who) {
    params.consensus = ConsensusKind::Pbft;
    params.premine = {{crypto::address_of(user.pub), 1'000'000'000}};
    return Node(crypto::key_from_seed(who), params, genesis, &hook);
  }

  /// Submit txs, produce a block, apply it; returns the verdict.
  BlockVerdict commit(const std::vector<Transaction>& txs,
                      std::uint64_t time_ms) {
    for (const auto& tx : txs) node.submit(tx);
    const Block block = node.propose(time_ms);
    return node.receive(block);
  }
};

TEST(VmHook, CallPayloadRoundTrip) {
  const Bytes payload = encode_call_payload(0xabc, {1, 2, 3});
  const auto decoded = decode_call_payload(BytesView(payload));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->contract_id, 0xabcu);
  EXPECT_EQ(decoded->calldata, (std::vector<vm::Word>{1, 2, 3}));
  EXPECT_FALSE(decode_call_payload(str_bytes("junk")).has_value());
}

TEST(VmHook, DeployThenCallOnChain) {
  ChainWithVm chain;
  const Transaction deploy =
      make_deploy(chain.user, vm::assemble(kCounterSource), 0);
  ASSERT_EQ(chain.commit({deploy}, 1'000), BlockVerdict::Accepted);

  const auto contract_id = chain.hook.contract_id_of(deploy.id());
  ASSERT_TRUE(contract_id.has_value());
  EXPECT_TRUE(chain.store.exists(*contract_id));

  // Two increments across two blocks.
  ASSERT_EQ(chain.commit({make_call(chain.user, *contract_id, {1, 5}, 1)},
                         2'000),
            BlockVerdict::Accepted);
  ASSERT_EQ(chain.commit({make_call(chain.user, *contract_id, {1, 7}, 2)},
                         3'000),
            BlockVerdict::Accepted);
  EXPECT_EQ(chain.store.contract(*contract_id)->storage.at(1), 12u);
  EXPECT_EQ(chain.node.height(), 3u);
  // Gas was charged for real execution on top of intrinsic cost.
  EXPECT_GT(chain.node.counters().gas_executed,
            3 * chain.params.transfer_gas);
}

TEST(VmHook, ProposerEvictsMalformedDeploy) {
  // The proposer's preview pass catches the failing deploy, evicts it
  // from the mempool, and falls back to a valid empty block.
  ChainWithVm chain;
  Transaction bad;
  bad.kind = TxKind::Deploy;
  bad.payload = {0xee, 0xee};  // not valid bytecode
  bad.gas_limit = 2'000'000;
  bad.sign_with(chain.user);
  ASSERT_TRUE(chain.node.submit(bad));
  const Block block = chain.node.propose(1'000);
  EXPECT_TRUE(block.txs.empty());  // evicted during preview
  EXPECT_TRUE(chain.node.mempool().empty());
  EXPECT_EQ(chain.node.receive(block), BlockVerdict::Accepted);
  EXPECT_EQ(chain.store.size(), 0u);  // nothing leaked
}

TEST(VmHook, ForeignBlockWithTrappedCallRejectedAndRolledBack) {
  ChainWithVm chain;
  const Transaction deploy =
      make_deploy(chain.user, vm::assemble(kCounterSource), 0);
  ASSERT_EQ(chain.commit({deploy}, 1'000), BlockVerdict::Accepted);
  const auto contract_id = *chain.hook.contract_id_of(deploy.id());

  // A malicious proposer hand-crafts a block holding a good call plus a
  // call into a nonexistent contract (bypassing the preview pass): the
  // block is invalid and neither call's effects survive.
  Block evil = chain.node.propose(2'000);
  evil.txs = {make_call(chain.user, contract_id, {1, 5}, 1),
              make_call(chain.user, 0xdead, {1}, 2)};
  evil.header.tx_root = evil.compute_tx_root();
  EXPECT_EQ(chain.node.receive(evil), BlockVerdict::Invalid);
  EXPECT_EQ(chain.node.height(), 1u);
  EXPECT_EQ(chain.store.contract(contract_id)->storage.count(1), 0u);
}

TEST(VmHook, LyingStateRootRejected) {
  // A block whose transactions all execute but whose claimed state_root
  // disagrees with the derived post-state must be rejected.
  ChainWithVm chain;
  const Transaction deploy =
      make_deploy(chain.user, vm::assemble(kCounterSource), 0);
  ASSERT_TRUE(chain.node.submit(deploy));
  Block block = chain.node.propose(1'000);
  ASSERT_EQ(block.txs.size(), 1u);
  block.header.state_root.data[0] ^= 0xff;  // lie about the outcome
  EXPECT_EQ(chain.node.receive(block), BlockVerdict::Invalid);
  EXPECT_EQ(chain.node.height(), 0u);
  EXPECT_EQ(chain.store.size(), 0u);
}

TEST(VmHook, EveryNodeReachesIdenticalContractState) {
  // The duplicated-execution determinism the paper's transform builds on,
  // now across full nodes executing Deploy/Call from blocks.
  crypto::PrivateKey user = crypto::key_from_seed("user");
  ChainParams params;
  params.consensus = ConsensusKind::Pbft;
  params.premine = {{crypto::address_of(user.pub), 1'000'000'000}};
  const Block genesis = make_genesis("multi-vm", ~0ULL);

  constexpr int kNodes = 4;
  std::vector<vm::ContractStore> stores(kNodes);
  std::vector<VmExecutionHook> hooks;
  std::vector<Node> nodes;
  for (int i = 0; i < kNodes; ++i) hooks.emplace_back(stores[i]);
  for (int i = 0; i < kNodes; ++i)
    nodes.emplace_back(crypto::key_from_seed("n" + std::to_string(i)), params,
                       genesis, &hooks[static_cast<std::size_t>(i)]);

  // Node 0 proposes: deploy the real policy contract, then grant+check.
  const Transaction deploy = make_deploy(
      user, contracts::PolicyContract::bytecode(), 0);
  nodes[0].submit(deploy);
  const Block b1 = nodes[0].propose(1'000);
  for (auto& node : nodes)
    ASSERT_EQ(node.receive(b1), BlockVerdict::Accepted);

  const auto contract_id = *hooks[0].contract_id_of(deploy.id());
  const vm::Word caller = fnv1a(BytesView(deploy.from.data));
  const Transaction reg =
      make_call(user, contract_id, contracts::encode_call(1, {0xd5}), 1);
  const Transaction grant = make_call(
      user, contract_id, contracts::encode_call(2, {0xd5, 0x20, 3}), 2);
  nodes[0].submit(reg);
  nodes[0].submit(grant);
  const Block b2 = nodes[0].propose(2'000);
  for (auto& node : nodes)
    ASSERT_EQ(node.receive(b2), BlockVerdict::Accepted);

  // Identical contract state everywhere.
  const Hash256 reference = stores[0].digest();
  for (int i = 1; i < kNodes; ++i) EXPECT_EQ(stores[i].digest(), reference);
  // And the grant is queryable on any replica.
  for (int i = 0; i < kNodes; ++i) {
    contracts::PolicyContract policy(stores[i], contract_id);
    EXPECT_EQ(policy.owner_of(0xd5), caller);
    EXPECT_TRUE(policy.check(0xd5, 0x20, 3));
  }
}

TEST(VmHook, ReorgRollsContractStateBack) {
  ChainWithVm chain;
  // Competing fork builder shares genesis but has its own store/hook.
  vm::ContractStore fork_store;
  VmExecutionHook fork_hook(fork_store);
  Node fork_builder(crypto::key_from_seed("forker"), chain.params,
                    chain.genesis, &fork_hook);

  // Main chain: deploy + increment to 5.
  const Transaction deploy =
      make_deploy(chain.user, vm::assemble(kCounterSource), 0);
  ASSERT_EQ(chain.commit({deploy}, 1'000), BlockVerdict::Accepted);
  const auto contract_id = *chain.hook.contract_id_of(deploy.id());
  ASSERT_EQ(chain.commit({make_call(chain.user, contract_id, {1, 5}, 1)},
                         2'000),
            BlockVerdict::Accepted);
  EXPECT_EQ(chain.store.contract(contract_id)->storage.at(1), 5u);

  // Fork: three empty blocks from genesis (longer chain, no contract).
  for (int i = 0; i < 3; ++i) {
    const Block fb = fork_builder.propose(1'500 + 1'000 * i);
    ASSERT_EQ(fork_builder.receive(fb), BlockVerdict::Accepted);
    const BlockVerdict verdict = chain.node.receive(fb);
    ASSERT_TRUE(verdict == BlockVerdict::Accepted ||
                verdict == BlockVerdict::AcceptedSide);
  }
  EXPECT_EQ(chain.node.height(), 3u);
  // The deploy and the increment were reorged out: contract is gone.
  EXPECT_FALSE(chain.store.exists(contract_id));
  EXPECT_FALSE(chain.hook.contract_id_of(deploy.id()).has_value());
}

// --- reorgs of every depth through the undo records ------------------------

/// A consortium member: a node over its own contract store.
struct Member {
  vm::ContractStore store;
  VmExecutionHook hook{store};
  Node node;

  Member(const std::string& who, const ChainParams& params,
         const Block& genesis)
      : node(crypto::key_from_seed(who), params, genesis, &hook) {}
};

/// One branch's signers and the contracts deployed on it so far.
struct BranchTxs {
  std::vector<Wallet> users;
  std::vector<vm::Word> contracts;
};

/// Grow `producer`'s chain by `n` blocks of 1-4 seeded transfers,
/// anchors, deploys and counter calls; `first` joins the first block.
void grow(Member& producer, BranchTxs& branch, Rng& rng, std::size_t n,
          std::vector<Block>& out,
          const std::optional<Transaction>& first = std::nullopt) {
  for (std::size_t b = 0; b < n; ++b) {
    std::size_t submitted = 0;
    if (b == 0 && first.has_value()) {
      ASSERT_TRUE(producer.node.submit(*first));
      ++submitted;
    }
    std::vector<Transaction> deploys;
    for (std::size_t t = 1 + rng.uniform(4); t > 0; --t) {
      Wallet& w = branch.users[rng.uniform(branch.users.size())];
      Transaction tx;
      switch (rng.uniform(4)) {
        case 0: {
          Address to;
          for (auto& byte : to.data)
            byte = static_cast<std::uint8_t>(rng.next());
          tx = w.transfer(to, 1 + rng.uniform(1'000));
          break;
        }
        case 1: {
          Hash256 digest;
          for (auto& byte : digest.data)
            byte = static_cast<std::uint8_t>(rng.next());
          tx = w.anchor(digest);
          break;
        }
        case 2:
          if (!branch.contracts.empty()) {
            tx = w.call(branch.contracts[rng.uniform(branch.contracts.size())],
                        {1, 1 + rng.uniform(9)});
            break;
          }
          [[fallthrough]];
        default:
          tx = w.deploy(vm::assemble(kCounterSource));
          deploys.push_back(tx);
      }
      ASSERT_TRUE(producer.node.submit(tx));
      ++submitted;
    }
    const Block block =
        producer.node.propose(1'000 * (producer.node.height() + 1));
    ASSERT_EQ(block.txs.size(), submitted);
    ASSERT_EQ(producer.node.receive(block), BlockVerdict::Accepted);
    for (const Transaction& d : deploys)
      branch.contracts.push_back(*producer.hook.contract_id_of(d.id()));
    out.push_back(block);
  }
}

std::size_t tx_count(const std::vector<Block>& blocks) {
  std::size_t n = 0;
  for (const Block& b : blocks) n += b.txs.size();
  return n;
}

/// Everything a reorg may change, compared bit for bit.
struct Observed {
  BlockId tip{};
  Hash256 ledger{};
  Hash256 contracts{};
  std::map<TxId, std::optional<TxReceipt>> receipts;

  Observed(const Member& m, const std::vector<std::vector<Block>*>& chains)
      : tip(m.node.tip()),
        ledger(m.node.state().digest()),
        contracts(m.store.digest()) {
    for (const auto* chain : chains)
      for (const Block& b : *chain)
        for (const Transaction& tx : b.txs)
          receipts[tx.id()] = m.node.receipt(tx.id());
  }

  friend bool operator==(const Observed& a, const Observed& b) {
    if (a.tip != b.tip || a.ledger != b.ledger || a.contracts != b.contracts)
      return false;
    for (const auto& [id, r] : a.receipts) {
      const std::optional<TxReceipt>& o = b.receipts.at(id);
      if (r.has_value() != o.has_value()) return false;
      if (r.has_value() && (r->height != o->height || r->index != o->index ||
                            r->gas_used != o->gas_used))
        return false;
    }
    return a.receipts.size() == b.receipts.size();
  }
};

TEST(VmHook, ReorgOfEveryDepthMatchesAFreshNodeOnTheWinningBranch) {
  constexpr std::size_t kPrefix = 3;
  for (const std::size_t k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 20}) {
    SCOPED_TRACE("depth " + std::to_string(k));
    Rng rng(0x5e0 + k);
    ChainParams params;
    params.consensus = ConsensusKind::Pbft;
    BranchTxs prefix;
    for (const char* who : {"ann", "ben", "cat"}) {
      prefix.users.push_back(Wallet::from_seed(who));
      params.premine.emplace_back(prefix.users.back().address(),
                                  1'000'000'000'000);
    }
    const Block genesis = make_genesis("reorg-depths", ~0ULL);
    Member main_producer("main", params, genesis);
    Member fork_producer("fork", params, genesis);
    Member reorged("reorged", params, genesis);
    Member fresh("fresh", params, genesis);

    // A common prefix, then two branches from it that share one tx: the
    // main branch of k blocks and a winning fork of k + 1.
    std::vector<Block> common, main_branch, fork_branch;
    grow(main_producer, prefix, rng, kPrefix, common);
    for (const Block& b : common)
      ASSERT_EQ(fork_producer.node.receive(b), BlockVerdict::Accepted);
    const Transaction shared =
        prefix.users[0].transfer(prefix.users[1].address(), 77);
    BranchTxs main_txs = prefix;
    BranchTxs fork_txs = prefix;
    grow(main_producer, main_txs, rng, k, main_branch, shared);
    grow(fork_producer, fork_txs, rng, k + 1, fork_branch, shared);
    ASSERT_FALSE(HasFatalFailure());

    for (const auto* chain : {&common, &main_branch})
      for (const Block& b : *chain)
        ASSERT_EQ(reorged.node.receive(b), BlockVerdict::Accepted);
    for (const auto* chain : {&common, &fork_branch})
      for (const Block& b : *chain)
        ASSERT_EQ(fresh.node.receive(b), BlockVerdict::Accepted);
    const std::vector<std::vector<Block>*> all = {&common, &main_branch,
                                                  &fork_branch};

    // A block preview seals and rewinds one block; it must not shorten
    // the undo window's reach.
    const Observed before(reorged, all);
    (void)reorged.node.propose(1'000 * (reorged.node.height() + 1));
    EXPECT_TRUE(Observed(reorged, all) == before);

    // The fork with a lying state_root at block j, at a seeded position
    // and at the last: nothing changes.
    for (const std::size_t j : {(5 * k) % (k + 1), k}) {
      std::vector<Block> lying = fork_branch;
      lying[j].header.state_root.data[0] ^= 0x01;
      for (std::size_t i = j + 1; i < lying.size(); ++i)
        lying[i].header.parent = lying[i - 1].id();
      for (std::size_t i = 0; i < k; ++i) {
        const BlockVerdict v = reorged.node.receive(lying[i]);
        ASSERT_TRUE(v == BlockVerdict::AcceptedSide ||
                    v == BlockVerdict::Duplicate);
      }
      EXPECT_EQ(reorged.node.receive(lying[k]), BlockVerdict::Invalid);
      EXPECT_TRUE(Observed(reorged, all) == before) << "bad block " << j;
    }

    // The honest fork wins. Within the undo window only its blocks
    // execute; past it, the whole winning chain replays from genesis.
    (void)reorged.node.propose(1'000 * (reorged.node.height() + 1));
    const std::uint64_t executed = reorged.node.counters().txs_executed;
    for (std::size_t i = 0; i < k; ++i) {
      const BlockVerdict v = reorged.node.receive(fork_branch[i]);
      ASSERT_TRUE(v == BlockVerdict::AcceptedSide ||
                  v == BlockVerdict::Duplicate);
    }
    ASSERT_EQ(reorged.node.receive(fork_branch[k]), BlockVerdict::Accepted);
    const std::size_t expected =
        tx_count(fork_branch) + (k <= kUndoDepth ? 0 : tx_count(common));
    EXPECT_EQ(reorged.node.counters().txs_executed - executed, expected);
    EXPECT_TRUE(Observed(reorged, all) == Observed(fresh, all));
    EXPECT_EQ(reorged.node.best_chain(), fresh.node.best_chain());

    // Both stores' windows still agree: the next block connects.
    std::vector<Block> next;
    grow(fork_producer, fork_txs, rng, 1, next);
    ASSERT_EQ(reorged.node.receive(next[0]), BlockVerdict::Accepted);
    ASSERT_EQ(fresh.node.receive(next[0]), BlockVerdict::Accepted);
    EXPECT_TRUE(Observed(reorged, all) == Observed(fresh, all));
  }
}

}  // namespace
}  // namespace mc::chain
