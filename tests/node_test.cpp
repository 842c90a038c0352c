// Full-node tests: block production, validation, fork choice, the
// duplicated-execution property.
#include <gtest/gtest.h>

#include <memory>

#include "chain/node.hpp"
#include "chain/pow.hpp"

namespace mc::chain {
namespace {

struct Harness {
  crypto::PrivateKey alice = crypto::key_from_seed("alice");
  crypto::PrivateKey bob = crypto::key_from_seed("bob");
  ChainParams params;
  Block genesis;

  Harness() {
    params.consensus = ConsensusKind::Pbft;  // no PoW check in receive()
    params.premine = {{crypto::address_of(alice.pub), 10'000'000},
                      {crypto::address_of(bob.pub), 10'000'000}};
    genesis = make_genesis("node-test", params.pow_target);
  }

  [[nodiscard]] Node make_node(const std::string& who) const {
    return Node(crypto::key_from_seed(who), params, genesis);
  }
};

TEST(Node, PremineVisibleAtGenesis) {
  Harness h;
  Node node = h.make_node("n0");
  EXPECT_EQ(node.state().balance(crypto::address_of(h.alice.pub)),
            10'000'000u);
  EXPECT_EQ(node.height(), 0u);
}

TEST(Node, ProposeIncludesMempoolAndCommits) {
  Harness h;
  Node node = h.make_node("n0");
  const Transaction tx =
      make_transfer(h.alice, crypto::address_of(h.bob.pub), 500, 0);
  EXPECT_TRUE(node.submit(tx));
  EXPECT_FALSE(node.submit(tx));  // duplicate rejected

  const Block block = node.propose(1'000);
  ASSERT_EQ(block.txs.size(), 1u);
  EXPECT_EQ(node.receive(block), BlockVerdict::Accepted);
  EXPECT_EQ(node.height(), 1u);
  EXPECT_TRUE(node.tx_committed(tx.id()));
  EXPECT_EQ(node.state().balance(crypto::address_of(h.bob.pub)),
            10'000'500u);
  EXPECT_TRUE(node.mempool().empty());
}

TEST(Node, SubmitChargesExactlyOneSignatureCheck) {
  Harness h;
  Node node = h.make_node("n0");
  Transaction forged =
      make_transfer(h.alice, crypto::address_of(h.bob.pub), 500, 0);
  forged.amount = 501;  // the signature covers the old amount
  EXPECT_FALSE(node.submit(forged));
  EXPECT_EQ(node.counters().sig_verifications, 1u);
  EXPECT_TRUE(node.mempool().empty());

  EXPECT_TRUE(node.submit(
      make_transfer(h.alice, crypto::address_of(h.bob.pub), 500, 0)));
  EXPECT_EQ(node.counters().sig_verifications, 2u);
}

TEST(Node, RejectsCorruptBlocks) {
  Harness h;
  Node node = h.make_node("n0");
  node.submit(make_transfer(h.alice, crypto::address_of(h.bob.pub), 1, 0));
  Block block = node.propose(1'000);

  Block bad_root = block;
  bad_root.txs.push_back(
      make_transfer(h.bob, crypto::address_of(h.alice.pub), 1, 0));
  EXPECT_EQ(node.receive(bad_root), BlockVerdict::Invalid);

  Block bad_height = block;
  bad_height.header.height = 9;
  bad_height.header.tx_root = bad_height.compute_tx_root();
  EXPECT_EQ(node.receive(bad_height), BlockVerdict::Invalid);

  EXPECT_EQ(node.receive(block), BlockVerdict::Accepted);
  EXPECT_EQ(node.receive(block), BlockVerdict::Duplicate);
}

TEST(Node, BlockWithInvalidTxRejectedEntirely) {
  Harness h;
  Node producer = h.make_node("producer");
  Node verifier = h.make_node("verifier");
  // Hand-craft a block holding an unaffordable transfer.
  Transaction bad;
  {
    const auto pauper = crypto::key_from_seed("pauper");
    bad = make_transfer(pauper, crypto::address_of(h.bob.pub), 1'000'000, 0);
  }
  Block block = producer.propose(1'000);
  block.txs.push_back(bad);
  block.header.tx_root = block.compute_tx_root();
  EXPECT_EQ(verifier.receive(block), BlockVerdict::Invalid);
  EXPECT_EQ(verifier.height(), 0u);
}

TEST(Node, OrphanHeldUntilParentArrives) {
  Harness h;
  Node producer = h.make_node("producer");
  Node late = h.make_node("late");

  producer.submit(
      make_transfer(h.alice, crypto::address_of(h.bob.pub), 1, 0));
  const Block b1 = producer.propose(1'000);
  ASSERT_EQ(producer.receive(b1), BlockVerdict::Accepted);
  const Block b2 = producer.propose(2'000);
  ASSERT_EQ(producer.receive(b2), BlockVerdict::Accepted);

  // Deliver out of order to the late node.
  EXPECT_EQ(late.receive(b2), BlockVerdict::Orphan);
  EXPECT_EQ(late.height(), 0u);
  EXPECT_EQ(late.receive(b1), BlockVerdict::Accepted);
  EXPECT_EQ(late.height(), 2u);  // orphan retried automatically
  EXPECT_EQ(late.tip(), b2.id());
}

TEST(Node, OrphanPoolEvictsOldestAtCap) {
  Harness h;
  h.params.max_orphans = 3;
  Node producer = h.make_node("producer");
  Node late = h.make_node("late");

  std::vector<Block> blocks;
  for (int i = 1; i <= 6; ++i) {
    blocks.push_back(producer.propose(i * 1'000));
    ASSERT_EQ(producer.receive(blocks.back()), BlockVerdict::Accepted);
  }

  // Feed blocks 2..6 (parents missing): the pool caps at 3, evicting the
  // oldest arrivals first.
  for (std::size_t i = 1; i < blocks.size(); ++i)
    EXPECT_EQ(late.receive(blocks[i]), BlockVerdict::Orphan);
  EXPECT_EQ(late.orphan_count(), 3u);
  EXPECT_EQ(late.counters().orphans_evicted, 2u);

  // Block 1 connects only the survivors (4,5,6): blocks 2 and 3 were
  // evicted, so the chain stops at height 1 until they are re-fetched —
  // exactly the gap SyncManager exists to fill.
  EXPECT_EQ(late.receive(blocks[0]), BlockVerdict::Accepted);
  EXPECT_EQ(late.height(), 1u);
  EXPECT_EQ(late.receive(blocks[1]), BlockVerdict::Accepted);
  EXPECT_EQ(late.receive(blocks[2]), BlockVerdict::Accepted);
  EXPECT_EQ(late.height(), 6u);  // cached orphans 4..6 retried through
  EXPECT_EQ(late.orphan_count(), 0u);
}

TEST(Node, DuplicateOrphanNotStoredTwice) {
  Harness h;
  Node producer = h.make_node("producer");
  Node late = h.make_node("late");
  ASSERT_EQ(producer.receive(producer.propose(1'000)), BlockVerdict::Accepted);
  const Block b2 = producer.propose(2'000);

  EXPECT_EQ(late.receive(b2), BlockVerdict::Orphan);
  EXPECT_EQ(late.receive(b2), BlockVerdict::Orphan);  // gossip duplicate
  EXPECT_EQ(late.orphan_count(), 1u);
  EXPECT_EQ(late.counters().orphans_evicted, 0u);
}

TEST(Node, LongerForkWinsReorg) {
  Harness h;
  Node node = h.make_node("n0");
  Node fork_builder = h.make_node("n1");

  // Main chain: one block with a transfer.
  node.submit(make_transfer(h.alice, crypto::address_of(h.bob.pub), 100, 0));
  const Block main1 = node.propose(1'000);
  ASSERT_EQ(node.receive(main1), BlockVerdict::Accepted);
  const Amount bob_after_main =
      node.state().balance(crypto::address_of(h.bob.pub));
  EXPECT_EQ(bob_after_main, 10'000'100u);

  // Competing fork (different proposer => different blocks): two blocks.
  const Block fork1 = fork_builder.propose(1'500);
  ASSERT_EQ(fork_builder.receive(fork1), BlockVerdict::Accepted);
  const Block fork2 = fork_builder.propose(2'500);
  ASSERT_EQ(fork_builder.receive(fork2), BlockVerdict::Accepted);

  // Node sees the fork: first block is a side chain, second triggers reorg.
  EXPECT_EQ(node.receive(fork1), BlockVerdict::AcceptedSide);
  EXPECT_EQ(node.receive(fork2), BlockVerdict::Accepted);
  EXPECT_EQ(node.height(), 2u);
  EXPECT_EQ(node.tip(), fork2.id());
  // The reorged-out transfer is undone.
  EXPECT_EQ(node.state().balance(crypto::address_of(h.bob.pub)),
            10'000'000u);
  EXPECT_FALSE(node.tx_committed(
      make_transfer(h.alice, crypto::address_of(h.bob.pub), 100, 0).id()));
}

TEST(Node, DuplicatedExecutionYieldsIdenticalState) {
  // The property the paper's transform exploits: since every node runs
  // every transaction, all honest nodes end in the same state.
  Harness h;
  std::vector<Node> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(h.make_node("n" + std::to_string(i)));

  Node& producer = nodes[0];
  for (std::uint64_t n = 0; n < 10; ++n)
    producer.submit(
        make_transfer(h.alice, crypto::address_of(h.bob.pub), 10 + n, n));
  const Block block = producer.propose(1'000);

  for (auto& node : nodes)
    EXPECT_EQ(node.receive(block), BlockVerdict::Accepted);
  const Hash256 reference = nodes[0].state().digest();
  std::uint64_t total_executed = 0;
  for (auto& node : nodes) {
    EXPECT_EQ(node.state().digest(), reference);
    total_executed += node.counters().txs_executed;
  }
  // 10 unique transactions, 5 nodes -> 50 executions: 5x duplication.
  EXPECT_EQ(total_executed, 50u);
}

TEST(Node, PowProductionGrindsAndValidates) {
  Harness h;
  h.params.consensus = ConsensusKind::ProofOfWork;
  h.params.pow_target = ~0ULL / 4;  // easy
  Node miner(crypto::key_from_seed("miner"), h.params,
             make_genesis("pow-test", h.params.pow_target));
  const auto mined = miner.produce_pow(1'000, 100'000);
  ASSERT_TRUE(mined.has_value());
  EXPECT_TRUE(meets_target(mined->id(), h.params.pow_target));
  EXPECT_GT(miner.counters().hash_attempts, 0u);
  EXPECT_EQ(miner.receive(*mined), BlockVerdict::Accepted);

  // A PoW node rejects blocks that miss the target.
  Block fake = miner.propose(2'000);
  fake.header.target = 0;  // impossible target recorded in header
  bool found_invalid = false;
  if (!meets_target(fake.id(), fake.header.target)) {
    EXPECT_EQ(miner.receive(fake), BlockVerdict::Invalid);
    found_invalid = true;
  }
  EXPECT_TRUE(found_invalid);
}

TEST(Node, ReceiptsTrackCommittedTransactions) {
  Harness h;
  Node node = h.make_node("n0");
  const Transaction t0 =
      make_transfer(h.alice, crypto::address_of(h.bob.pub), 10, 0);
  const Transaction t1 =
      make_transfer(h.alice, crypto::address_of(h.bob.pub), 20, 1);
  node.submit(t0);
  node.submit(t1);
  ASSERT_EQ(node.receive(node.propose(1'000)), BlockVerdict::Accepted);

  const auto r0 = node.receipt(t0.id());
  const auto r1 = node.receipt(t1.id());
  ASSERT_TRUE(r0.has_value() && r1.has_value());
  EXPECT_EQ(r0->height, 1u);
  EXPECT_EQ(r0->gas_used, h.params.transfer_gas);
  EXPECT_NE(r0->index, r1->index);  // distinct in-block positions
  EXPECT_FALSE(node.receipt(crypto::sha256("ghost")).has_value());
}

TEST(Node, ReceiptsVanishAfterReorg) {
  Harness h;
  Node node = h.make_node("n0");
  Node fork_builder = h.make_node("n1");

  const Transaction tx =
      make_transfer(h.alice, crypto::address_of(h.bob.pub), 100, 0);
  node.submit(tx);
  ASSERT_EQ(node.receive(node.propose(1'000)), BlockVerdict::Accepted);
  ASSERT_TRUE(node.receipt(tx.id()).has_value());

  // A longer empty fork reorgs the transfer out; its receipt disappears.
  const std::uint64_t sigs = node.counters().sig_verifications;
  for (int i = 0; i < 2; ++i) {
    const Block fb = fork_builder.propose(1'500 + 1'000 * i);
    ASSERT_EQ(fork_builder.receive(fb), BlockVerdict::Accepted);
    node.receive(fb);
  }
  EXPECT_EQ(node.height(), 2u);
  EXPECT_FALSE(node.receipt(tx.id()).has_value());

  // The reorged-out transfer is back in the mempool (its signature
  // checked once more), and the node's next block commits it.
  EXPECT_TRUE(node.mempool().contains(tx.id()));
  EXPECT_EQ(node.counters().sig_verifications, sigs + 1);
  const Block next = node.propose(3'000);
  ASSERT_EQ(next.txs.size(), 1u);
  ASSERT_EQ(node.receive(next), BlockVerdict::Accepted);
  EXPECT_TRUE(node.receipt(tx.id()).has_value());
  EXPECT_FALSE(node.mempool().contains(tx.id()));
}

TEST(Node, AnchorTransactionsReachState) {
  Harness h;
  Node node = h.make_node("n0");
  const Hash256 digest = crypto::sha256("site-dataset");
  Transaction tx;
  tx.kind = TxKind::Anchor;
  tx.payload = Bytes(digest.data.begin(), digest.data.end());
  tx.gas_limit = 50'000;
  tx.sign_with(h.alice);
  ASSERT_TRUE(node.submit(tx));
  const Block block = node.propose(1'000);
  ASSERT_EQ(node.receive(block), BlockVerdict::Accepted);
  EXPECT_TRUE(node.state().anchored(crypto::address_of(h.alice.pub), digest));
}

}  // namespace
}  // namespace mc::chain
