// Lightning-channel and sharding baseline tests (§I comparisons).
#include <gtest/gtest.h>

#include "chain/lightning.hpp"
#include "chain/sharding.hpp"

namespace mc::chain {
namespace {

TEST(Lightning, ChannelLifecycleConservesValue) {
  const auto alice = crypto::key_from_seed("alice");
  const auto bob = crypto::key_from_seed("bob");
  PaymentChannel channel(alice, bob, 1'000, 500);
  EXPECT_EQ(channel.latest().balance_a + channel.latest().balance_b, 1'500u);

  EXPECT_TRUE(channel.pay(200));   // A -> B
  EXPECT_TRUE(channel.pay(-50));   // B -> A
  EXPECT_EQ(channel.latest().balance_a, 850u);
  EXPECT_EQ(channel.latest().balance_b, 650u);
  EXPECT_EQ(channel.latest().balance_a + channel.latest().balance_b, 1'500u);
  EXPECT_EQ(channel.offchain_payments(), 2u);
  EXPECT_EQ(channel.latest().revision, 2u);
}

TEST(Lightning, OverdraftRefused) {
  const auto alice = crypto::key_from_seed("alice");
  const auto bob = crypto::key_from_seed("bob");
  PaymentChannel channel(alice, bob, 100, 0);
  EXPECT_FALSE(channel.pay(101));
  EXPECT_FALSE(channel.pay(-1));  // B holds nothing
  EXPECT_TRUE(channel.pay(100));
  EXPECT_EQ(channel.latest().balance_a, 0u);
}

TEST(Lightning, UpdatesAreMutuallySigned) {
  const auto alice = crypto::key_from_seed("alice");
  const auto bob = crypto::key_from_seed("bob");
  PaymentChannel channel(alice, bob, 500, 500);
  channel.pay(123);
  EXPECT_TRUE(channel.update_valid(channel.latest()));

  ChannelUpdate forged = channel.latest();
  forged.balance_a += 100;  // unilateral edit invalidates both sigs
  EXPECT_FALSE(channel.update_valid(forged));
}

TEST(Lightning, CloseSettlesOnChainAndFreezesChannel) {
  const auto alice = crypto::key_from_seed("alice");
  const auto bob = crypto::key_from_seed("bob");
  PaymentChannel channel(alice, bob, 300, 300);
  channel.pay(100);
  const Transaction settle = channel.close();
  EXPECT_TRUE(settle.verify_signature());
  EXPECT_EQ(channel.phase(), ChannelPhase::Closed);
  EXPECT_FALSE(channel.pay(10));  // no payments after close
  EXPECT_TRUE(channel.funding_tx().verify_signature());
}

TEST(Lightning, LedgerReductionFactor) {
  // 10'000 payments over 20 channels: ledger sees 40 txs instead of
  // 10'000 — a 250x reduction, but each on-chain tx is still validated
  // by every node (duplicated computing remains).
  const auto cmp = compare_lightning(10'000, 20, 100);
  EXPECT_EQ(cmp.onchain_txs_lightning, 40u);
  EXPECT_DOUBLE_EQ(cmp.ledger_reduction_factor, 250.0);
  EXPECT_EQ(cmp.validations_lightning, 4'000u);  // 40 txs x 100 nodes
  EXPECT_EQ(cmp.validations_plain, 1'000'000u);
}

struct ShardFixture {
  crypto::PrivateKey keys[6];
  ShardFixture() {
    for (int i = 0; i < 6; ++i)
      keys[i] = crypto::key_from_seed("acct-" + std::to_string(i));
  }
  [[nodiscard]] Address addr(int i) const {
    return crypto::address_of(keys[i].pub);
  }
};

TEST(Sharding, IntraAndCrossShardTransfers) {
  ShardFixture f;
  ShardedLedger ledger(4, 3);
  for (int i = 0; i < 6; ++i) ledger.credit(f.addr(i), 10'000'000);

  std::uint64_t nonces[6] = {};
  std::size_t intra = 0, cross = 0;
  for (int from = 0; from < 6; ++from) {
    for (int to = 0; to < 6; ++to) {
      if (from == to) continue;
      const Transaction tx = make_transfer(
          f.keys[from], f.addr(to), 100, nonces[from]++);
      ASSERT_TRUE(ledger.process(tx)) << from << "->" << to;
      if (ledger.shard_of(f.addr(from)) == ledger.shard_of(f.addr(to)))
        ++intra;
      else
        ++cross;
    }
  }
  EXPECT_EQ(ledger.stats().intra_shard_txs, intra);
  EXPECT_EQ(ledger.stats().cross_shard_txs, cross);
  // Value conserved: 6 accounts each sent 5x100 and received 5x100;
  // only fees drained.
  for (int i = 0; i < 6; ++i)
    EXPECT_LE(ledger.balance(f.addr(i)), 10'000'000u);
}

TEST(Sharding, ReplayRejectedAsDoubleSpend) {
  ShardFixture f;
  ShardedLedger ledger(2, 3);
  ledger.credit(f.addr(0), 1'000'000);
  const Transaction tx = make_transfer(f.keys[0], f.addr(1), 10, 0);
  EXPECT_TRUE(ledger.process(tx));
  EXPECT_TRUE(ledger.seen(tx.id()));
  EXPECT_FALSE(ledger.process(tx));  // replayed
  EXPECT_GE(ledger.stats().aborted, 1u);
}

TEST(Sharding, ValidationCountsShowParallelism) {
  // Same workload, sharded vs unsharded: per-tx validations drop from
  // total_nodes to nodes_per_shard for intra-shard traffic.
  ShardFixture f;
  ShardedLedger ledger(4, 2);
  ledger.credit(f.addr(0), 1'000'000);
  ledger.credit(f.addr(1), 1'000'000);
  std::uint64_t nonce = 0;
  for (int i = 0; i < 10; ++i)
    ledger.process(make_transfer(f.keys[0], f.addr(1), 1, nonce++));
  const auto& stats = ledger.stats();
  const std::uint64_t unsharded_validations = 10 * ledger.total_nodes();
  EXPECT_LT(stats.validations, unsharded_validations);
  // Cross-shard 2PC pays lock messages; intra pays none.
  if (stats.cross_shard_txs == 0) {
    EXPECT_EQ(stats.lock_messages, 0u);
  } else {
    EXPECT_GT(stats.lock_messages, 0u);
  }
}

TEST(Sharding, InsufficientFundsAborts) {
  ShardFixture f;
  ShardedLedger ledger(2, 2);
  ledger.credit(f.addr(0), 10);  // can't even cover gas
  EXPECT_FALSE(
      ledger.process(make_transfer(f.keys[0], f.addr(1), 1'000'000, 0)));
  EXPECT_GE(ledger.stats().aborted, 1u);
}

TEST(Sharding, InvalidConstruction) {
  EXPECT_THROW(ShardedLedger(0, 2), std::invalid_argument);
  EXPECT_THROW(ShardedLedger(2, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mc::chain
