// Blockchain substrate tests: transactions, blocks, state, mempool,
// PoW, PoS.
#include <gtest/gtest.h>

#include <tuple>

#include "chain/block.hpp"
#include "chain/mempool.hpp"
#include "chain/pos.hpp"
#include "chain/pow.hpp"
#include "chain/state.hpp"
#include "chain/transaction.hpp"
#include "crypto/sha256_batch.hpp"

namespace mc::chain {
namespace {

crypto::PrivateKey key_of(const std::string& who) {
  return crypto::key_from_seed(who);
}

TEST(Transaction, SignedRoundTrip) {
  const auto alice = key_of("alice");
  const auto bob = key_of("bob");
  Transaction tx = make_transfer(alice, crypto::address_of(bob.pub), 100, 0);
  EXPECT_TRUE(tx.verify_signature());

  const Transaction decoded = Transaction::decode(BytesView(tx.encode()));
  EXPECT_EQ(decoded.id(), tx.id());
  EXPECT_TRUE(decoded.verify_signature());
  EXPECT_EQ(decoded.amount, 100u);
  EXPECT_EQ(decoded.to, crypto::address_of(bob.pub));
}

TEST(Transaction, TamperBreaksSignature) {
  const auto alice = key_of("alice");
  Transaction tx =
      make_transfer(alice, crypto::address_of(key_of("bob").pub), 5, 0);
  tx.amount = 50'000;  // tamper after signing
  EXPECT_FALSE(tx.verify_signature());
}

TEST(Transaction, ForgedSenderRejected) {
  const auto alice = key_of("alice");
  Transaction tx =
      make_transfer(alice, crypto::address_of(key_of("bob").pub), 5, 0);
  tx.from = crypto::address_of(key_of("mallory").pub);  // claim other sender
  EXPECT_FALSE(tx.verify_signature());
}

TEST(Transaction, DecodeRejectsGarbage) {
  EXPECT_THROW(Transaction::decode(str_bytes("nonsense")), SerialError);
  Bytes bad{0x09};  // unknown kind
  bad.resize(200, 0);
  EXPECT_THROW(Transaction::decode(BytesView(bad)), SerialError);
}

TEST(Block, RoundTripAndTxRoot) {
  const auto alice = key_of("alice");
  Block block = make_genesis("test-chain", ~0ULL);
  block.header.height = 1;
  for (std::uint64_t n = 0; n < 5; ++n)
    block.txs.push_back(
        make_transfer(alice, crypto::address_of(key_of("bob").pub), 1, n));
  block.header.tx_root = block.compute_tx_root();
  EXPECT_TRUE(block.tx_root_valid());

  const Block decoded = Block::decode(BytesView(block.encode()));
  EXPECT_EQ(decoded.id(), block.id());
  EXPECT_EQ(decoded.txs.size(), 5u);
  EXPECT_TRUE(decoded.tx_root_valid());
}

TEST(Block, TxRootDetectsSwappedTransaction) {
  const auto alice = key_of("alice");
  Block block = make_genesis("test-chain", ~0ULL);
  block.txs.push_back(
      make_transfer(alice, crypto::address_of(key_of("bob").pub), 1, 0));
  block.header.tx_root = block.compute_tx_root();
  block.txs[0] =
      make_transfer(alice, crypto::address_of(key_of("eve").pub), 999, 0);
  EXPECT_FALSE(block.tx_root_valid());
}

TEST(Block, GenesisDeterministicPerTag) {
  EXPECT_EQ(make_genesis("a", 1).id(), make_genesis("a", 1).id());
  EXPECT_NE(make_genesis("a", 1).id(), make_genesis("b", 1).id());
}

TEST(WorldState, ApplyTransferMovesBalanceAndFee) {
  WorldState state;
  ChainParams params;
  const auto alice = key_of("alice");
  const auto bob_addr = crypto::address_of(key_of("bob").pub);
  const auto miner = crypto::address_of(key_of("miner").pub);
  state.credit(crypto::address_of(alice.pub), 1'000'000);

  const Transaction tx = make_transfer(alice, bob_addr, 1'000, 0);
  const ApplyResult r = state.apply(tx, miner, params);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.gas_used, params.transfer_gas);
  EXPECT_EQ(state.balance(bob_addr), 1'000u);
  EXPECT_EQ(state.balance(miner), params.transfer_gas * tx.gas_price);
  EXPECT_EQ(state.nonce(crypto::address_of(alice.pub)), 1u);
}

TEST(WorldState, RejectsBadNonceAndInsufficientFunds) {
  WorldState state;
  ChainParams params;
  const auto alice = key_of("alice");
  const auto bob_addr = crypto::address_of(key_of("bob").pub);
  state.credit(crypto::address_of(alice.pub), 30'000);

  EXPECT_FALSE(state.apply(make_transfer(alice, bob_addr, 1, 5), {}, params).ok);
  // amount + max fee exceeds balance
  EXPECT_FALSE(
      state.apply(make_transfer(alice, bob_addr, 20'000, 0), {}, params).ok);
}

TEST(WorldState, AnchorRecordedAndQueryable) {
  WorldState state;
  ChainParams params;
  const auto site = key_of("hospital");
  state.credit(crypto::address_of(site.pub), 1'000'000);

  const Hash256 digest = crypto::sha256("dataset-v1");
  Transaction tx;
  tx.kind = TxKind::Anchor;
  tx.payload = Bytes(digest.data.begin(), digest.data.end());
  tx.gas_limit = 30'000;
  tx.sign_with(site);
  ASSERT_TRUE(state.apply(tx, {}, params).ok);
  state.record_anchor(tx.from, digest, 7);
  EXPECT_TRUE(state.anchored(tx.from, digest));
  EXPECT_FALSE(state.anchored(tx.from, crypto::sha256("other")));
}

TEST(WorldState, AnchorPayloadMustBeDigestSized) {
  WorldState state;
  ChainParams params;
  const auto site = key_of("hospital");
  state.credit(crypto::address_of(site.pub), 1'000'000);
  Transaction tx;
  tx.kind = TxKind::Anchor;
  tx.payload = to_bytes("short");
  tx.gas_limit = 30'000;
  tx.sign_with(site);
  EXPECT_FALSE(state.validate(tx, params).ok);
}

TEST(WorldState, DigestReflectsState) {
  WorldState a, b;
  EXPECT_EQ(a.digest(), b.digest());
  a.credit(crypto::address_of(key_of("x").pub), 5);
  EXPECT_NE(a.digest(), b.digest());
  b.credit(crypto::address_of(key_of("x").pub), 5);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Mempool, FeePriorityRespectingNonces) {
  WorldState state;
  ChainParams params;
  const auto alice = key_of("alice");
  const auto bob = key_of("bob");
  const auto target = crypto::address_of(key_of("t").pub);
  state.credit(crypto::address_of(alice.pub), 10'000'000);
  state.credit(crypto::address_of(bob.pub), 10'000'000);

  Mempool pool;
  // Alice: nonce 0 at fee 1, nonce 1 at fee 10 (can't jump the queue).
  EXPECT_TRUE(pool.add(make_transfer(alice, target, 1, 0, 1)));
  EXPECT_TRUE(pool.add(make_transfer(alice, target, 1, 1, 10)));
  // Bob: nonce 0 at fee 5.
  EXPECT_TRUE(pool.add(make_transfer(bob, target, 1, 0, 5)));

  const auto selected = pool.select(state, params, 10);
  ASSERT_EQ(selected.size(), 3u);
  // Bob's fee-5 tx beats Alice's fee-1; Alice's fee-10 is gated by her
  // fee-1 predecessor.
  EXPECT_EQ(selected[0].from, crypto::address_of(bob.pub));
  EXPECT_EQ(selected[1].from, crypto::address_of(alice.pub));
  EXPECT_EQ(selected[1].nonce, 0u);
  EXPECT_EQ(selected[2].nonce, 1u);
}

TEST(Mempool, SkipsNonceGapsAndDuplicates) {
  WorldState state;
  ChainParams params;
  const auto alice = key_of("alice");
  const auto target = crypto::address_of(key_of("t").pub);
  state.credit(crypto::address_of(alice.pub), 10'000'000);

  Mempool pool;
  const Transaction tx0 = make_transfer(alice, target, 1, 0);
  EXPECT_TRUE(pool.add(tx0));
  EXPECT_FALSE(pool.add(tx0));  // duplicate
  EXPECT_TRUE(pool.add(make_transfer(alice, target, 1, 2)));  // gap at 1

  const auto selected = pool.select(state, params, 10);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].nonce, 0u);
}

TEST(Mempool, RejectsBadSignatureAndHonorsRemoval) {
  WorldState state;
  ChainParams params;
  const auto alice = key_of("alice");
  const auto target = crypto::address_of(key_of("t").pub);
  state.credit(crypto::address_of(alice.pub), 10'000'000);

  Mempool pool;
  Transaction forged = make_transfer(alice, target, 1, 0);
  forged.amount = 2;
  EXPECT_FALSE(pool.add(forged));

  const Transaction good = make_transfer(alice, target, 1, 0);
  EXPECT_TRUE(pool.add(good));
  pool.remove({good});
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, RespectsMaxAndBudget) {
  WorldState state;
  ChainParams params;
  const auto alice = key_of("alice");
  const auto target = crypto::address_of(key_of("t").pub);
  state.credit(crypto::address_of(alice.pub), 100'000'000);

  Mempool pool;
  for (std::uint64_t n = 0; n < 20; ++n)
    pool.add(make_transfer(alice, target, 1, n));
  EXPECT_EQ(pool.select(state, params, 7).size(), 7u);
}

TEST(Pow, TargetSemantics) {
  Hash256 h{};
  EXPECT_TRUE(meets_target(h, 0));  // zero prefix <= any target
  h.data[0] = 0xff;
  EXPECT_FALSE(meets_target(h, 1'000'000));
  EXPECT_TRUE(meets_target(h, ~0ULL));
}

TEST(Pow, MiningFindsNonceAtEasyTarget) {
  BlockHeader header;
  header.target = ~0ULL / 16;  // 1-in-16 hashes succeed
  const MineResult result = mine(header, 10'000);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(meets_target(header.id(), header.target));
  EXPECT_GE(result.attempts, 1u);
}

TEST(Pow, MiningRespectsAttemptBudget) {
  BlockHeader header;
  header.target = 1;  // essentially impossible
  const MineResult result = mine(header, 50);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.attempts, 50u);
}

TEST(Pow, MiningIsBackendIndependent) {
  // The lane sweep scans nonces in the same logical order on every
  // backend, so found/nonce/attempts are bit-for-bit identical whether
  // the grind ran scalar or 8 lanes wide (DESIGN.md §15).
  const auto grind = [](crypto::HashBackend backend) {
    crypto::set_hash_backend(backend);
    BlockHeader header;
    header.height = 9;
    header.target = ~0ULL / 64;  // 1-in-64 hashes succeed
    const MineResult result = mine(header, 10'000, 5);
    return std::tuple(result.found, result.nonce, result.attempts,
                      header.nonce, header.id());
  };
  const auto portable = grind(crypto::HashBackend::kPortable);
  const auto simd = grind(crypto::HashBackend::kSimd);
  crypto::set_hash_backend(crypto::HashBackend::kAuto);
  ASSERT_TRUE(std::get<0>(portable));
  EXPECT_EQ(portable, simd);
}

TEST(Pow, ExpectedAttemptsInverseInTarget) {
  EXPECT_GT(expected_attempts(1'000), expected_attempts(1'000'000));
  EXPECT_NEAR(expected_attempts(~0ULL), 1.0, 1e-6);
}

TEST(Pow, RetargetMovesTowardDesired) {
  const std::uint64_t target = 1'000'000;
  // Blocks coming too slowly -> raise target (easier).
  EXPECT_GT(retarget(target, 20.0, 10.0), target);
  // Blocks too fast -> lower target (harder).
  EXPECT_LT(retarget(target, 5.0, 10.0), target);
  // Clamped to 4x per adjustment.
  EXPECT_EQ(retarget(target, 1000.0, 1.0), target * 4);
  EXPECT_EQ(retarget(target, 0.0, 10.0), target);  // degenerate input
}

TEST(Pow, RetargetFeedbackLoopConverges) {
  // Closed loop: a fixed network hash rate mines at whatever the target
  // allows; repeated retargeting must settle near the desired interval
  // regardless of the starting difficulty.
  constexpr double kHashRate = 1e6;   // hashes per second
  constexpr double kDesired = 10.0;   // seconds per block
  for (std::uint64_t target : {~0ULL / 1'000, ~0ULL / 1'000'000'000}) {
    for (int window = 0; window < 40; ++window) {
      const double interval = expected_attempts(target) / kHashRate;
      target = retarget(target, interval, kDesired);
    }
    const double final_interval = expected_attempts(target) / kHashRate;
    EXPECT_NEAR(final_interval, kDesired, kDesired * 0.25)
        << "start target " << target;
  }
}

TEST(Pos, SelectionDeterministicAndStakeWeighted) {
  StakeRegistry registry;
  const auto whale = crypto::address_of(key_of("whale").pub);
  const auto shrimp = crypto::address_of(key_of("shrimp").pub);
  registry.bond(whale, 900);
  registry.bond(shrimp, 100);
  EXPECT_DOUBLE_EQ(registry.win_probability(whale), 0.9);

  const Hash256 seed = crypto::sha256("epoch");
  EXPECT_EQ(registry.select_proposer(seed, 1),
            registry.select_proposer(seed, 1));

  int whale_wins = 0;
  constexpr int kSlots = 2'000;
  for (int h = 0; h < kSlots; ++h)
    if (registry.select_proposer(seed, static_cast<Height>(h)) == whale)
      ++whale_wins;
  EXPECT_NEAR(static_cast<double>(whale_wins) / kSlots, 0.9, 0.03);
}

TEST(Pos, BondUnbondLifecycle) {
  StakeRegistry registry;
  const auto v = crypto::address_of(key_of("v").pub);
  registry.bond(v, 50);
  EXPECT_EQ(registry.stake_of(v), 50u);
  registry.bond(v, 75);  // overwrite
  EXPECT_EQ(registry.stake_of(v), 75u);
  EXPECT_EQ(registry.total_stake(), 75u);
  registry.unbond(v);
  EXPECT_EQ(registry.stake_of(v), 0u);
  EXPECT_THROW((void)registry.select_proposer(crypto::sha256("s"), 0),
               std::logic_error);
}

}  // namespace
}  // namespace mc::chain
