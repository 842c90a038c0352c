// State commitment tests (DESIGN.md §16): the incremental account trie and
// anchor chain behind WorldState::digest() must equal the from-scratch
// reference (audit::reference_state_digest) after every mutation, on
// every hash backend; the per-block undo records must restore the
// commitment bit for bit; nodes must keep tip and root on a rejected block
// and converge through a deep reorg.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/chain_auditor.hpp"
#include "audit/state_reference.hpp"
#include "chain/node.hpp"
#include "chain/state.hpp"
#include "common/rng.hpp"
#include "crypto/sha256_batch.hpp"

namespace mc::chain {
namespace {

/// Force a backend for one scope and restore the previous one on exit.
class ScopedHashBackend {
 public:
  explicit ScopedHashBackend(crypto::HashBackend backend)
      : prev_(crypto::hash_backend()) {
    crypto::set_hash_backend(backend);
  }
  ~ScopedHashBackend() { crypto::set_hash_backend(prev_); }
  ScopedHashBackend(const ScopedHashBackend&) = delete;
  ScopedHashBackend& operator=(const ScopedHashBackend&) = delete;

 private:
  crypto::HashBackend prev_;
};

constexpr crypto::HashBackend kBackends[] = {
    crypto::HashBackend::kPortable, crypto::HashBackend::kSse2,
    crypto::HashBackend::kAvx2, crypto::HashBackend::kAuto};

/// Address pool with deliberately shared prefixes: random addresses plus
/// near-twins differing only in the last nibble or mid-way, so the trie
/// grows deep single-child branch chains and collapses them again.
std::vector<Address> address_pool(Rng& rng, std::size_t n) {
  std::vector<Address> pool;
  while (pool.size() < n) {
    Address a;
    for (auto& byte : a.data) byte = static_cast<std::uint8_t>(rng.next());
    pool.push_back(a);
    Address last_nibble = a;
    last_nibble.data[19] ^= 0x01;
    pool.push_back(last_nibble);
    Address mid = a;
    mid.data[7] ^= 0x30;
    pool.push_back(mid);
  }
  pool.resize(n);
  return pool;
}

Hash256 random_hash(Rng& rng) {
  Hash256 h;
  for (auto& byte : h.data) byte = static_cast<std::uint8_t>(rng.next());
  return h;
}

/// Plain model of the ledger the trie must agree with.
struct Model {
  std::map<Address, Account> accounts;
  std::vector<AnchorRecord> anchors;

  [[nodiscard]] bool anchored(const Address& owner, const Hash256& d) const {
    return std::any_of(anchors.begin(), anchors.end(),
                       [&](const AnchorRecord& r) {
                         return r.owner == owner && r.digest == d;
                       });
  }
};

void expect_matches(const WorldState& state, const Model& model,
                    const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(state.digest(), audit::reference_state_digest(state));
  ASSERT_EQ(state.account_count(), model.accounts.size());
  std::vector<std::pair<Address, Account>> seen;
  state.for_each_account([&](const Address& a, const Account& acct) {
    seen.emplace_back(a, acct);
  });
  ASSERT_TRUE(std::equal(seen.begin(), seen.end(), model.accounts.begin(),
                         model.accounts.end(),
                         [](const auto& x, const auto& y) {
                           return x.first == y.first && x.second == y.second;
                         }));
  ASSERT_EQ(state.anchors().size(), model.anchors.size());
}

void run_random_ops(std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Address> pool = address_pool(rng, 48);
  const auto pick = [&] { return pool[rng.uniform(pool.size())]; };

  WorldState state;
  Model model;
  std::optional<Model> saved;  // model when the open block record opened
  Height height = 0;           // label of the newest seal
  expect_matches(state, model, "empty");

  for (int step = 0; step < 250; ++step) {
    const std::string where = "step " + std::to_string(step);
    const std::uint64_t op = rng.uniform(8);
    if (op == 0 || op == 1) {
      const Address a = pick();
      const Amount amount = rng.bernoulli(0.3) ? 0 : rng.uniform(1'000);
      state.credit(a, amount);  // amount 0 still creates the account
      model.accounts[a].balance += amount;
    } else if (op == 2) {
      const Address a = pick();
      const Account acct{rng.uniform(1'000'000), rng.uniform(50)};
      state.set_account(a, acct);
      model.accounts[a] = acct;
    } else if (op == 3) {
      // A transaction-shaped batch: blind credits, a read-modify-write
      // of one account, maybe an anchor.
      for (int k = 0; k < 3; ++k) {
        const Address a = pick();
        const Amount amount = rng.uniform(3) == 0 ? 0 : rng.uniform(100);
        state.credit(a, amount);
        model.accounts[a].balance += amount;
      }
      const Address w = pick();
      Account acct = state.account(w);
      acct.nonce += 1;
      state.set_account(w, acct);
      model.accounts[w] = acct;
      if (rng.bernoulli(0.5)) {
        const AnchorRecord r{pick(), random_hash(rng), rng.uniform(100)};
        state.record_anchor(r.owner, r.digest, r.height);
        model.anchors.push_back(r);
      }
    } else if (op == 4) {
      // Re-anchoring an existing (owner, digest) exercises the index count.
      AnchorRecord r{pick(), random_hash(rng), rng.uniform(100)};
      if (!model.anchors.empty() && rng.bernoulli(0.3))
        r = model.anchors[rng.uniform(model.anchors.size())];
      state.record_anchor(r.owner, r.digest, r.height);
      model.anchors.push_back(r);
    } else if (op == 5) {
      if (!saved.has_value()) {
        state.open_block();
        saved = model;
      } else if (rng.bernoulli(0.6)) {
        state.rollback_to(height);  // undoes just the open record
        model = *saved;
        saved.reset();
      } else {
        state.seal_block(++height);
        saved.reset();
      }
    } else if (op == 6) {
      // Copy, then let the copy diverge: both stay self-consistent.
      WorldState copy = state;
      Model copy_model = model;
      const Address a = pick();
      copy.credit(a, 7);
      copy_model.accounts[a].balance += 7;
      expect_matches(copy, copy_model, where + " (copy)");
      if (saved.has_value()) {
        copy.rollback_to(height);  // the copy carries the open record
        expect_matches(copy, *saved, where + " (copy rolled back)");
      }
    } else {
      (void)state.digest();  // settle the cache mid-sequence
    }
    // Check after some steps only, so several mutations (new accounts
    // splitting leaves that are themselves still unhashed) pile up
    // between digests.
    if (rng.bernoulli(0.3)) expect_matches(state, model, where);
    for (int k = 0; k < 3; ++k) {
      const Address owner = pick();
      const Hash256 d = model.anchors.empty() || rng.bernoulli(0.5)
                            ? random_hash(rng)
                            : model.anchors[rng.uniform(model.anchors.size())]
                                  .digest;
      ASSERT_EQ(state.anchored(owner, d), model.anchored(owner, d)) << where;
    }
  }
}

TEST(StateCommitment, IncrementalEqualsReferenceOnEveryBackend) {
  for (const crypto::HashBackend backend : kBackends) {
    ScopedHashBackend scoped(backend);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)) +
                   " seed " + std::to_string(seed));
      run_random_ops(seed);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(StateCommitment, BackendsAgreeOnLargeTrie) {
  // Enough accounts that whole levels go through the SIMD lanes at once.
  Rng rng(0x7e1e);
  const std::vector<Address> pool = address_pool(rng, 3'000);
  std::vector<Hash256> roots;
  for (const crypto::HashBackend backend : kBackends) {
    ScopedHashBackend scoped(backend);
    WorldState state;
    for (std::size_t i = 0; i < pool.size(); ++i) state.credit(pool[i], i);
    roots.push_back(state.digest());
    EXPECT_EQ(roots.back(), audit::reference_state_digest(state));
  }
  for (const Hash256& r : roots) EXPECT_EQ(r, roots.front());
}

TEST(StateCommitment, RootIndependentOfInsertionOrderAndHistory) {
  Rng rng(0x0de7);
  std::vector<Address> pool = address_pool(rng, 200);
  WorldState forward;
  for (const Address& a : pool) forward.set_account(a, Account{a.data[0], 1});

  std::vector<Address> shuffled = pool;
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.uniform(i)]);
  WorldState backward;
  for (const Address& a : shuffled) {
    backward.credit(a, 99);  // history that must not show in the root
    (void)backward.digest();
    backward.set_account(a, Account{a.data[0], 1});
  }
  EXPECT_EQ(forward.digest(), backward.digest());

  // Accounts created and then rolled back away leave no trace either.
  backward.open_block();
  const std::vector<Address> extra = address_pool(rng, 30);
  for (const Address& a : extra) backward.credit(a, 0);
  EXPECT_NE(forward.digest(), backward.digest());  // present != absent
  backward.rollback_to(0);
  EXPECT_EQ(forward.digest(), backward.digest());
  EXPECT_EQ(backward.account_count(), pool.size());
}

TEST(StateCommitment, RollbackRestoresDigestAndAnchorsBitForBit) {
  Rng rng(0x4e7e);
  const std::vector<Address> pool = address_pool(rng, 64);
  WorldState state;
  for (std::size_t i = 0; i < 32; ++i) state.credit(pool[i], 1'000 + i);
  const Hash256 kept = random_hash(rng);
  state.record_anchor(pool[0], kept, 1);

  for (const bool digest_inside : {false, true}) {
    SCOPED_TRACE(digest_inside ? "digest inside the record" : "no digest");
    const Hash256 before = state.digest();
    const std::size_t accounts = state.account_count();
    state.open_block();
    for (std::size_t i = 16; i < 64; ++i) state.credit(pool[i], 5);
    state.set_account(pool[1], Account{0, 9});
    const Hash256 fresh = random_hash(rng);
    state.record_anchor(pool[2], fresh, 2);
    state.record_anchor(pool[0], kept, 2);  // duplicate of a kept anchor
    if (digest_inside) {
      EXPECT_NE(state.digest(), before);
    }
    EXPECT_TRUE(state.anchored(pool[2], fresh));
    state.rollback_to(0);

    EXPECT_EQ(state.digest(), before);
    EXPECT_EQ(state.digest(), audit::reference_state_digest(state));
    EXPECT_EQ(state.account_count(), accounts);
    EXPECT_EQ(state.anchors().size(), 1u);
    EXPECT_TRUE(state.anchored(pool[0], kept));
    EXPECT_FALSE(state.anchored(pool[2], fresh));
    EXPECT_EQ(state.account(pool[1]).balance, 1'001u);
    EXPECT_EQ(state.account(pool[40]), Account{});
  }
}

TEST(StateCommitment, RandomBlockHistoriesRollBackToSealedStates) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<Address> pool = address_pool(rng, 48);
    const auto pick = [&] { return pool[rng.uniform(pool.size())]; };

    // The premine: made with no record open, so never journaled.
    WorldState state;
    Model model;
    for (std::size_t i = 0; i < 8; ++i) {
      state.credit(pool[i], 1'000);
      model.accounts[pool[i]].balance += 1'000;
    }
    // Reachable seals, oldest first: the window's floor and its records.
    std::vector<std::pair<Height, Model>> seals{{0, model}};
    Height height = 0;

    for (int step = 0; step < 300; ++step) {
      const std::string where = "step " + std::to_string(step);
      if (seals.size() == 1 || rng.uniform(4) != 0) {
        state.open_block();
        for (std::uint64_t n = 1 + rng.uniform(6); n > 0; --n) {
          const Address a = pick();
          if (rng.uniform(3) == 0) {
            const Account acct{rng.uniform(1'000'000), rng.uniform(50)};
            state.set_account(a, acct);
            model.accounts[a] = acct;
          } else if (rng.uniform(4) == 0) {
            const AnchorRecord r{a, random_hash(rng), height + 1};
            state.record_anchor(r.owner, r.digest, r.height);
            model.anchors.push_back(r);
          } else {
            const Amount amount = rng.uniform(3) == 0 ? 0 : rng.uniform(100);
            state.credit(a, amount);
            model.accounts[a].balance += amount;
          }
          if (rng.uniform(5) == 0) (void)state.digest();
        }
        if (rng.uniform(6) == 0) {
          state.rollback_to(height);  // a rejected block: drop the record
          model = seals.back().second;
        } else {
          state.seal_block(++height);
          seals.emplace_back(height, model);
          if (seals.size() > kUndoRecords + 1) {
            seals.erase(seals.begin());
            EXPECT_FALSE(state.can_rollback_to(seals.front().first - 1));
          }
        }
      } else {
        const std::size_t back = rng.uniform(seals.size());
        const Height label = seals[seals.size() - 1 - back].first;
        ASSERT_TRUE(state.can_rollback_to(label)) << where;
        state.rollback_to(label);
        seals.resize(seals.size() - back);
        model = seals.back().second;
        height = label;
      }
      EXPECT_TRUE(state.can_rollback_to(seals.front().first)) << where;
      expect_matches(state, model, where);
      for (const AnchorRecord& r : model.anchors)
        ASSERT_TRUE(state.anchored(r.owner, r.digest)) << where;
    }
  }
}

struct Harness {
  crypto::PrivateKey alice = crypto::key_from_seed("commit-alice");
  crypto::PrivateKey bob = crypto::key_from_seed("commit-bob");
  ChainParams params;
  Block genesis;

  Harness() {
    params.consensus = ConsensusKind::Pbft;
    params.premine = {{crypto::address_of(alice.pub), 10'000'000},
                      {crypto::address_of(bob.pub), 10'000'000}};
    genesis = make_genesis("state-commitment-test", params.pow_target);
  }

  [[nodiscard]] Node make_node(const std::string& who) const {
    return Node(crypto::key_from_seed(who), params, genesis);
  }
};

TEST(StateCommitment, BadStateRootLeavesTipAndRootUnchanged) {
  Harness h;
  Node node = h.make_node("commit-n0");
  const Address bob = crypto::address_of(h.bob.pub);
  ASSERT_TRUE(node.submit(make_transfer(h.alice, bob, 500, 0)));
  ASSERT_EQ(node.receive(node.propose(1'000)), BlockVerdict::Accepted);

  ASSERT_TRUE(node.submit(make_transfer(h.alice, bob, 700, 1)));
  const Block good = node.propose(2'000);
  Block bad = good;
  bad.header.state_root.data[0] ^= 0x01;

  const BlockId tip = node.tip();
  const Hash256 root = node.state().digest();
  const Amount bob_balance = node.state().balance(bob);
  EXPECT_EQ(node.receive(bad), BlockVerdict::Invalid);
  EXPECT_EQ(node.tip(), tip);
  EXPECT_EQ(node.height(), 1u);
  EXPECT_EQ(node.state().digest(), root);
  EXPECT_EQ(node.state().balance(bob), bob_balance);

  // The block's records closed cleanly: the honest block still connects.
  EXPECT_EQ(node.receive(good), BlockVerdict::Accepted);
  EXPECT_EQ(node.state().balance(bob), bob_balance + 700);
}

TEST(StateCommitment, TwentyBlockReorgConvergesOnTheForkState) {
  Harness h;
  Node node = h.make_node("commit-main");
  Node fork = h.make_node("commit-fork");
  const Address alice = crypto::address_of(h.alice.pub);
  const Address bob = crypto::address_of(h.bob.pub);
  Rng rng(0x2e06);

  // Main chain: 20 blocks of transfers, anchors and fresh accounts.
  for (std::uint64_t i = 0; i < 20; ++i) {
    Address fresh;
    for (auto& byte : fresh.data) byte = static_cast<std::uint8_t>(rng.next());
    ASSERT_TRUE(node.submit(make_transfer(h.alice, fresh, 10 + i, i)));
    Transaction anchor;
    anchor.kind = TxKind::Anchor;
    anchor.nonce = i;
    anchor.gas_limit = 50'000;
    const Hash256 d = random_hash(rng);
    anchor.payload = Bytes(d.data.begin(), d.data.end());
    anchor.sign_with(h.bob);
    ASSERT_TRUE(node.submit(anchor));
    ASSERT_EQ(node.receive(node.propose(1'000 * (i + 1))),
              BlockVerdict::Accepted);
  }
  ASSERT_EQ(node.height(), 20u);
  const std::size_t main_accounts = node.state().account_count();

  // Competing fork from genesis: 21 blocks of different transfers.
  std::vector<Block> fork_blocks;
  for (std::uint64_t i = 0; i < 21; ++i) {
    ASSERT_TRUE(fork.submit(make_transfer(h.bob, alice, 3 + i, i)));
    fork_blocks.push_back(fork.propose(1'500 + 1'000 * i));
    ASSERT_EQ(fork.receive(fork_blocks.back()), BlockVerdict::Accepted);
  }
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(node.receive(fork_blocks[i]), BlockVerdict::AcceptedSide);
  EXPECT_EQ(node.receive(fork_blocks[20]), BlockVerdict::Accepted);

  EXPECT_EQ(node.tip(), fork.tip());
  EXPECT_EQ(node.height(), 21u);
  EXPECT_EQ(node.state().digest(), fork.state().digest());
  EXPECT_EQ(node.state().digest(), audit::reference_state_digest(node.state()));
  EXPECT_LT(node.state().account_count(), main_accounts);
  EXPECT_TRUE(node.state().anchors().empty());
  EXPECT_EQ(node.state().balance(bob),
            fork.state().balance(bob));

  const audit::ChainAuditor auditor(h.params);
  const audit::AuditReport report = auditor.audit_node(node);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.blocks_checked, 22u);
}

}  // namespace
}  // namespace mc::chain
