// Property-based and fuzz-style tests across modules: VM robustness on
// arbitrary bytecode, serialization canonicality, supply conservation,
// mempool ordering invariants, PBFT liveness under random fault sets,
// VM arithmetic vs native semantics.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <vector>

#include "chain/mempool.hpp"
#include "chain/pbft.hpp"
#include "chain/transaction.hpp"
#include "common/rng.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "vm/analysis/analysis.hpp"
#include "vm/assembler.hpp"
#include "vm/vm.hpp"
#include "vm_differential.hpp"

namespace mc {
namespace {

// --- VM never crashes on arbitrary bytecode, and the lowered program
// --- agrees with the byte-at-a-time reference -------------------------

class VmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// Random limits around a typical run's budget, so some runs are charged
/// per run and others cross a limit mid-run and are metered.
vm::ExecContext random_context(Rng& rng) {
  vm::ExecContext ctx;
  ctx.contract_id = 11;
  ctx.caller = rng.next();
  ctx.call_value = rng.uniform(100);
  ctx.height = 44;
  ctx.time_ms = 55;
  ctx.gas_limit = rng.uniform(4) == 0 ? rng.uniform(400) : 20'000;
  ctx.step_limit = rng.uniform(4) == 0 ? rng.uniform(100) : 5'000;
  ctx.calldata = {1, 2, 3};
  return ctx;
}

TEST_P(VmFuzz, ArbitraryBytecodeIsSafe) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const Bytes code = rng.bytes(1 + rng.uniform(256));
    vm::Storage storage;
    storage[7] = 42;  // pre-existing state to protect
    const vm::Storage before = storage;

    const vm::ExecContext ctx = random_context(rng);
    vm::NullHost host;
    const vm::ExecResult result =
        vm::execute(BytesView(code), storage, ctx, host);
    vm::fold_writes(storage, result.writes);

    EXPECT_LE(result.gas_used, ctx.gas_limit);
    EXPECT_LE(result.steps, ctx.step_limit + 1);
    // Failed executions must not leak partial writes.
    if (!result.ok()) {
      EXPECT_TRUE(result.writes.empty());
      EXPECT_EQ(storage, before);
    }
  }
}

TEST_P(VmFuzz, DecodedProgramMatchesReference) {
  // Both instantiations: arbitrary bytes run checked (they are almost
  // never analyzer-clean, and analyzing them dominates the test's time);
  // structured programs run as lowered against their analysis, which
  // often proves them clean and drops the stack checks.
  Rng rng(GetParam() + 1000);
  std::size_t clean = 0;
  for (int round = 0; round < 400; ++round) {
    const bool structured = round % 2 == 1;
    const Bytes code =
        structured ? vm::testing::structured_program(rng, 4 + rng.uniform(40))
                   : rng.bytes(1 + rng.uniform(256));
    const vm::Storage storage{{1, 7}, {2, 0xffff}, {7, 42}};
    const vm::ExecContext ctx = random_context(rng);
    const vm::testing::RecordedRun reference =
        vm::testing::run_reference(BytesView(code), storage, ctx);
    EXPECT_EQ(vm::testing::run_decoded(vm::lower(BytesView(code)), storage,
                                       ctx),
              reference)
        << "checked, round " << round;
    if (!structured) continue;
    const vm::analysis::AnalysisReport report =
        vm::analysis::analyze(BytesView(code));
    const vm::DecodedProgram program = vm::lower(BytesView(code), report);
    EXPECT_EQ(program.stack_checked, !report.clean());
    EXPECT_EQ(vm::testing::run_decoded(program, storage, ctx), reference)
        << "analyzed, round " << round;
    clean += report.clean() ? 1 : 0;
  }
  EXPECT_GT(clean, 40u) << "too few analyzer-clean programs to cover the "
                           "unchecked instantiation";
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmFuzz, ::testing::Range<std::uint64_t>(1, 9));

// --- VM arithmetic agrees with native semantics ------------------------

class VmArithmetic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmArithmetic, MatchesNativeOps) {
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    const std::uint64_t a = rng.next();
    const std::uint64_t b = rng.next() | 1;  // avoid div-by-zero traps

    const struct {
      const char* op;
      std::uint64_t expected;
    } cases[] = {
        {"ADD", a + b},         {"SUB", a - b},
        {"MUL", a * b},         {"DIV", a / b},
        {"MOD", a % b},         {"AND", a & b},
        {"OR", a | b},          {"XOR", a ^ b},
        {"LT", a < b ? 1u : 0u}, {"GT", a > b ? 1u : 0u},
        {"EQ", a == b ? 1u : 0u},
    };
    for (const auto& c : cases) {
      const std::string source = "PUSH " + std::to_string(a) + "\nPUSH " +
                                 std::to_string(b) + "\n" + c.op +
                                 "\nRETURN 1";
      vm::Storage storage;
      vm::ExecContext ctx;
      vm::NullHost host;
      const auto result =
          vm::execute(BytesView(vm::assemble(source)), storage, ctx, host);
      ASSERT_TRUE(result.ok()) << c.op;
      EXPECT_EQ(result.returned.at(0), c.expected)
          << c.op << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmArithmetic,
                         ::testing::Range<std::uint64_t>(10, 14));

// --- Transaction encoding is canonical ---------------------------------

class TxCanonical : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TxCanonical, DecodeEncodeIsIdentity) {
  Rng rng(GetParam());
  const auto key = crypto::key_from_seed("fuzz-" + std::to_string(GetParam()));
  for (int round = 0; round < 100; ++round) {
    chain::Transaction tx;
    tx.kind = static_cast<chain::TxKind>(rng.uniform(4));
    tx.nonce = rng.next();
    tx.amount = rng.next();
    tx.gas_limit = rng.next();
    tx.gas_price = rng.next();
    tx.payload = rng.bytes(rng.uniform(64));
    tx.sign_with(key);

    const Bytes wire = tx.encode();
    const chain::Transaction decoded =
        chain::Transaction::decode(BytesView(wire));
    EXPECT_EQ(decoded.encode(), wire);
    EXPECT_EQ(decoded.id(), tx.id());
  }
}

TEST_P(TxCanonical, GarbageEitherThrowsOrRoundTrips) {
  Rng rng(GetParam() + 100);
  for (int round = 0; round < 300; ++round) {
    const Bytes garbage = rng.bytes(1 + rng.uniform(128));
    try {
      const chain::Transaction tx =
          chain::Transaction::decode(BytesView(garbage));
      // If it decoded, it must re-encode to exactly the input bytes
      // (canonical wire form admits no aliases).
      EXPECT_EQ(tx.encode(), garbage);
    } catch (const SerialError&) {
      // Expected for almost all inputs.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxCanonical,
                         ::testing::Range<std::uint64_t>(20, 24));

// --- Batch signature verification agrees with the per-sig scan ---------

class BatchVerifyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchVerifyProperty, RandomBatchesMatchSequentialVerdict) {
  // For random batches with random tamper patterns, crypto::batch_verify
  // must agree with a per-sig verify() scan on accept/reject AND on the
  // first-failing index. Tampers include the adversarial pair-shift that
  // cancels under unit coefficients (the z_i = 1 naive-scheme regression).
  Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    const std::size_t n = 1 + rng.uniform(96);
    std::vector<crypto::PrivateKey> keys;
    std::vector<Bytes> msgs;
    keys.reserve(n);
    msgs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(crypto::generate_key(rng));
      msgs.push_back(rng.bytes(1 + rng.uniform(40)));
    }
    std::vector<crypto::BatchItem> items;
    items.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      items.push_back({keys[i].pub, BytesView(msgs[i]),
                       crypto::sign(keys[i], BytesView(msgs[i]))});

    const int tamper = static_cast<int>(rng.uniform(4));
    if (tamper == 1) {  // scattered bit flips
      for (std::size_t i = 0; i < n; ++i)
        if (rng.bernoulli(0.2))
          (rng.bernoulli(0.5) ? items[i].sig.s : items[i].sig.r) ^= 1;
    } else if (tamper == 2) {  // structural garbage at one index
      crypto::BatchItem& it = items[rng.uniform(n)];
      switch (rng.uniform(3)) {
        case 0: it.sig.s = crypto::SchnorrGroup::q + rng.uniform(99); break;
        case 1: it.sig.r = 0; break;
        default: it.key.y = rng.next(); break;
      }
    } else if (tamper == 3 && n >= 2) {  // z_i = 1 cancellation pair
      const std::size_t a = rng.uniform(n - 1);
      const std::size_t b = a + 1 + rng.uniform(n - a - 1);
      const std::uint64_t d = 1 + rng.uniform(crypto::SchnorrGroup::q - 1);
      items[a].sig.s = (items[a].sig.s + d) % crypto::SchnorrGroup::q;
      items[b].sig.s =
          (items[b].sig.s + crypto::SchnorrGroup::q - d) %
          crypto::SchnorrGroup::q;
    }

    std::ptrdiff_t expect = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (!crypto::verify(items[i].key, items[i].message, items[i].sig)) {
        expect = static_cast<std::ptrdiff_t>(i);
        break;
      }
    }
    const crypto::BatchResult res = crypto::batch_verify(items, rng);
    EXPECT_EQ(res.first_invalid, expect)
        << "n=" << n << " tamper=" << tamper << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchVerifyProperty,
                         ::testing::Range<std::uint64_t>(40, 46));

// --- Varint encoding is canonical --------------------------------------

class VarintCanonical : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintCanonical, EncodeDecodeIsIdentity) {
  Rng rng(GetParam());
  for (int round = 0; round < 2000; ++round) {
    // Bias toward boundary magnitudes: shift a random value so every
    // encoded length 1..10 is exercised.
    const std::uint64_t v = rng.next() >> rng.uniform(64);
    ByteWriter w;
    w.varint(v);
    ByteReader r(BytesView(w.data()));
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST_P(VarintCanonical, GarbageEitherThrowsOrReencodesIdentically) {
  // The anti-alias property behind content ids: any byte string that
  // decodes must re-encode to exactly itself, so two distinct wire forms
  // can never share a value (and thus an id).
  Rng rng(GetParam() + 500);
  for (int round = 0; round < 2000; ++round) {
    const Bytes garbage = rng.bytes(1 + rng.uniform(12));
    ByteReader r{BytesView(garbage)};
    try {
      const std::uint64_t v = r.varint();
      ByteWriter w;
      w.varint(v);
      const Bytes consumed(garbage.begin(),
                           garbage.begin() + static_cast<std::ptrdiff_t>(
                                                 garbage.size() - r.remaining()));
      EXPECT_EQ(w.data(), consumed)
          << "two distinct byte strings decode to one value";
    } catch (const SerialError&) {
      // Overlong or overflowing forms are rejected — that's the point.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintCanonical,
                         ::testing::Range<std::uint64_t>(30, 34));

// --- Ledger conservation ------------------------------------------------

class SupplyConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SupplyConservation, RandomTransfersConserveTotal) {
  Rng rng(GetParam());
  chain::ChainParams params;
  chain::WorldState state;

  std::vector<crypto::PrivateKey> keys;
  std::vector<std::uint64_t> nonces(6, 0);
  chain::Amount total = 0;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(crypto::key_from_seed("acct" + std::to_string(i)));
    const chain::Amount funding = 1'000'000 + rng.uniform(1'000'000);
    state.credit(crypto::address_of(keys.back().pub), funding);
    total += funding;
  }
  const auto proposer = crypto::address_of(crypto::key_from_seed("prop").pub);

  for (int round = 0; round < 200; ++round) {
    const std::size_t from = rng.uniform(6);
    std::size_t to = rng.uniform(6);
    if (to == from) to = (to + 1) % 6;
    const chain::Transaction tx = chain::make_transfer(
        keys[from], crypto::address_of(keys[to].pub), 1 + rng.uniform(500),
        nonces[from]);
    if (state.apply(tx, proposer, params).ok) ++nonces[from];
  }

  chain::Amount after = proposer == chain::Address{}
                            ? 0
                            : state.balance(proposer);
  for (const auto& key : keys) after += state.balance(crypto::address_of(key.pub));
  EXPECT_EQ(after, total);  // fees moved to the proposer, nothing minted
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupplyConservation,
                         ::testing::Range<std::uint64_t>(30, 34));

// --- Mempool selection invariants ----------------------------------------

class MempoolInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MempoolInvariants, SelectionIsNonceOrderedAndAffordable) {
  Rng rng(GetParam());
  chain::ChainParams params;
  chain::WorldState state;
  chain::Mempool pool;

  std::vector<crypto::PrivateKey> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(crypto::key_from_seed("m" + std::to_string(i)));
    state.credit(crypto::address_of(keys.back().pub),
                 500'000 + rng.uniform(100'000'000));
  }
  // Random txs, including nonce gaps and duplicates.
  for (int round = 0; round < 150; ++round) {
    const std::size_t who = rng.uniform(4);
    pool.add(chain::make_transfer(
        keys[who], crypto::address_of(keys[(who + 1) % 4].pub),
        1 + rng.uniform(2'000), rng.uniform(12), 1 + rng.uniform(9)));
  }

  const auto selected = pool.select(state, params, 100);
  std::unordered_map<chain::Address, std::uint64_t> expected_nonce;
  std::unordered_map<chain::Address, chain::Amount> budget;
  for (const auto& key : keys) {
    const auto addr = crypto::address_of(key.pub);
    expected_nonce[addr] = state.nonce(addr);
    budget[addr] = state.balance(addr);
  }
  for (const auto& tx : selected) {
    // Strict per-sender nonce sequence from the current state nonce.
    EXPECT_EQ(tx.nonce, expected_nonce[tx.from]) << "sender nonce order";
    ++expected_nonce[tx.from];
    // Affordable under worst-case fees at selection time.
    const chain::Amount cost = tx.amount + tx.gas_limit * tx.gas_price;
    ASSERT_GE(budget[tx.from], cost);
    budget[tx.from] -= cost;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MempoolInvariants,
                         ::testing::Range<std::uint64_t>(40, 45));

// --- PBFT liveness under random crash-fault sets -------------------------

class PbftFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbftFaults, CommitsDespiteAnyFFaults) {
  Rng rng(GetParam());
  const std::size_t n = 7;  // f = 2
  // Random fault set of size <= f.
  std::set<sim::NodeId> faulty;
  const std::size_t fault_count = rng.uniform(3);  // 0..2
  while (faulty.size() < fault_count)
    faulty.insert(static_cast<sim::NodeId>(rng.uniform(n)));

  chain::PbftCluster cluster(sim::Network::uniform(n, 3), {}, faulty);
  for (int i = 0; i < 5; ++i)
    cluster.submit(crypto::sha256("req-" + std::to_string(i)));
  cluster.run();
  EXPECT_EQ(cluster.commits().size(), 5u)
      << "faults=" << faulty.size();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbftFaults,
                         ::testing::Range<std::uint64_t>(50, 60));

// --- Sealed-box round trips over random sizes ----------------------------

class SealSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SealSweep, RandomPayloadsRoundTripAndRejectTamper) {
  Rng rng(GetParam());
  const auto key = crypto::key_from_hash(crypto::sha256("k"));
  for (int round = 0; round < 50; ++round) {
    const Bytes msg = rng.bytes(rng.uniform(2'000));
    const auto box =
        crypto::seal(key, crypto::nonce_from_counter(rng.next()), BytesView(msg));
    const auto opened = crypto::open(key, box);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, msg);
    if (!box.ciphertext.empty()) {
      auto tampered = box;
      tampered.ciphertext[rng.uniform(tampered.ciphertext.size())] ^= 0x80;
      EXPECT_FALSE(crypto::open(key, tampered).has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SealSweep,
                         ::testing::Range<std::uint64_t>(70, 74));

}  // namespace
}  // namespace mc
