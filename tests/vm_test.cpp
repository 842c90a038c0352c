// Contract VM tests: opcodes, traps, gas, assembler, determinism,
// write-sets and the contract store's block undo records.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "common/rng.hpp"
#include "vm/assembler.hpp"
#include "vm/contract_store.hpp"
#include "vm/vm.hpp"

namespace mc::vm {
namespace {

ExecResult run(const std::string& source, std::vector<Word> calldata = {},
               Storage* storage = nullptr, Host* host = nullptr,
               Word caller = 0) {
  const Bytes code = assemble(source);
  Storage local;
  Storage& store = storage != nullptr ? *storage : local;
  ExecContext ctx;
  ctx.caller = caller;
  ctx.calldata = std::move(calldata);
  NullHost null_host;
  ExecResult result =
      execute(BytesView(code), store, ctx, host != nullptr ? *host : null_host);
  fold_writes(store, result.writes);
  return result;
}

TEST(Vm, ArithmeticAndReturn) {
  const auto r = run("PUSH 7\nPUSH 5\nADD\nPUSH 3\nMUL\nRETURN 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.returned.size(), 1u);
  EXPECT_EQ(r.returned[0], 36u);
}

TEST(Vm, ComparisonAndLogic) {
  const auto r = run(
      "PUSH 3\nPUSH 5\nLT\n"      // 3 < 5 -> 1
      "PUSH 10\nPUSH 4\nGT\n"     // 10 > 4 -> 1
      "AND\n"                     // 1
      "PUSH 0\nISZERO\n"          // 1
      "EQ\n"                      // 1 == 1 -> 1
      "RETURN 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned[0], 1u);
}

TEST(Vm, WrappingArithmeticAndShifts) {
  const auto r = run(
      "PUSH 0\nPUSH 1\nSUB\n"  // 0 - 1 wraps to 2^64-1
      "PUSH 63\nSHR\n"          // -> 1
      "PUSH 1\nSHL\n"           // -> 2
      "RETURN 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned[0], 2u);
}

TEST(Vm, ShiftBeyondWidthYieldsZero) {
  const auto r = run("PUSH 5\nPUSH 64\nSHL\nRETURN 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned[0], 0u);
}

TEST(Vm, DivideByZeroTraps) {
  EXPECT_EQ(run("PUSH 1\nPUSH 0\nDIV").halt, Halt::DivideByZero);
  EXPECT_EQ(run("PUSH 1\nPUSH 0\nMOD").halt, Halt::DivideByZero);
}

TEST(Vm, StackUnderflowAndOverflow) {
  EXPECT_EQ(run("ADD").halt, Halt::StackUnderflow);
  EXPECT_EQ(run("POP").halt, Halt::StackUnderflow);
  EXPECT_EQ(run("DUP 3\n").halt, Halt::StackUnderflow);
  // Overflow: push in a loop until the 1024-slot cap trips.
  const auto r = run(
      "loop:\n"
      "PUSH 1\n"
      "JUMP @loop");
  EXPECT_EQ(r.halt, Halt::StackOverflow);
}

TEST(Vm, DupAndSwapDepths) {
  const auto r = run(
      "PUSH 1\nPUSH 2\nPUSH 3\n"
      "DUP 3\n"    // [1,2,3,1]
      "SWAP 2\n"   // [1,1,3,2]
      "RETURN 4");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned, (std::vector<Word>{1, 1, 3, 2}));
}

TEST(Vm, JumpLoopComputesSum) {
  // Sum 1..10 via a loop: total in slot 1, counter in slot 2.
  const auto r = run(R"(
PUSH 0
PUSH 1
SSTORE          ; total = 0 at key 1? (value=0, key=1) erases; fine
PUSH 1          ; counter = 1 on stack
loop:
DUP 1
PUSH 1
SLOAD
ADD
PUSH 1
SSTORE          ; total += counter
PUSH 1
ADD             ; counter += 1
DUP 1
PUSH 10
GT
ISZERO
JUMPI @loop
PUSH 1
SLOAD
RETURN 1
)");
  ASSERT_TRUE(r.ok()) << halt_name(r.halt);
  EXPECT_EQ(r.returned[0], 55u);
}

TEST(Vm, JumpIntoImmediateIsBadJump) {
  // Offset 1 is inside PUSH's immediate, not an instruction boundary.
  const auto r = run("PUSH 1\nJUMP");
  EXPECT_EQ(r.halt, Halt::BadJump);
}

TEST(Vm, JumpOutOfRangeIsBadJump) {
  EXPECT_EQ(run("PUSH 9999\nJUMP").halt, Halt::BadJump);
}

TEST(Vm, ConditionalJumpFallsThroughOnZero) {
  const auto r = run(
      "PUSH 0\n"
      "JUMPI @skip\n"
      "PUSH 42\nRETURN 1\n"
      "skip:\n"
      "PUSH 7\nRETURN 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned[0], 42u);
}

TEST(Vm, CalldataAccess) {
  const auto r = run(
      "PUSH 1\nCALLDATALOAD\n"
      "PUSH 99\nCALLDATALOAD\n"  // out of range -> 0
      "ADD\nCALLDATASIZE\nADD\nRETURN 1",
      {10, 20, 30});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned[0], 20u + 0u + 3u);
}

TEST(Vm, StoragePersistsAcrossCallsAndRollsBackOnRevert) {
  Storage storage;
  ASSERT_TRUE(run("PUSH 123\nPUSH 5\nSSTORE\nSTOP", {}, &storage).ok());
  EXPECT_EQ(storage[5], 123u);

  // A reverting run must not leak its writes.
  const auto r = run("PUSH 999\nPUSH 5\nSSTORE\nREVERT", {}, &storage);
  EXPECT_EQ(r.halt, Halt::Revert);
  EXPECT_EQ(storage[5], 123u);

  const auto read = run("PUSH 5\nSLOAD\nRETURN 1", {}, &storage);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.returned[0], 123u);
}

TEST(Vm, StoringZeroErasesKey) {
  Storage storage;
  ASSERT_TRUE(run("PUSH 7\nPUSH 1\nSSTORE\nPUSH 0\nPUSH 1\nSSTORE\nSTOP",
                  {}, &storage)
                  .ok());
  EXPECT_TRUE(storage.empty());
}

TEST(Vm, GasExhaustionTraps) {
  const Bytes code = assemble("loop:\nPUSH 1\nPOP\nJUMP @loop");
  Storage storage;
  ExecContext ctx;
  ctx.gas_limit = 500;
  NullHost host;
  const auto r = execute(BytesView(code), storage, ctx, host);
  EXPECT_EQ(r.halt, Halt::OutOfGas);
  EXPECT_LE(r.gas_used, 500u);
}

TEST(Vm, GasChargedPerOpcodeTable) {
  const auto r = run("PUSH 1\nPUSH 2\nSSTORE\nSTOP");
  ASSERT_TRUE(r.ok());
  // PUSH(3) + PUSH(3) + SSTORE(100) + STOP(3)
  EXPECT_EQ(r.gas_used, 109u);
}

TEST(Vm, EventsDeliveredOnlyOnSuccess) {
  struct RecordingHost : NullHost {
    std::vector<Event> events;
    void on_event(const Event& e) override { events.push_back(e); }
  };
  RecordingHost host;
  ASSERT_TRUE(
      run("PUSH 11\nPUSH 22\nPUSH 777\nEMIT 2\nSTOP", {}, nullptr, &host)
          .ok());
  ASSERT_EQ(host.events.size(), 1u);
  EXPECT_EQ(host.events[0].topic, 777u);
  EXPECT_EQ(host.events[0].args, (std::vector<Word>{11, 22}));

  RecordingHost host2;
  run("PUSH 1\nPUSH 2\nPUSH 3\nEMIT 2\nREVERT", {}, nullptr, &host2);
  EXPECT_TRUE(host2.events.empty());  // reverted events discarded
}

TEST(Vm, HashNIsOrderSensitiveAndDeterministic) {
  const auto ab = run("PUSH 1\nPUSH 2\nHASHN 2\nRETURN 1");
  const auto ba = run("PUSH 2\nPUSH 1\nHASHN 2\nRETURN 1");
  const auto ab2 = run("PUSH 1\nPUSH 2\nHASHN 2\nRETURN 1");
  ASSERT_TRUE(ab.ok() && ba.ok() && ab2.ok());
  EXPECT_NE(ab.returned[0], ba.returned[0]);
  EXPECT_EQ(ab.returned[0], ab2.returned[0]);
}

TEST(Vm, OracleBridgesToHost) {
  struct EchoHost : NullHost {
    std::optional<Word> oracle(Word request) override { return request * 2; }
  };
  EchoHost host;
  const auto r = run("PUSH 21\nORACLE\nRETURN 1", {}, nullptr, &host);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned[0], 42u);

  // A failing oracle traps the call.
  const auto failed = run("PUSH 1\nORACLE\nSTOP");
  EXPECT_EQ(failed.halt, Halt::OracleFailure);
}

TEST(Vm, ContextValuesExposed) {
  const Bytes code =
      assemble("CALLER\nCALLVALUE\nHEIGHT\nTIMESTAMP\nRETURN 4");
  Storage storage;
  ExecContext ctx;
  ctx.caller = 77;
  ctx.call_value = 88;
  ctx.height = 99;
  ctx.time_ms = 111;
  NullHost host;
  const auto r = execute(BytesView(code), storage, ctx, host);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned, (std::vector<Word>{77, 88, 99, 111}));
}

TEST(Vm, StepLimitCatchesTightLoops) {
  const Bytes code = assemble("loop:\nJUMP @loop");
  Storage storage;
  ExecContext ctx;
  ctx.gas_limit = ~0ULL;
  ctx.step_limit = 1'000;
  NullHost host;
  EXPECT_EQ(execute(BytesView(code), storage, ctx, host).halt,
            Halt::StepLimit);
}

TEST(Vm, FallingOffEndActsAsStop) {
  const auto r = run("PUSH 1\nPOP");
  EXPECT_EQ(r.halt, Halt::Stop);
}

TEST(Vm, WellFormednessCheck) {
  EXPECT_TRUE(code_well_formed(BytesView(assemble("PUSH 1\nSTOP"))));
  const Bytes bad = {0xee};
  EXPECT_FALSE(code_well_formed(BytesView(bad)));
  Bytes truncated = assemble("PUSH 1");
  truncated.pop_back();  // cut into the immediate
  EXPECT_FALSE(code_well_formed(BytesView(truncated)));
}

TEST(Assembler, LabelsAndSugar) {
  const Bytes a = assemble("PUSH @end\nJUMP\nend:\nSTOP");
  const Bytes b = assemble("JUMP @end\nend:\nSTOP");
  EXPECT_EQ(a, b);
}

TEST(Assembler, HexImmediates) {
  const auto r = run("PUSH 0xff\nRETURN 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned[0], 255u);
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble("FLY 1"), AssembleError);
  EXPECT_THROW(assemble("PUSH"), AssembleError);
  EXPECT_THROW(assemble("POP 3"), AssembleError);
  EXPECT_THROW(assemble("JUMP @nowhere"), AssembleError);
  EXPECT_THROW(assemble("a:\na:\nSTOP"), AssembleError);
  EXPECT_THROW(assemble("DUP 300"), AssembleError);  // exceeds one byte
  EXPECT_THROW(assemble("PUSH banana"), AssembleError);
}

TEST(Assembler, DisassembleRoundTripMnemonics) {
  const std::string text = disassemble(BytesView(assemble(
      "PUSH 5\nDUP 1\nADD\nRETURN 1")));
  EXPECT_NE(text.find("PUSH 5"), std::string::npos);
  EXPECT_NE(text.find("RETURN 1"), std::string::npos);
}

TEST(ContractStore, DeployCallAndDigestDeterminism) {
  auto build = [] {
    ContractStore store;
    const Word id = store.deploy(
        assemble("PUSH 1\nCALLDATALOAD\nPUSH 2\nMUL\nRETURN 1"), 42, 1);
    ExecContext ctx;
    ctx.calldata = {0, 21};
    const auto r = store.call(id, ctx);
    return std::pair{store.digest(), r->returned.at(0)};
  };
  const auto [digest_a, value_a] = build();
  const auto [digest_b, value_b] = build();
  EXPECT_EQ(value_a, 42u);
  EXPECT_EQ(digest_a, digest_b);  // duplicated execution, identical state
}

TEST(ContractStore, CallUnknownContractReturnsNullopt) {
  ContractStore store;
  EXPECT_FALSE(store.call(12345, ExecContext{}).has_value());
}

TEST(ContractStore, SnapshotRollback) {
  ContractStore store;
  const Word id =
      store.deploy(assemble("PUSH 1\nCALLDATALOAD\nPUSH 9\nSSTORE\n"
                            "PUSH 1\nPUSH 500\nEMIT 0\nSTOP"),
                   1, 1);
  store.snapshot(1);

  ExecContext ctx;
  ctx.calldata = {0, 777};
  ASSERT_TRUE(store.call(id, ctx)->ok());
  EXPECT_EQ(store.contract(id)->storage.at(9), 777u);
  EXPECT_EQ(store.events().size(), 1u);

  store.rollback_to(1);
  EXPECT_EQ(store.contract(id)->storage.count(9), 0u);
  EXPECT_TRUE(store.events().empty());

  store.rollback_to(0);  // no snapshot that old -> fresh store
  EXPECT_EQ(store.size(), 0u);
}

TEST(Vm, SxloadTrapsWithoutStoreBackedHost) {
  // Raw execution has no contract store: cross-contract reads trap.
  const auto r = run("PUSH 1\nPUSH 2\nSXLOAD\nSTOP");
  EXPECT_EQ(r.halt, Halt::OracleFailure);
}

TEST(ContractStore, SxloadReadsAnotherContractsCommittedState) {
  ContractStore store;
  // Writer contract: stores calldata[1] at key 5.
  const Word writer = store.deploy(
      assemble("PUSH 1\nCALLDATALOAD\nPUSH 5\nSSTORE\nSTOP"), 1, 1);
  // Reader contract: returns SXLOAD(calldata[1], key 5).
  const Word reader = store.deploy(
      assemble("PUSH 5\nPUSH 1\nCALLDATALOAD\nSXLOAD\nRETURN 1"), 1, 1);

  ExecContext write_ctx;
  write_ctx.calldata = {0, 777};
  ASSERT_TRUE(store.call(writer, write_ctx)->ok());

  ExecContext read_ctx;
  read_ctx.calldata = {0, writer};
  const auto read = store.call(reader, read_ctx);
  ASSERT_TRUE(read->ok());
  EXPECT_EQ(read->returned.at(0), 777u);

  // Unknown contracts and absent keys read as zero (deterministic).
  ExecContext missing_ctx;
  missing_ctx.calldata = {0, 0xdead};
  EXPECT_EQ(store.call(reader, missing_ctx)->returned.at(0), 0u);
}

TEST(ContractStore, SxloadSeesCommittedNotInFlightState) {
  ContractStore store;
  // Self-reader: writes 9 to key 1, then SXLOADs its own id (calldata[1])
  // at key 1 — the read must see the *committed* (pre-call) value.
  const Word self_reader = store.deploy(assemble(R"(
PUSH 9
PUSH 1
SSTORE
PUSH 1
PUSH 1
CALLDATALOAD
SXLOAD
RETURN 1
)"),
                                        1, 1);
  ExecContext ctx;
  ctx.calldata = {0, self_reader};
  const auto r = store.call(self_reader, ctx);
  ASSERT_TRUE(r->ok());
  EXPECT_EQ(r->returned.at(0), 0u);  // in-flight write not yet visible
  // After commit, a second call sees 9.
  const auto again = store.call(self_reader, ctx);
  EXPECT_EQ(again->returned.at(0), 9u);
}

TEST(ContractStore, EventsSinceCursor) {
  ContractStore store;
  const Word id = store.deploy(
      assemble("PUSH 1\nPUSH 300\nEMIT 0\nPUSH 1\nPUSH 301\nEMIT 0\nSTOP"),
      1, 1);
  store.call(id, ExecContext{});
  EXPECT_EQ(store.events_since(0).size(), 2u);
  EXPECT_EQ(store.events_since(1).size(), 1u);
  EXPECT_EQ(store.events_since(5).size(), 0u);
}

// --- write-set edge cases ----------------------------------------------

TEST(Vm, SloadReadsTheRunsOwnBufferedWrite) {
  const Storage committed = {{5, 1}};
  ExecContext ctx;
  NullHost host;
  const auto r = execute(
      BytesView(assemble("PUSH 9\nPUSH 5\nSSTORE\nPUSH 5\nSLOAD\nRETURN 1")),
      committed, ctx, host);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned.at(0), 9u);
  EXPECT_EQ(r.writes, (WriteSet{{5, 9}}));
  EXPECT_EQ(committed.at(5), 1u);  // the run only read committed storage
}

TEST(Vm, StoringZeroOverCommittedValueReadsZeroAndErasesOnFold) {
  Storage storage = {{3, 42}, {4, 7}};
  ExecContext ctx;
  NullHost host;
  const auto r = execute(
      BytesView(assemble("PUSH 0\nPUSH 3\nSSTORE\nPUSH 3\nSLOAD\nRETURN 1")),
      storage, ctx, host);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.returned.at(0), 0u);
  EXPECT_EQ(r.writes, (WriteSet{{3, 0}}));
  fold_writes(storage, r.writes);
  EXPECT_EQ(storage, (Storage{{4, 7}}));
}

// Writes calldata[1] to keys 9, 10 and 11, emits it, then reverts when
// calldata[2] is non-zero.
constexpr const char* kWriteThenMaybeRevert = R"(
PUSH 1
CALLDATALOAD
PUSH 9
SSTORE
PUSH 1
CALLDATALOAD
PUSH 10
SSTORE
PUSH 1
CALLDATALOAD
PUSH 11
SSTORE
PUSH 1
CALLDATALOAD
PUSH 600
EMIT 1
PUSH 2
CALLDATALOAD
JUMPI @fail
STOP
fail:
REVERT
)";

TEST(ContractStore, TrapAfterWritesLeavesDigestAndEventsBitIdentical) {
  ContractStore store;
  const Word id = store.deploy(assemble(kWriteThenMaybeRevert), 1, 1);
  ExecContext ctx;
  ctx.calldata = {0, 5, 0};
  ASSERT_TRUE(store.call(id, ctx)->ok());
  store.snapshot(1);
  const Hash256 digest = store.digest();
  const std::size_t events = store.events().size();
  ASSERT_EQ(events, 1u);

  // Erasing (0) and overwriting (77) runs, both trapping after 3 writes.
  for (const Word value : {Word{0}, Word{77}}) {
    ctx.calldata = {0, value, 1};
    const auto r = store.call(id, ctx);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->halt, Halt::Revert);
    EXPECT_TRUE(r->writes.empty());
    EXPECT_EQ(store.digest(), digest);
    EXPECT_EQ(store.events().size(), events);

    const auto spec = store.call_speculative(id, ctx);
    ASSERT_TRUE(spec.has_value());
    EXPECT_FALSE(spec->result.ok());
    EXPECT_TRUE(spec->result.writes.empty());
  }
  EXPECT_EQ(store.contract(id)->storage, (Storage{{9, 5}, {10, 5}, {11, 5}}));
}

// --- block undo records ----------------------------------------------------

// Counter: storage[calldata[1]] += 1 (an SLOAD-dependent write).
constexpr const char* kCounter = R"(
PUSH 1
CALLDATALOAD
SLOAD
PUSH 1
ADD
PUSH 1
CALLDATALOAD
SSTORE
STOP
)";

TEST(ContractStore, RetainedUndoRecordsStayBounded) {
  ContractStore store;
  const Word id = store.deploy(assemble(kWriteThenMaybeRevert), 1, 1);
  ExecContext ctx;
  const std::uint64_t blocks = 100;
  std::map<std::uint64_t, Hash256> sealed;
  for (std::uint64_t h = 1; h <= blocks; ++h) {
    ctx.calldata = {0, h, 0};
    ASSERT_TRUE(store.call(id, ctx)->ok());
    store.snapshot(h);
    sealed[h] = store.digest();
    EXPECT_LE(store.retained_blocks(), ContractStore::kUndoDepth);
  }
  EXPECT_EQ(store.retained_blocks(), ContractStore::kUndoDepth);

  // The oldest retained record still undoes to its seal, and undoing it
  // too reaches the newest dropped seal.
  const std::uint64_t oldest = blocks - ContractStore::kUndoDepth + 1;
  store.rollback_to(oldest);
  EXPECT_EQ(store.digest(), sealed[oldest]);
  store.rollback_to(oldest - 1);
  EXPECT_EQ(store.digest(), sealed[oldest - 1]);
  EXPECT_EQ(store.retained_blocks(), 0u);

  store.rollback_to(0);  // past the window: fresh store
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.events().empty());
  EXPECT_EQ(store.digest(), ContractStore{}.digest());
}

TEST(ContractStore, RandomHistoriesRollBackToSealedStates) {
  const Bytes writer = assemble(kWriteThenMaybeRevert);
  const Bytes counter = assemble(kCounter);
  const Bytes probe = assemble("PUSH 1\nPOP\nSTOP");
  constexpr Word kProbeDeployer = 0xfeed;

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    ContractStore store;
    struct Seal {
      std::uint64_t height;
      Hash256 digest;
      std::size_t events;
      Word next_id;
    };
    std::vector<Seal> seals;  // oldest first, none rolled back past
    std::size_t retained = 0;  // model of store.retained_blocks()
    std::vector<Word> ids;
    std::uint64_t height = 0;

    const auto random_ctx = [&] {
      ExecContext ctx;
      ctx.calldata = {0, rng.uniform(6), rng.uniform(4) == 0 ? 1u : 0u};
      return ctx;
    };
    const auto live_id = [&]() -> std::optional<Word> {
      std::vector<Word> live;
      for (const Word id : ids)
        if (store.exists(id)) live.push_back(id);
      if (live.empty()) return std::nullopt;
      return live[rng.uniform(live.size())];
    };
    // Deploy the probe, note its id, and undo the deploy again.
    const auto probe_id = [&](std::uint64_t label) {
      const Word id = store.deploy(probe, kProbeDeployer, label);
      store.rollback_to(label);
      return id;
    };
    const auto expect_at = [&](const Seal& seal) {
      EXPECT_EQ(store.digest(), seal.digest) << "seed " << seed;
      EXPECT_EQ(store.events().size(), seal.events) << "seed " << seed;
      EXPECT_EQ(probe_id(seal.height), seal.next_id) << "seed " << seed;
      EXPECT_EQ(store.digest(), seal.digest) << "seed " << seed;
    };

    for (int step = 0; step < 400; ++step) {
      switch (rng.uniform(8)) {
        case 0:
          ids.push_back(store.deploy(rng.uniform(2) == 0 ? writer : counter,
                                     1 + rng.uniform(3), height + 1));
          break;
        case 1:
        case 2:
          if (auto id = live_id()) store.call(*id, random_ctx());
          break;
        case 3:
        case 4: {
          // Speculate, let a direct call interleave, commit if current.
          auto id = live_id();
          if (!id) break;
          const auto spec = store.call_speculative(*id, random_ctx());
          if (rng.uniform(2) == 0) store.call(*id, random_ctx());
          if (spec->result.ok() && store.speculation_current(*spec))
            store.commit_speculation(*spec);
          break;
        }
        case 5:
        case 6: {
          store.snapshot(++height);
          retained = std::min(retained + 1, ContractStore::kUndoDepth);
          EXPECT_EQ(store.retained_blocks(), retained);
          Seal seal{height, store.digest(), store.events().size(), 0};
          seal.next_id = probe_id(height);
          EXPECT_EQ(store.digest(), seal.digest);
          seals.push_back(seal);
          break;
        }
        default: {
          if (seals.empty() || rng.uniform(10) == 0) {
            store.rollback_to(0);
            EXPECT_EQ(store.size(), 0u);
            EXPECT_TRUE(store.events().empty());
            seals.clear();
            retained = 0;
            height = 0;
            break;
          }
          // Any reachable seal: a retained record's, or the newest
          // dropped one's (undoing every retained record reaches it).
          const std::size_t window = std::min(seals.size(), retained + 1);
          const Seal target =
              seals[seals.size() - 1 - rng.uniform(window)];
          store.rollback_to(target.height);
          expect_at(target);
          while (seals.back().height > target.height) {
            seals.pop_back();
            --retained;
          }
          EXPECT_EQ(store.retained_blocks(), retained);
          height = target.height;
          break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mc::vm
