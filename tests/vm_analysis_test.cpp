// Static analyzer tests: per-opcode-class transfer functions, CFG
// properties (invalid jumps, unreachable code, loops), admission policy,
// per-entry-point precision, conflict reports, and the mechanical
// soundness contract — every committed fuzz-corpus input is analyzed AND
// executed, and the dynamic trace must stay inside the static bounds.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "chain/conflict.hpp"
#include "chain/vm_hook.hpp"
#include "contracts/policy.hpp"
#include "contracts/registry.hpp"
#include "vm/analysis/analysis.hpp"
#include "vm/assembler.hpp"
#include "vm/contract_store.hpp"
#include "vm/vm.hpp"

#ifndef MEDCHAIN_CORPUS_DIR
#error "build must define MEDCHAIN_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace {

using namespace mc;
using namespace mc::vm;
using analysis::AnalysisReport;

AnalysisReport analyze_asm(const char* source,
                           std::optional<Word> selector = std::nullopt) {
  analysis::AnalyzeOptions opts;
  opts.selector = selector;
  return analysis::analyze(BytesView(assemble(source)), opts);
}

// ---------------------------------------------------------------------------
// Transfer functions per opcode class
// ---------------------------------------------------------------------------

TEST(Analysis, ConstantFoldingProvesTightGasAndStack) {
  const AnalysisReport r = analyze_asm(R"(
    PUSH 6
    PUSH 7
    MUL
    RETURN 1
  )");
  EXPECT_TRUE(r.well_formed);
  EXPECT_TRUE(r.clean());
  EXPECT_FALSE(r.gas.top);
  EXPECT_EQ(r.gas.max, 3u * 4u);  // four default-cost instructions
  EXPECT_FALSE(r.stack.top);
  EXPECT_EQ(r.stack.max_depth, 2u);
}

TEST(Analysis, ConstantConditionPrunesTheDeadBranch) {
  // cond = IsZero(0) = 1, so the fall-through REVERT is unreachable.
  const AnalysisReport r = analyze_asm(R"(
    PUSH 0
    ISZERO
    JUMPI @ok
    REVERT
    ok:
    STOP
  )");
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.unreachable_instructions, 1u);  // the REVERT
}

TEST(Analysis, StorageOpsClassifyKeys) {
  using Kind = analysis::FootprintEntry::Kind;
  // Constant key write, parameter-derived (hash of tag+calldata) read.
  const AnalysisReport r = analyze_asm(R"(
    PUSH 9
    PUSH 5
    SSTORE
    PUSH 1
    PUSH 0
    CALLDATALOAD
    HASHN 2
    SLOAD
    RETURN 1
  )");
  ASSERT_EQ(r.footprint.entries.size(), 2u);
  EXPECT_EQ(r.footprint.exact_keys(Kind::Write),
            (std::set<Word>{5}));
  EXPECT_FALSE(r.footprint.unbounded(Kind::Write));
  EXPECT_TRUE(r.footprint.unbounded(Kind::Read));  // param-derived key
  bool saw_param_read = false;
  for (const auto& e : r.footprint.entries)
    if (e.kind == Kind::Read)
      saw_param_read =
          analysis::key_class_of(e.key) == analysis::KeyClass::Param;
  EXPECT_TRUE(saw_param_read);
}

TEST(Analysis, HashOfConstantsFoldsToTheVmValue) {
  using Kind = analysis::FootprintEntry::Kind;
  // HASHN over constants must produce the exact key the VM computes.
  const char* src = R"(
    PUSH 1
    PUSH 2
    PUSH 3
    HASHN 2
    SSTORE
    STOP
  )";
  const AnalysisReport r = analyze_asm(src);
  ASSERT_FALSE(r.footprint.unbounded(Kind::Write));
  const std::set<Word> keys = r.footprint.exact_keys(Kind::Write);
  ASSERT_EQ(keys.size(), 1u);

  // Execute and confirm the dynamic write hits the statically-proven key.
  Storage storage;
  ExecContext ctx;
  ExecTrace trace;
  ctx.trace = &trace;
  NullHost host;
  const ExecResult result =
      execute(BytesView(assemble(src)), storage, ctx, host);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(trace.writes, keys);
}

TEST(Analysis, EnvironmentOpsAreParamNotTop) {
  // caller-keyed storage write: key = H(tag, CALLER) is parameter-derived.
  using Kind = analysis::FootprintEntry::Kind;
  const AnalysisReport r = analyze_asm(R"(
    PUSH 1
    PUSH 3
    CALLER
    HASHN 2
    SSTORE
    STOP
  )");
  ASSERT_EQ(r.footprint.entries.size(), 1u);
  EXPECT_EQ(analysis::key_class_of(r.footprint.entries[0].key),
            analysis::KeyClass::Param);
  EXPECT_TRUE(r.footprint.unbounded(Kind::Write));
}

TEST(Analysis, SLoadResultIsUnknown) {
  // A storage-loaded key is Top: the footprint degrades to unbounded.
  const AnalysisReport r = analyze_asm(R"(
    PUSH 1
    SLOAD
    SLOAD
    RETURN 1
  )");
  ASSERT_EQ(r.footprint.entries.size(), 2u);
  EXPECT_EQ(analysis::key_class_of(r.footprint.entries[1].key),
            analysis::KeyClass::Unknown);
}

TEST(Analysis, DupSwapTrackValuesExactly) {
  const AnalysisReport r = analyze_asm(R"(
    PUSH 10
    PUSH 20
    DUP 2
    SWAP 1
    SSTORE
    STOP
  )");
  // Stack evolves [10,20,10] -> swap -> [10,10,20]; SSTORE pops key=20,
  // value=10: the write key must be the exact constant 20.
  EXPECT_EQ(r.footprint.exact_keys(analysis::FootprintEntry::Kind::Write),
            (std::set<Word>{20}));
}

// ---------------------------------------------------------------------------
// Control flow: invalid jumps, loops, shared exit blocks
// ---------------------------------------------------------------------------

TEST(Analysis, OutOfBoundsJumpIsInvalid) {
  const AnalysisReport r = analyze_asm("PUSH 9999\nJUMP\n");
  ASSERT_EQ(r.invalid_jump_pcs.size(), 1u);
  EXPECT_FALSE(r.clean());
}

TEST(Analysis, JumpIntoImmediateIsInvalid) {
  // pc 2 lands inside the PUSH imm64 — not an instruction boundary.
  const AnalysisReport r = analyze_asm("PUSH 2\nJUMP\n");
  ASSERT_EQ(r.invalid_jump_pcs.size(), 1u);
}

TEST(Analysis, NonConstantJumpDegradesToTop) {
  const AnalysisReport r = analyze_asm(R"(
    PUSH 0
    CALLDATALOAD
    JUMP
  )");
  EXPECT_EQ(r.unresolved_jump_pcs.size(), 1u);
  EXPECT_TRUE(r.incomplete);
  EXPECT_TRUE(r.gas.top);
  EXPECT_TRUE(r.stack.top);
}

TEST(Analysis, LoopMakesGasTopAndNamesTheHead) {
  const AnalysisReport r = analyze_asm(R"(
    top:
    PUSH 1
    JUMPI @top
    STOP
  )");
  EXPECT_TRUE(r.cfg.has_cycle);
  EXPECT_TRUE(r.gas.top);
  ASSERT_FALSE(r.gas.loop_head_pcs.empty());
  EXPECT_EQ(r.gas.loop_head_pcs[0], 0u);  // the `top:` label
  // cond is the constant 1: the branch is always taken, so the STOP
  // after it is provably dead and the stack stays depth-neutral.
  EXPECT_FALSE(r.stack.underflow_possible);
  EXPECT_EQ(r.unreachable_instructions, 1u);
}

TEST(Analysis, SharedExitBlockWithDivergentDepthsStaysPrecise) {
  // Both guards jump to one revert label from different stack depths —
  // the per-(pc, depth) domain must not lose the bounds over it.
  const AnalysisReport r = analyze_asm(R"(
    PUSH 0
    CALLDATALOAD
    ISZERO
    JUMPI @fail
    PUSH 1
    PUSH 2
    PUSH 1
    CALLDATALOAD
    GT
    JUMPI @fail
    POP
    STOP
    fail:
    REVERT
  )");
  EXPECT_TRUE(r.clean());
  EXPECT_FALSE(r.gas.top);
  EXPECT_FALSE(r.stack.top);
}

TEST(Analysis, StackViolationsAreFlagged) {
  EXPECT_TRUE(analyze_asm("POP\n").stack.underflow_possible);
  const Bytes flood(1100, 0x60);  // Op::Caller
  const AnalysisReport r = analysis::analyze(BytesView(flood));
  EXPECT_TRUE(r.stack.overflow_possible);
  EXPECT_FALSE(r.stack.top);
  EXPECT_EQ(r.stack.max_depth, kMaxStack);
}

TEST(Analysis, DivideByConstantZeroIsFlagged) {
  const AnalysisReport r = analyze_asm("PUSH 1\nPUSH 0\nDIV\nSTOP\n");
  EXPECT_TRUE(r.divide_by_zero_possible);
  // The division traps, so STOP is never reached.
  EXPECT_EQ(r.unreachable_instructions, 1u);
}

// ---------------------------------------------------------------------------
// Per-entry-point analysis and the built-in suite
// ---------------------------------------------------------------------------

TEST(Analysis, SelectorPinsTheDispatchAndTightensGas) {
  const Bytes& code = contracts::PolicyContract::bytecode();
  const AnalysisReport whole = analysis::analyze(BytesView(code));
  ASSERT_FALSE(whole.gas.top);

  const std::vector<Word> selectors =
      analysis::discover_selectors(BytesView(code));
  ASSERT_GE(selectors.size(), 4u);
  for (const Word sel : selectors) {
    analysis::AnalyzeOptions opts;
    opts.selector = sel;
    const AnalysisReport per = analysis::analyze(BytesView(code), opts);
    ASSERT_FALSE(per.gas.top) << "selector " << sel;
    EXPECT_LE(per.gas.max, whole.gas.max) << "selector " << sel;
  }
}

TEST(Analysis, EveryBuiltinContractIsCleanAndBounded) {
  for (const Bytes* code : {&contracts::RegistryContract::bytecode(),
                            &contracts::PolicyContract::bytecode()}) {
    const AnalysisReport r = analysis::analyze(BytesView(*code));
    EXPECT_TRUE(r.clean());
    EXPECT_FALSE(r.gas.top);
    EXPECT_FALSE(r.stack.top);
    EXPECT_LE(r.stack.max_depth, kMaxStack);
  }
}

// ---------------------------------------------------------------------------
// Symbolic keys, per-selector summaries, and concretization (PR 9)
// ---------------------------------------------------------------------------

// Selector-dependent keys: the per-selector summaries must prune each
// entry point to its own storage sites, with the symbolic key expression
// preserved, and summary_for must route calldata to the matching one.
TEST(Symbolic, SelectorSummariesCarryDistinctKeyExpressions) {
  using Kind = analysis::FootprintEntry::Kind;
  const char* src = R"(
    PUSH 0
    CALLDATALOAD
    DUP 1
    PUSH 1
    EQ
    JUMPI @dyn
    DUP 1
    PUSH 2
    EQ
    JUMPI @fixed
    REVERT
    dyn:
    POP
    PUSH 1
    PUSH 5
    PUSH 1
    CALLDATALOAD
    HASHN 2
    SSTORE
    STOP
    fixed:
    POP
    PUSH 1
    PUSH 42
    SSTORE
    STOP
  )";
  const Bytes code = assemble(src);
  const auto summaries = analysis::summarize_selectors(BytesView(code));
  ASSERT_EQ(summaries.size(), 2u);

  const auto write_entries = [](const analysis::StorageFootprint& fp) {
    std::vector<analysis::FootprintEntry> out;
    for (const auto& e : fp.entries)
      if (e.kind == Kind::Write) out.push_back(e);
    return out;
  };

  const auto dyn = write_entries(summaries[0].footprint);
  ASSERT_EQ(dyn.size(), 1u);
  EXPECT_EQ(analysis::key_class_of(dyn[0].key), analysis::KeyClass::Param);
  ASSERT_NE(dyn[0].key.sym, nullptr);
  EXPECT_EQ(analysis::key_to_string(dyn[0].key), "H(5, calldata[1])");

  const auto fixed = write_entries(summaries[1].footprint);
  ASSERT_EQ(fixed.size(), 1u);
  EXPECT_EQ(analysis::key_class_of(fixed[0].key), analysis::KeyClass::Exact);
  EXPECT_EQ(fixed[0].key.value, 42u);

  EXPECT_EQ(analysis::summary_for(summaries, {1, 9}), &summaries[0]);
  EXPECT_EQ(analysis::summary_for(summaries, {2}), &summaries[1]);
  EXPECT_EQ(analysis::summary_for(summaries, {3}), nullptr);
  EXPECT_EQ(analysis::summary_for(summaries, {}), nullptr);
}

// Affine keys wrap mod 2^64 exactly like the VM's arithmetic: the
// concretized cell must equal the traced one even when scale*param
// overflows.
TEST(Symbolic, AffineOverflowWrapsLikeTheVm) {
  const char* src = R"(
    PUSH 9
    PUSH 1
    CALLDATALOAD
    PUSH 18446744073709551615
    MUL
    PUSH 5
    ADD
    SSTORE
    STOP
  )";
  const AnalysisReport r = analyze_asm(src);
  ASSERT_EQ(r.footprint.entries.size(), 1u);
  const analysis::AbsValue& key = r.footprint.entries[0].key;
  ASSERT_EQ(analysis::key_class_of(key), analysis::KeyClass::Param);
  ASSERT_NE(key.sym, nullptr);
  EXPECT_EQ(analysis::key_to_string(key),
            "18446744073709551615*calldata[1]+5");

  Storage storage;
  ExecContext ctx;
  ctx.calldata = {0, 7};
  ExecTrace trace;
  ctx.trace = &trace;
  NullHost host;
  ASSERT_TRUE(execute(BytesView(assemble(src)), storage, ctx, host).ok());
  // 7 * (2^64 - 1) + 5 ≡ -2 mod 2^64.
  EXPECT_EQ(trace.writes, (std::set<Word>{0xffff'ffff'ffff'fffeULL}));

  const analysis::ConcreteFootprint cf =
      analysis::concretize_footprint(r.footprint, analysis::env_of(ctx));
  EXPECT_TRUE(cf.writes_exact);
  EXPECT_EQ(cf.writes, trace.writes);
}

// HashN over a mixed Const/Param tuple: the symbolic hash must evaluate
// to the identical sha256 folding the interpreter performs.
TEST(Symbolic, HashOfMixedConstParamTupleMatchesTheVm) {
  const char* src = R"(
    PUSH 1
    PUSH 5
    PUSH 2
    CALLDATALOAD
    PUSH 9
    HASHN 3
    SSTORE
    STOP
  )";
  const AnalysisReport r = analyze_asm(src);
  ASSERT_EQ(r.footprint.entries.size(), 1u);
  const analysis::AbsValue& key = r.footprint.entries[0].key;
  ASSERT_NE(key.sym, nullptr);
  EXPECT_EQ(analysis::key_to_string(key), "H(5, calldata[2], 9)");

  Storage storage;
  ExecContext ctx;
  ctx.calldata = {0, 0, 77};
  ExecTrace trace;
  ctx.trace = &trace;
  NullHost host;
  ASSERT_TRUE(execute(BytesView(assemble(src)), storage, ctx, host).ok());

  const analysis::ConcreteFootprint cf =
      analysis::concretize_footprint(r.footprint, analysis::env_of(ctx));
  EXPECT_TRUE(cf.writes_exact);
  EXPECT_EQ(cf.writes, trace.writes);
}

// Join of two distinct symbolic keys must widen to plain Param — the
// merged key concretizes to "unknown", never to one of the two cells.
TEST(Symbolic, JoinOfDistinctKeysWidensAndRefusesToConcretize) {
  using Kind = analysis::FootprintEntry::Kind;
  const char* src = R"(
    PUSH 9
    PUSH 0
    CALLDATALOAD
    JUMPI @alt
    PUSH 1
    CALLDATALOAD
    JUMP @store
    alt:
    PUSH 1
    CALLDATALOAD
    PUSH 5
    ADD
    store:
    SSTORE
    STOP
  )";
  const AnalysisReport r = analyze_asm(src);
  // Whatever the fixpoint recorded at the store site, no entry may claim
  // an exact constant cell, and the merged Param key must make the
  // concretized write set inexact (fall back to unbounded).
  bool saw_widened = false;
  for (const auto& e : r.footprint.entries) {
    ASSERT_EQ(e.kind, Kind::Write);
    EXPECT_NE(analysis::key_class_of(e.key), analysis::KeyClass::Exact);
    if (e.key.cls == analysis::ValueClass::Param && e.key.sym == nullptr)
      saw_widened = true;
  }
  EXPECT_TRUE(saw_widened);

  ExecContext ctx;
  ctx.calldata = {1, 30};
  const analysis::ConcreteFootprint cf =
      analysis::concretize_footprint(r.footprint, analysis::env_of(ctx));
  EXPECT_FALSE(cf.writes_exact);
}

// Env-keyed footprints concretize only when the environment value is
// known: caller-keyed cells resolve under a full ExecContext env, but a
// scheduling-time env with no timestamp must refuse a Timestamp key.
TEST(Symbolic, EnvKeysConcretizeOnlyWhenTheEnvValueIsKnown) {
  const char* caller_src = R"(
    PUSH 1
    PUSH 3
    CALLER
    HASHN 2
    SSTORE
    STOP
  )";
  const AnalysisReport r = analyze_asm(caller_src);
  ASSERT_EQ(r.footprint.entries.size(), 1u);
  EXPECT_EQ(analysis::key_to_string(r.footprint.entries[0].key),
            "H(3, caller)");

  Storage storage;
  ExecContext ctx;
  ctx.caller = 1234;
  ExecTrace trace;
  ctx.trace = &trace;
  NullHost host;
  ASSERT_TRUE(
      execute(BytesView(assemble(caller_src)), storage, ctx, host).ok());
  const analysis::ConcreteFootprint cf =
      analysis::concretize_footprint(r.footprint, analysis::env_of(ctx));
  EXPECT_TRUE(cf.writes_exact);
  EXPECT_EQ(cf.writes, trace.writes);

  // Same env minus the caller: the key must refuse to concretize.
  analysis::SymbolicEnv no_caller;
  no_caller.calldata = &ctx.calldata;
  EXPECT_FALSE(
      analysis::concretize_footprint(r.footprint, no_caller).writes_exact);

  const AnalysisReport ts = analyze_asm("PUSH 1\nTIMESTAMP\nSSTORE\nSTOP\n");
  ASSERT_EQ(ts.footprint.entries.size(), 1u);
  analysis::SymbolicEnv sched_env;  // scheduling time: no timestamp
  sched_env.calldata = &ctx.calldata;
  sched_env.caller = 1234;
  EXPECT_FALSE(
      analysis::concretize_footprint(ts.footprint, sched_env).writes_exact);
}

// ---------------------------------------------------------------------------
// Deployment admission
// ---------------------------------------------------------------------------

TEST(Admission, StoreRejectsTheFourRegressionInputs) {
  ContractStore store;

  const auto expect_rejected = [&store](Bytes code, const char* what) {
    EXPECT_THROW(store.deploy(std::move(code), /*deployer=*/1, /*height=*/1),
                 AdmissionError)
        << what;
  };

  {
    ByteWriter w;
    w.u8(0x01);  // PUSH
    w.u64(9999);
    w.u8(0x30);  // JUMP
    expect_rejected(w.take(), "out-of-bounds jump");
  }
  {
    ByteWriter w;
    w.u8(0x01);  // PUSH
    w.u64(2);    // lands inside this PUSH's immediate
    w.u8(0x30);  // JUMP
    expect_rejected(w.take(), "misaligned jump");
  }
  expect_rejected(Bytes{0x02}, "POP underflow");
  expect_rejected(Bytes(1100, 0x60), "CALLER-flood overflow");

  EXPECT_EQ(store.size(), 0u);  // nothing slipped through
}

TEST(Admission, PermissivePolicyRestoresOldBehaviour) {
  ContractStore store;
  store.set_admission_policy(analysis::AdmissionPolicy::permissive());
  // Stack-violating code deploys under permissive (the VM still traps it
  // at run time) — but malformed bytecode stays rejected.
  EXPECT_NO_THROW(store.deploy(Bytes{0x02}, 1, 1));
  EXPECT_THROW(store.deploy(Bytes{0xff}, 1, 1), AdmissionError);
}

TEST(Admission, StoredReportMatchesAFreshAnalysis) {
  ContractStore store;
  const Word id = store.deploy(contracts::PolicyContract::bytecode(), 1, 1);
  const DeployedContract* dc = store.contract(id);
  ASSERT_NE(dc, nullptr);
  const AnalysisReport fresh = analysis::analyze(BytesView(dc->code));
  EXPECT_EQ(dc->report.gas.max, fresh.gas.max);
  EXPECT_EQ(dc->report.stack.max_depth, fresh.stack.max_depth);
  EXPECT_EQ(dc->report.footprint.entries.size(),
            fresh.footprint.entries.size());
}

TEST(Admission, GasBoundPolicyLimitIsEnforced) {
  ContractStore store;
  analysis::AdmissionPolicy policy = analysis::AdmissionPolicy::strict();
  policy.max_gas_bound = 1;  // nothing real fits under this
  store.set_admission_policy(policy);
  EXPECT_THROW(store.deploy(contracts::PolicyContract::bytecode(), 1, 1),
               AdmissionError);
}

// ---------------------------------------------------------------------------
// Soundness: dynamic trace ⊆ static bounds over the whole fuzz corpus
// ---------------------------------------------------------------------------

class CorpusHost : public Host {
 public:
  std::optional<Word> oracle(Word request) override {
    if ((request & 7) == 0) return std::nullopt;
    return request * 2654435761ULL + 1;
  }
  void on_event(const Event&) override {}
  std::optional<Word> foreign_storage(Word contract_id, Word key) override {
    return contract_id ^ key;
  }
};

TEST(Soundness, CorpusReplayStaysInsideStaticBounds) {
  namespace fs = std::filesystem;
  const fs::path root(MEDCHAIN_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(root));

  std::size_t replayed = 0;
  for (const auto& dir : fs::directory_iterator(root)) {
    if (!dir.is_directory()) continue;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      const Bytes code((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());

      const AnalysisReport report = analysis::analyze(BytesView(code));

      Storage storage;
      storage[1] = 7;
      storage[42] = 9;
      ExecContext ctx;
      ctx.caller = 22;
      ctx.call_value = 33;
      ctx.height = 44;
      ctx.time_ms = 55;
      ctx.gas_limit = 100'000;
      ctx.step_limit = 50'000;
      ctx.calldata = {1, 2, 3, 0xdeadbeefULL};
      ExecTrace trace;
      ctx.trace = &trace;
      CorpusHost host;
      const ExecResult result = execute(BytesView(code), storage, ctx, host);

      EXPECT_EQ(analysis::soundness_violation(report, trace, result), "")
          << "corpus input " << entry.path();
      ++replayed;
    }
  }
  // Every corpus file doubles as a bytecode soundness probe; the corpus
  // must not silently vanish.
  EXPECT_GT(replayed, 20u);
}

// ---------------------------------------------------------------------------
// Per-block conflict reports
// ---------------------------------------------------------------------------

TEST(Conflict, TransfersCarryNoCellsAndDeploysShareTheRegistry) {
  using namespace mc::chain;
  const auto k1 = crypto::key_from_seed("conflict-a");
  const auto k2 = crypto::key_from_seed("conflict-b");
  const auto k3 = crypto::key_from_seed("conflict-c");
  const auto k4 = crypto::key_from_seed("conflict-d");

  // The ledger side of a tx is applied in block order at its commit slot
  // and never speculated, so transfers order nothing — not even two from
  // one sender, or one that credits another's sender.
  Block block;
  // tx0: a -> b, tx1: c -> d, tx2: a -> c (shares sender a, credits c).
  block.txs.push_back(
      make_transfer(k1, crypto::address_of(k2.pub), 10, /*nonce=*/0));
  block.txs.push_back(
      make_transfer(k3, crypto::address_of(k4.pub), 10, /*nonce=*/0));
  block.txs.push_back(
      make_transfer(k1, crypto::address_of(k3.pub), 10, /*nonce=*/1));

  const BlockConflictReport r =
      analyze_block_conflicts(block, /*store=*/nullptr);
  EXPECT_EQ(r.txs, 3u);
  EXPECT_EQ(r.pairs, 3u);
  EXPECT_EQ(r.conflicting_pairs, 0u);
  EXPECT_EQ(r.unbounded_txs, 0u);
  EXPECT_EQ(r.conflict_rate(), 0.0);

  // Deploys draw ids from one store nonce: they share the registry cell.
  const Bytes code = assemble("STOP");
  Block deploys;
  deploys.txs.push_back(make_deploy(k1, code, /*nonce=*/0));
  deploys.txs.push_back(make_deploy(k3, code, /*nonce=*/0));
  deploys.txs.push_back(
      make_transfer(k2, crypto::address_of(k4.pub), 10, /*nonce=*/0));
  EXPECT_EQ(analyze_block_conflicts(deploys, nullptr).conflicting_pairs, 1u);
}

TEST(Conflict, CallFootprintsComeFromTheStaticReport) {
  using namespace mc::chain;
  ContractStore store;
  // Two deployments of the fixed-slot counter: distinct ids, each with an
  // exact {key 7} footprint in its own storage namespace.
  const char* counter = R"(
    PUSH 7
    SLOAD
    PUSH 1
    ADD
    PUSH 7
    SSTORE
    STOP
  )";
  const Word id_a = store.deploy(assemble(counter), 1, 1);
  const Word id_b = store.deploy(assemble(counter), 1, 1);
  ASSERT_NE(id_a, id_b);

  const auto k1 = crypto::key_from_seed("caller-1");
  const auto k2 = crypto::key_from_seed("caller-2");
  Block block;
  block.txs.push_back(make_call(k1, id_a, {}, /*nonce=*/0));
  block.txs.push_back(make_call(k2, id_b, {}, /*nonce=*/0));

  const BlockConflictReport disjoint = analyze_block_conflicts(block, &store);
  EXPECT_EQ(disjoint.conflicting_pairs, 0u);
  EXPECT_EQ(disjoint.unbounded_txs, 0u);

  // Same contract from two callers: write/write on (id_a, key 7).
  Block clash;
  clash.txs.push_back(make_call(k1, id_a, {}, /*nonce=*/0));
  clash.txs.push_back(make_call(k2, id_a, {}, /*nonce=*/0));
  EXPECT_EQ(analyze_block_conflicts(clash, &store).conflicting_pairs, 1u);

  // Unknown contract: conservatively conflicts with everything.
  Block unknown;
  unknown.txs.push_back(make_call(k1, 0xdead, {}, /*nonce=*/0));
  unknown.txs.push_back(make_call(k2, id_b, {}, /*nonce=*/0));
  const BlockConflictReport u = analyze_block_conflicts(unknown, &store);
  EXPECT_EQ(u.conflicting_pairs, 1u);
  EXPECT_EQ(u.unbounded_txs, 1u);
}

}  // namespace
