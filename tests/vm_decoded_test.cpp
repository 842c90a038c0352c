// Decoded programs (DESIGN.md §12): the opcode table, lowering, and a
// gas/step limit sweep of every built-in contract and the perfbench
// contract shapes against the byte-at-a-time reference interpreter.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "contracts/analytics.hpp"
#include "contracts/policy.hpp"
#include "contracts/registry.hpp"
#include "contracts/trial.hpp"
#include "vm/analysis/analysis.hpp"
#include "vm/assembler.hpp"
#include "vm/vm.hpp"
#include "vm_differential.hpp"

namespace mc::vm {
namespace {

using testing::RecordedRun;
using testing::run_decoded;
using testing::run_reference;

// The perfbench ingest_contract shapes: the mixer (selector 1 runs
// calldata[1] rounds of an LCG/xorshift mix into storage[1]) and the
// patient record (the same mix folded into storage[H(7, calldata[3])]).
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

// GASLEFT in the middle of straight-line runs (one entered by a jump
// into its middle), and an ORACLE the host answers between them.
const char* kGasLeftOracleSource = R"(
PUSH 3
PUSH 4
ADD
GASLEFT
PUSH 1
PUSH @mid
JUMPI
PUSH 5
mid:
PUSH 6
GASLEFT
PUSH 9
ORACLE
GASLEFT
ADD
PUSH 11
SSTORE
EMIT 2
RETURN 1
)";

// Traps partway through a straight-line run, after the whole run was
// charged on entry: the part after the trapping instruction is refunded.
const char* kDivideByZeroMidRunSource = R"(
PUSH 5
PUSH 0
DIV
PUSH 1
PUSH 2
ADD
RETURN 1
)";
const char* kDeniedOracleMidRunSource = R"(
GASLEFT
PUSH 15
ORACLE
PUSH 1
SSTORE
STOP
)";

TEST(OpcodeTable, AgreesWithTheMnemonicList) {
  std::size_t defined = 0;
  for (unsigned b = 0; b < 256; ++b) {
    const auto byte = static_cast<std::uint8_t>(b);
    const std::string_view name = mnemonic(static_cast<Op>(byte));
    EXPECT_EQ(is_valid_op(byte), name != "UNKNOWN") << "byte " << b;
    if (!is_valid_op(byte)) continue;
    ++defined;
    const std::optional<Op> back = op_from_mnemonic(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(static_cast<unsigned>(*back), b) << name;
  }
  EXPECT_EQ(defined, 37u);
  EXPECT_FALSE(is_valid_op(
      static_cast<std::uint8_t>(DecodedProgram::kBadInstr)));
  EXPECT_FALSE(is_valid_op(
      static_cast<std::uint8_t>(DecodedProgram::kEndOfCode)));
}

TEST(Lowering, ChargesEachStraightLineRunOnEntry) {
  // Runs: [PUSH PUSH JUMPI] [PUSH STOP] [end]; the JUMPI target starts
  // mid-program but the sums are per instruction, so entry anywhere
  // charges exactly the rest of its run.
  const Bytes code = assemble("PUSH 1\nPUSH @t\nJUMPI\nPUSH 2\nt:\nSTOP");
  const DecodedProgram p = lower(BytesView(code));
  ASSERT_EQ(p.instrs.size(), 6u);
  EXPECT_EQ(p.instrs[0].run_gas, 3u + 3u + 8u);
  EXPECT_EQ(p.instrs[0].run_steps, 3u);
  EXPECT_EQ(p.instrs[2].run_gas, 8u);
  EXPECT_EQ(p.instrs[3].run_gas, 6u);
  EXPECT_EQ(p.instrs[4].run_gas, 3u);
  EXPECT_EQ(p.instrs[4].run_steps, 1u);
  EXPECT_EQ(p.instrs[5].op, DecodedProgram::kEndOfCode);
  EXPECT_EQ(p.instrs[5].run_steps, 0u);
  EXPECT_EQ(p.index_at[code.size() - 1], 4u);
  EXPECT_EQ(p.index_at[1], DecodedProgram::kNoInstr);  // inside PUSH's imm

  NullHost host;
  const ExecResult r = execute(p, {}, ExecContext{}, host);
  EXPECT_EQ(r.halt, Halt::Stop);
  EXPECT_EQ(r.gas_used, 3u + 3u + 8u + 3u);
  EXPECT_EQ(r.steps, 4u);
}

TEST(Lowering, CleanAnalysisDropsTheStackChecks) {
  // Every built-in contract is admitted under the strict policy, which
  // is what makes its report clean: the store runs it unchecked.
  for (const char* source :
       {contracts::PolicyContract::source(),
        contracts::RegistryContract::source(),
        contracts::AnalyticsContract::source(),
        contracts::TrialContract::source(), kMixerSource, kRecordSource,
        kGasLeftOracleSource}) {
    const Bytes code = assemble(source);
    EXPECT_FALSE(lower(BytesView(code), analysis::analyze(BytesView(code)))
                     .stack_checked);
    EXPECT_TRUE(lower(BytesView(code)).stack_checked);
  }
  // Possible underflow keeps them.
  const Bytes underflow =
      assemble("CALLDATASIZE\nPUSH @x\nJUMPI\nPUSH 1\nx:\nPOP\nSTOP");
  EXPECT_TRUE(
      lower(BytesView(underflow), analysis::analyze(BytesView(underflow)))
          .stack_checked);
}

/// Runs `code` once with room to finish, then again at every gas limit
/// from 0 to its budget and every step limit from 0 to its step count,
/// through both decoded instantiations and the reference. Returns the
/// number of distinct instructions an OutOfGas trap landed on.
std::size_t sweep(const Bytes& code, const Storage& storage,
                  ExecContext ctx, const std::string& what) {
  const DecodedProgram checked = lower(BytesView(code));
  const DecodedProgram analyzed =
      lower(BytesView(code), analysis::analyze(BytesView(code)));
  const auto agree = [&](const ExecContext& c, const std::string& where) {
    const RecordedRun reference = run_reference(BytesView(code), storage, c);
    EXPECT_EQ(run_decoded(checked, storage, c), reference)
        << what << " checked, " << where;
    EXPECT_EQ(run_decoded(analyzed, storage, c), reference)
        << what << " analyzed, " << where;
    return reference;
  };
  const RecordedRun full = agree(ctx, "unlimited");
  std::set<std::uint64_t> oog_at;
  const ExecContext base = ctx;
  for (std::uint64_t gas = 0; gas <= full.result.gas_used; ++gas) {
    ctx = base;
    ctx.gas_limit = gas;
    const RecordedRun r = agree(ctx, "gas_limit " + std::to_string(gas));
    if (r.result.halt == Halt::OutOfGas) oog_at.insert(r.result.steps);
  }
  for (std::uint64_t steps = 0; steps <= full.result.steps; ++steps) {
    ctx = base;
    ctx.step_limit = steps;
    agree(ctx, "step_limit " + std::to_string(steps));
  }
  // Every retired instruction of the unlimited run costs gas, so some
  // limit in the sweep stops the run at each one of them.
  EXPECT_EQ(oog_at.size(), full.result.steps) << what;
  return oog_at.size();
}

TEST(LimitSweep, PerfbenchShapesAndMidRunProbes) {
  ExecContext ctx;
  ctx.gas_limit = 1'000'000;
  ctx.calldata = {1, 3, 0x5eed, 42};
  EXPECT_GT(sweep(assemble(kMixerSource), {{1, 9}}, ctx, "mixer"), 60u);
  EXPECT_GT(sweep(assemble(kRecordSource), {}, ctx, "record"), 60u);
  ctx.calldata = {0};
  sweep(assemble(kMixerSource), {{1, 9}}, ctx, "mixer read");
  sweep(assemble(kRecordSource), {}, ctx, "record revert");

  const Bytes probe = assemble(kGasLeftOracleSource);
  ctx.calldata = {};
  const RecordedRun run = run_reference(BytesView(probe), {}, ctx);
  ASSERT_EQ(run.result.halt, Halt::Return) << "the host answers ORACLE 9";
  EXPECT_EQ(run.events.size(), 1u);
  sweep(probe, {}, ctx, "gasleft/oracle");

  for (const auto& [source, halt] :
       {std::pair{kDivideByZeroMidRunSource, Halt::DivideByZero},
        std::pair{kDeniedOracleMidRunSource, Halt::OracleFailure}}) {
    const Bytes code = assemble(source);
    const RecordedRun trapped = run_reference(BytesView(code), {}, ctx);
    ASSERT_EQ(trapped.result.halt, halt);
    EXPECT_EQ(trapped.result.steps, 3u);
    sweep(code, {}, ctx, std::string(halt_name(halt)) + " mid-run");
  }
}

TEST(LimitSweep, EveryBuiltinContract) {
  // Each selector twice with fixed arguments, in order, folding the
  // write-sets of calls that succeed: registrations made by the first
  // pass let the second reach the grant, check and update paths.
  for (const char* source :
       {contracts::PolicyContract::source(),
        contracts::RegistryContract::source(),
        contracts::AnalyticsContract::source(),
        contracts::TrialContract::source()}) {
    const Bytes code = assemble(source);
    const std::vector<Word> selectors =
        analysis::discover_selectors(BytesView(code));
    ASSERT_FALSE(selectors.empty());
    Storage storage;
    std::size_t ok_calls = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Word selector : selectors) {
        ExecContext ctx;
        ctx.contract_id = 77;
        ctx.caller = 7;
        ctx.height = 3;
        ctx.time_ms = 1000;
        ctx.gas_limit = 100'000;
        ctx.calldata = {selector, 5, 9, 2, 3};
        const std::string what = "selector " + std::to_string(selector) +
                                 " pass " + std::to_string(pass);
        sweep(code, storage, ctx, what);
        const RecordedRun r = run_reference(BytesView(code), storage, ctx);
        if (r.result.ok()) {
          fold_writes(storage, r.result.writes);
          ++ok_calls;
        }
      }
    }
    EXPECT_GT(ok_calls, selectors.size() / 2) << "too few calls get past "
                                                 "their guards to sweep deep "
                                                 "paths";
  }
}

}  // namespace
}  // namespace mc::vm
