// Micro-benchmarks: contract VM dispatch, storage ops, full contract
// calls (google-benchmark).
#include <benchmark/benchmark.h>

#include "audit/vm_reference.hpp"
#include "contracts/policy.hpp"
#include "vm/analysis/analysis.hpp"
#include "vm/assembler.hpp"
#include "vm/contract_store.hpp"
#include "vm/vm.hpp"

namespace {

using namespace mc;
using namespace mc::vm;

void BM_OpcodeDispatchLoop(benchmark::State& state) {
  // Tight arithmetic loop: measures raw instruction dispatch rate.
  const Bytes code = assemble(R"(
PUSH 0
loop:
PUSH 1
ADD
DUP 1
PUSH 10000
LT
JUMPI @loop
RETURN 1
)");
  Storage storage;
  ExecContext ctx;
  ctx.gas_limit = ~0ULL;
  NullHost host;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const ExecResult result = execute(BytesView(code), storage, ctx, host);
    benchmark::DoNotOptimize(result.returned);
    steps += result.steps;
  }
  state.counters["instr_per_s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OpcodeDispatchLoop);

// The perfbench ingest_contract mixer: selector 1 runs calldata[1]
// rounds of an LCG/xorshift mix and folds the result into storage[1].
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

void BM_MixerCall(benchmark::State& state) {
  // One 1,000-round mixer call (about 18k steps): arg 0 runs the program
  // lowered at deployment, as ContractStore does; arg 1 the byte-at-a-
  // time reference. s_per_step is the time per retired instruction.
  const bool reference = state.range(0) == 1;
  const Bytes code = assemble(kMixerSource);
  const DecodedProgram program =
      lower(BytesView(code), analysis::analyze(BytesView(code)));
  Storage storage{{1, 5}};
  ExecContext ctx;
  ctx.calldata = {1, 1000, static_cast<Word>(state.range(0)) + 17};
  NullHost host;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const ExecResult result =
        reference ? audit::reference_execute(BytesView(code), storage, ctx, host)
                  : execute(program, storage, ctx, host);
    benchmark::DoNotOptimize(result.writes);
    steps += result.steps;
  }
  state.SetLabel(reference ? "reference" : "decoded");
  state.counters["s_per_step"] = benchmark::Counter(
      static_cast<double>(steps),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MixerCall)->Arg(0)->Arg(1);

void BM_StorageWrites(benchmark::State& state) {
  const Bytes code = assemble(R"(
PUSH 0
loop:
DUP 1
DUP 2
SSTORE
PUSH 1
ADD
DUP 1
PUSH 100
LT
JUMPI @loop
STOP
)");
  ExecContext ctx;
  ctx.gas_limit = ~0ULL;
  NullHost host;
  for (auto _ : state) {
    Storage storage;  // fresh map per run
    const ExecResult result = execute(BytesView(code), storage, ctx, host);
    fold_writes(storage, result.writes);
    benchmark::DoNotOptimize(storage);
  }
}
BENCHMARK(BM_StorageWrites);

void BM_ContractCallStorageSize(benchmark::State& state) {
  // One SSTORE call into a contract already holding N cells, through the
  // store inside an open block (undo record live). A call costs what it
  // touches, so this stays flat in N.
  const auto cells = static_cast<Word>(state.range(0));
  ContractStore store;
  const Word id = store.deploy(
      assemble("PUSH 2\nCALLDATALOAD\nPUSH 1\nCALLDATALOAD\nSSTORE\nSTOP"),
      1, 1);
  ExecContext ctx;
  ctx.calldata = {0, 0, 1};
  for (Word key = 0; key < cells; ++key) {
    ctx.calldata[1] = key;
    store.call(id, ctx);
  }
  store.snapshot(1);
  Word n = 0;
  for (auto _ : state) {
    ctx.calldata[1] = n % cells;
    ctx.calldata[2] = ++n;
    benchmark::DoNotOptimize(store.call(id, ctx));
  }
  state.counters["cells"] = static_cast<double>(store.contract(id)->storage.size());
}
BENCHMARK(BM_ContractCallStorageSize)->Arg(1000)->Arg(10000);

void BM_PolicyCheckCall(benchmark::State& state) {
  // Full contract-call path: the gate the transform pays per task.
  ContractStore store;
  contracts::PolicyContract policy(store, 1, 1);
  policy.register_dataset(0x10, 0xd5);
  policy.grant(0x10, 0xd5, 0x20, contracts::kPermCompute);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        policy.check(0xd5, 0x20, contracts::kPermCompute));
}
BENCHMARK(BM_PolicyCheckCall);

void BM_Assemble(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        assemble(contracts::PolicyContract::source()));
}
BENCHMARK(BM_Assemble);

void BM_AnalyzeContract(benchmark::State& state) {
  // Static-analyzer throughput over the largest builtin contract: the
  // one-time cost the deployment admission gate adds per contract.
  const Bytes code = assemble(contracts::PolicyContract::source());
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const analysis::AnalysisReport report = analysis::analyze(BytesView(code));
    benchmark::DoNotOptimize(report.stack.max_depth);
    bytes += code.size();
  }
  state.counters["bytecode_bytes_per_s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyzeContract);

void BM_HashNOpcode(benchmark::State& state) {
  const Bytes code = assemble("PUSH 1\nPUSH 2\nPUSH 3\nHASHN 3\nRETURN 1");
  Storage storage;
  ExecContext ctx;
  NullHost host;
  for (auto _ : state)
    benchmark::DoNotOptimize(execute(BytesView(code), storage, ctx, host));
}
BENCHMARK(BM_HashNOpcode);

}  // namespace

BENCHMARK_MAIN();
