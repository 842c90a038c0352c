// Fuzz target: vm::execute over arbitrary bytecode.
//
// Contract bytecode arrives on-chain through Deploy transactions, so the
// VM must run ANY byte string to a clean halt under tight gas/step caps:
// no sanitizer findings, no unbounded allocation, no crash. Because the
// chain replays contracts on every node, execution must also be
// perfectly deterministic — the same code, context and storage must
// yield the same halt, gas, return values, events, write-set and
// post-storage every time. Both properties are asserted here, plus
// crash-freedom of the static checker and the disassembler over the
// same bytes. Every run is also compared with the byte-at-a-time
// reference interpreter (audit/vm_reference.hpp) on the whole outcome,
// trace included: once lowered with every stack check, and once lowered
// against the bytes' static analysis, which drops the checks when the
// analysis is clean.

#include "fuzz/harness/fuzz_common.hpp"
#include "fuzz/harness/fuzz_targets.hpp"

#include <optional>
#include <string>
#include <vector>

#include "audit/vm_reference.hpp"
#include "vm/analysis/analysis.hpp"
#include "vm/assembler.hpp"
#include "vm/vm.hpp"

namespace mc::fuzz {
namespace {

/// Deterministic host: answers most oracle requests with a pure function
/// of the request word and fails the rest, so both the success and the
/// OracleFailure paths are exercised reproducibly.
class RecordingHost : public vm::Host {
 public:
  std::optional<vm::Word> oracle(vm::Word request) override {
    if ((request & 7) == 0) return std::nullopt;
    return request * 2654435761ULL + 1;
  }
  void on_event(const vm::Event& event) override { events.push_back(event); }

  std::vector<vm::Event> events;
};

struct RunOutcome {
  vm::ExecResult result;
  vm::Storage storage;
  std::vector<vm::Event> events;
  vm::ExecTrace trace;
};

/// One run of `code`: through `program` when given, else through the
/// reference interpreter.
RunOutcome run_once(BytesView code, const vm::DecodedProgram* program) {
  RunOutcome out;
  // Pre-seeded storage so SLOAD/SSTORE interact with existing keys.
  out.storage[1] = 7;
  out.storage[42] = 9;
  vm::ExecContext ctx;
  ctx.contract_id = 11;
  ctx.caller = 22;
  ctx.call_value = 33;
  ctx.height = 44;
  ctx.time_ms = 55;
  ctx.gas_limit = 100'000;   // tight: bounds work per input
  ctx.step_limit = 50'000;   // hard bound beyond gas
  ctx.calldata = {1, 2, 3, 0xdeadbeefULL};
  ctx.trace = &out.trace;
  RecordingHost host;
  out.result = program != nullptr
                   ? vm::execute(*program, out.storage, ctx, host)
                   : audit::reference_execute(code, out.storage, ctx, host);
  vm::fold_writes(out.storage, out.result.writes);
  out.events = std::move(host.events);
  return out;
}

bool same_outcome(const RunOutcome& a, const RunOutcome& b) {
  return a.result == b.result && a.storage == b.storage &&
         a.events == b.events && a.trace == b.trace;
}

}  // namespace

int vm_execute(const std::uint8_t* data, std::size_t size) {
  const BytesView code = view(data, size);

  // Static checks must never crash on arbitrary bytes.
  const bool well_formed = vm::code_well_formed(code);
  const std::string listing = vm::disassemble(code);
  MC_FUZZ_EXPECT(vm::disassemble(code) == listing,
                 "disassemble is not deterministic");

  const vm::DecodedProgram checked = vm::lower(code);
  const RunOutcome a = run_once(code, &checked);
  MC_FUZZ_EXPECT(a.result.gas_used <= 100'000, "gas accounting exceeded cap");
  MC_FUZZ_EXPECT(a.result.steps <= 50'001, "step count exceeded its limit");
  if (!a.result.ok()) {
    // Failed runs are all-or-nothing: no write-set, storage untouched.
    MC_FUZZ_EXPECT(a.result.writes.empty(),
                   "failed execution returned a write-set");
    vm::Storage pristine;
    pristine[1] = 7;
    pristine[42] = 9;
    MC_FUZZ_EXPECT(a.storage == pristine,
                   "failed execution leaked storage writes");
  }

  // Replay determinism: a second run must agree bit-for-bit.
  const RunOutcome b = run_once(code, &checked);
  MC_FUZZ_EXPECT(same_outcome(a, b), "run diverged on replay");

  // The lowered program, with and without its stack checks, against the
  // byte-at-a-time reference.
  const RunOutcome reference = run_once(code, nullptr);
  MC_FUZZ_EXPECT(same_outcome(a, reference),
                 "checked decoded program disagrees with the reference");
  const vm::DecodedProgram analyzed =
      vm::lower(code, vm::analysis::analyze(code));
  MC_FUZZ_EXPECT(same_outcome(run_once(code, &analyzed), reference),
                 "analyzed decoded program disagrees with the reference");

  // A program the static checker accepts must still halt cleanly — the
  // checker is a pre-filter, never a substitute for runtime traps.
  (void)well_formed;
  return 0;
}

}  // namespace mc::fuzz
