// Fuzz target: the static analyzer over arbitrary bytecode.
//
// analyze() runs at contract deployment on attacker-supplied bytes, so it
// must never crash, hang, or trip a sanitizer on ANY input — malformed
// programs surface as report fields, never as UB. On top of
// crash-freedom this target asserts the two contracts the rest of the
// system leans on:
//
//   * determinism — analyzing the same bytes twice yields the same
//     bounds (every node must reach the same admission verdict), and
//   * soundness — executing the same bytes under the VM with trace
//     recording must stay inside the static gas/stack/footprint bounds
//     (the same check the audit build enforces on every contract call).

#include "fuzz/harness/fuzz_common.hpp"
#include "fuzz/harness/fuzz_targets.hpp"

#include <string>

#include "vm/analysis/analysis.hpp"
#include "vm/vm.hpp"

namespace mc::fuzz {
namespace {

/// Deterministic oracle/event host (mirrors fuzz_vm_execute's).
class AnalyzeHost : public vm::Host {
 public:
  std::optional<vm::Word> oracle(vm::Word request) override {
    if ((request & 7) == 0) return std::nullopt;
    return request * 2654435761ULL + 1;
  }
  void on_event(const vm::Event&) override {}
  std::optional<vm::Word> foreign_storage(vm::Word contract_id,
                                          vm::Word key) override {
    return contract_id ^ key;  // deterministic cross-contract view
  }
};

bool same_bounds(const vm::analysis::AnalysisReport& a,
                 const vm::analysis::AnalysisReport& b) {
  return a.well_formed == b.well_formed && a.incomplete == b.incomplete &&
         a.instruction_count == b.instruction_count &&
         a.invalid_jump_pcs == b.invalid_jump_pcs &&
         a.unresolved_jump_pcs == b.unresolved_jump_pcs &&
         a.stack.top == b.stack.top &&
         a.stack.max_depth == b.stack.max_depth &&
         a.gas.top == b.gas.top && a.gas.max == b.gas.max &&
         a.footprint.entries.size() == b.footprint.entries.size();
}

}  // namespace

int analyze(const std::uint8_t* data, std::size_t size) {
  const BytesView code = view(data, size);

  // Crash-freedom + determinism of the analyzer itself.
  const vm::analysis::AnalysisReport report = vm::analysis::analyze(code);
  const vm::analysis::AnalysisReport replay = vm::analysis::analyze(code);
  MC_FUZZ_EXPECT(same_bounds(report, replay),
                 "analysis is not deterministic");
  (void)vm::analysis::discover_selectors(code);
  (void)vm::analysis::admit(report, vm::analysis::AdmissionPolicy::strict());
  (void)vm::analysis::admit(report,
                            vm::analysis::AdmissionPolicy::permissive());

  // The static checker and the analyzer must agree on well-formedness.
  MC_FUZZ_EXPECT(report.well_formed == vm::code_well_formed(code),
                 "analyzer disagrees with code_well_formed");

  // Soundness: a concrete run of the same bytes must stay inside the
  // static bounds (gas, stack depth, storage footprint).
  const vm::Storage storage = {{1, 7}, {42, 9}};
  vm::ExecContext ctx;
  ctx.contract_id = 11;
  ctx.caller = 22;
  ctx.call_value = 33;
  ctx.height = 44;
  ctx.time_ms = 55;
  ctx.gas_limit = 100'000;
  ctx.step_limit = 50'000;
  ctx.calldata = {1, 2, 3, 0xdeadbeefULL};
  vm::ExecTrace trace;
  ctx.trace = &trace;
  AnalyzeHost host;
  // Lowered against its own report, as ContractStore runs admitted code:
  // a clean report drops the stack checks this run then relies on.
  const vm::ExecResult result =
      vm::execute(vm::lower(code, report), storage, ctx, host);
  // The returned write-set is bounded by the same trace: every buffered
  // key was traced as a write.
  for (const auto& entry : result.writes)
    MC_FUZZ_EXPECT(trace.writes.count(entry.first) > 0,
                   "write-set holds a key the trace never wrote");

  const std::string violation =
      vm::analysis::soundness_violation(report, trace, result);
  MC_FUZZ_EXPECT(violation.empty(), "static bounds violated by execution");

  // Concretization soundness: evaluating the symbolic footprint keys
  // against this call's concrete environment must cover every cell the
  // trace actually touched — the containment the parallel scheduler and
  // the audit-build DCHECK both rely on (DESIGN.md §13). Checked for the
  // whole-program report and for the per-selector summary that matches
  // this calldata, mirroring ContractStore's deploy-time cache.
  const vm::analysis::SymbolicEnv env = vm::analysis::env_of(ctx);
  if (!report.incomplete) {
    MC_FUZZ_EXPECT(
        vm::analysis::concretization_violation(report.footprint, env, trace)
            .empty(),
        "concretized whole-program footprint missed a traced cell");
  }
  const auto summaries = vm::analysis::summarize_selectors(code);
  if (const vm::analysis::SelectorSummary* sum =
          vm::analysis::summary_for(summaries, ctx.calldata);
      sum != nullptr && !sum->incomplete) {
    MC_FUZZ_EXPECT(
        vm::analysis::concretization_violation(sum->footprint, env, trace)
            .empty(),
        "concretized selector summary missed a traced cell");
  }
  return 0;
}

}  // namespace mc::fuzz
