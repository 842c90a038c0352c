// Differential harness for the contract VM: run one program through the
// production interpreter (vm::execute over a DecodedProgram) and through
// the byte-at-a-time reference (audit::reference_execute) under the same
// context and host answers, and compare everything a run exposes.
#pragma once

#include <ostream>
#include <vector>

#include "audit/vm_reference.hpp"
#include "common/rng.hpp"
#include "vm/vm.hpp"

namespace mc::vm::testing {

/// Everything observable about one run: result (halt, gas, steps,
/// returned words, write-set), the events the host received, the trace.
struct RecordedRun {
  ExecResult result;
  std::vector<Event> events;
  ExecTrace trace;

  friend bool operator==(const RecordedRun&, const RecordedRun&) = default;
};

inline void PrintTo(const RecordedRun& run, std::ostream* os) {
  *os << "{halt " << halt_name(run.result.halt) << ", gas "
      << run.result.gas_used << ", steps " << run.result.steps
      << ", returned " << run.result.returned.size() << ", writes "
      << run.result.writes.size() << ", events " << run.events.size()
      << ", reads " << run.trace.reads.size() << ", writes traced "
      << run.trace.writes.size() << ", foreign "
      << run.trace.foreign_reads.size() << ", max_stack "
      << run.trace.max_stack << "}";
}

/// Deterministic host: answers ORACLE with a pure function of the
/// request (failing one request in eight), serves SXLOAD from a pure
/// function of (contract, key), and records events.
class ScriptedHost : public Host {
 public:
  std::optional<Word> oracle(Word request) override {
    if ((request & 7) == 7) return std::nullopt;
    return request * 2654435761ULL + 1;
  }
  void on_event(const Event& event) override { events.push_back(event); }
  std::optional<Word> foreign_storage(Word contract_id, Word key) override {
    return (contract_id ^ (key * 0x9e3779b97f4a7c15ULL)) & 3;
  }

  std::vector<Event> events;
};

inline RecordedRun run_decoded(const DecodedProgram& program,
                               const Storage& storage, ExecContext ctx) {
  RecordedRun run;
  ScriptedHost host;
  ctx.trace = &run.trace;
  run.result = execute(program, storage, ctx, host);
  run.events = std::move(host.events);
  return run;
}

inline RecordedRun run_reference(BytesView code, const Storage& storage,
                                 ExecContext ctx) {
  RecordedRun run;
  ScriptedHost host;
  ctx.trace = &run.trace;
  run.result = audit::reference_execute(code, storage, ctx, host);
  run.events = std::move(host.events);
  return run;
}

/// A random program that mostly keeps its stack in bounds: ops are drawn
/// so the fall-through depth covers their pops, and jumps take constant
/// targets, mostly at a boundary of the same fall-through depth
/// (backwards too, so loops run into the gas and step limits). Many
/// such programs are analyzer-clean; the rest exercise the checked
/// instantiation.
inline Bytes structured_program(Rng& rng, std::size_t instructions) {
  static constexpr Op kOps[] = {
      Op::Pop,      Op::Dup,       Op::Swap,      Op::Add,
      Op::Sub,      Op::Mul,       Op::Div,       Op::Mod,
      Op::Lt,       Op::Gt,        Op::Eq,        Op::IsZero,
      Op::And,      Op::Or,        Op::Xor,       Op::Not,
      Op::Shl,      Op::Shr,       Op::CallDataLoad, Op::CallDataSize,
      Op::SLoad,    Op::SStore,    Op::SxLoad,    Op::Caller,
      Op::CallValue, Op::Height,   Op::Timestamp, Op::GasLeft,
      Op::Emit,     Op::HashN,     Op::Oracle,
  };
  struct Site {
    std::size_t offset;
    std::size_t depth;  ///< fall-through stack depth there
  };
  Bytes code;
  std::vector<Site> boundaries;
  std::vector<Site> jump_slots;  // PUSH immediates to patch
  std::size_t depth = 0;
  const auto emit = [&](Op op, Word imm) {
    boundaries.push_back({code.size(), depth});
    code.push_back(static_cast<std::uint8_t>(op));
    for (int i = 0; i < immediate_width(op); ++i)
      code.push_back(static_cast<std::uint8_t>(imm >> (8 * i)));
  };
  for (std::size_t n = 0; n < instructions; ++n) {
    const std::uint64_t pick = rng.uniform(16);
    if (pick < 4 || depth == 0) {
      emit(Op::Push, rng.uniform(4) == 0 ? rng.next() : rng.uniform(8));
      ++depth;
      continue;
    }
    if (pick == 4) {
      // PUSH cond? PUSH target; JUMP or JUMPI.
      const bool conditional = rng.uniform(3) != 0;
      const std::size_t slot = code.size() + 1;
      emit(Op::Push, 0);
      ++depth;
      emit(conditional ? Op::JumpI : Op::Jump, 0);
      depth -= conditional ? 2 : 1;
      jump_slots.push_back({slot, depth});
      continue;
    }
    const Op op = kOps[rng.uniform(std::size(kOps))];
    Word imm = 0;
    std::size_t pops = 0;
    std::size_t pushes = 1;
    switch (op) {
      case Op::Dup: imm = 1 + rng.uniform(depth); pops = 0; break;
      case Op::Swap:
        if (depth < 2) continue;
        imm = 1 + rng.uniform(depth - 1);
        pushes = 0;
        break;
      case Op::Emit:
        imm = rng.uniform(depth);
        pops = imm + 1;
        pushes = 0;
        break;
      case Op::HashN:
        imm = 1 + rng.uniform(std::min<std::size_t>(depth, 4));
        pops = imm;
        break;
      case Op::Pop: pops = 1; pushes = 0; break;
      case Op::SStore: pops = 2; pushes = 0; break;
      case Op::CallDataSize: case Op::Caller: case Op::CallValue:
      case Op::Height: case Op::Timestamp: case Op::GasLeft:
        break;
      case Op::IsZero: case Op::Not: case Op::CallDataLoad: case Op::SLoad:
      case Op::Oracle:
        pops = 1;
        break;
      default: pops = 2; break;
    }
    if (pops > depth) continue;
    emit(op, imm);
    depth = depth - pops + pushes;
  }
  emit(rng.uniform(2) == 0 ? Op::Stop : Op::Return,
       std::min<std::size_t>(depth, 2));
  for (const Site& jump : jump_slots) {
    // Same-depth targets keep loops stack-balanced, which keeps them
    // clean and their analysis cheap.
    std::vector<std::size_t> balanced;
    for (const Site& b : boundaries)
      if (b.depth == jump.depth) balanced.push_back(b.offset);
    const Word target = !balanced.empty() && rng.uniform(8) != 0
                            ? balanced[rng.uniform(balanced.size())]
                            : boundaries[rng.uniform(boundaries.size())].offset;
    for (int i = 0; i < 8; ++i)
      code[jump.offset + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(target >> (8 * i));
  }
  return code;
}

}  // namespace mc::vm::testing
