#include "vm/vm.hpp"

#include <algorithm>
#include <array>

#include "audit/check.hpp"
#include "crypto/sha256.hpp"
#include "vm/analysis/analysis.hpp"

namespace mc::vm {
namespace {

using Instr = DecodedProgram::Instr;

/// True for the instructions that end a straight-line run: they halt or
/// transfer control, so the instruction after them starts a new run.
bool ends_run(Op op) {
  return op == Op::Stop || op == Op::Jump || op == Op::JumpI ||
         op == Op::Return || op == Op::Revert ||
         op == DecodedProgram::kBadInstr || op == DecodedProgram::kEndOfCode;
}

/// Fill in `out`'s stack effect: the depth the op pops from and whether
/// it grows the stack (the only ops that can overflow).
void set_stack_effect(Instr& out, Word imm) {
  const auto depth = [&](Word n) {
    return static_cast<std::uint16_t>(n == 0 ? DecodedProgram::kAlwaysUnderflows
                                             : n);
  };
  switch (out.op) {
    case Op::Push:
    case Op::CallDataSize:
    case Op::Caller:
    case Op::CallValue:
    case Op::Height:
    case Op::Timestamp:
    case Op::GasLeft:
      out.pushes = true;
      break;
    case Op::Dup:
      out.pops = depth(imm);
      out.pushes = true;
      break;
    case Op::Swap:
      out.pops = imm == 0 ? DecodedProgram::kAlwaysUnderflows
                          : static_cast<std::uint16_t>(imm + 1);
      break;
    case Op::HashN:
      out.pops = depth(imm);
      break;
    case Op::Emit:
      out.pops = static_cast<std::uint16_t>(imm + 1);
      break;
    case Op::Return:
      out.pops = static_cast<std::uint16_t>(imm);
      break;
    case Op::Pop:
    case Op::IsZero:
    case Op::Not:
    case Op::Jump:
    case Op::CallDataLoad:
    case Op::SLoad:
    case Op::Oracle:
      out.pops = 1;
      break;
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod:
    case Op::Lt:
    case Op::Gt:
    case Op::Eq:
    case Op::And:
    case Op::Or:
    case Op::Xor:
    case Op::Shl:
    case Op::Shr:
    case Op::JumpI:
    case Op::SStore:
    case Op::SxLoad:
      out.pops = 2;
      break;
    case Op::Stop:
    case Op::Revert:
      break;
  }
}

DecodedProgram lower_program(BytesView code, bool stack_checked) {
  analysis::Program decoded = analysis::decode_program(code);
  DecodedProgram program;
  program.stack_checked = stack_checked;
  program.instrs.reserve(decoded.instrs.size() + 1);
  for (const analysis::Instr& in : decoded.instrs) {
    Instr out;
    out.imm = in.imm;
    if (in.valid) {
      out.op = in.op;
      out.gas = static_cast<std::uint16_t>(gas_cost(in.op));
      out.step = 1;
      set_stack_effect(out, in.imm);
    } else {
      out.op = DecodedProgram::kBadInstr;
    }
    program.instrs.push_back(out);
  }
  Instr end;
  end.op = DecodedProgram::kEndOfCode;
  program.instrs.push_back(end);

  // Suffix sums within each run, from its last instruction backwards.
  MC_ASSERT(program.instrs.size() <= UINT32_MAX,
            "program too long for a 32-bit step count");
  for (std::size_t i = program.instrs.size(); i-- > 0;) {
    Instr& in = program.instrs[i];
    in.run_gas = in.gas;
    in.run_steps = in.step;
    if (!ends_run(in.op)) {
      in.run_gas += program.instrs[i + 1].run_gas;
      in.run_steps += program.instrs[i + 1].run_steps;
    }
  }
  program.index_at = std::move(decoded.instr_at);
  static_assert(DecodedProgram::kNoInstr == analysis::Program::kNoInstr);
  return program;
}

/// The interpreter over a lowered program. kStackChecked keeps the
/// per-op stack checks; without them the program must be one whose
/// analysis proved that no run under- or overflows the stack.
template <bool kStackChecked>
ExecResult run(const DecodedProgram& program, const Storage& storage,
               const ExecContext& ctx, Host& host) {
  ExecResult result;
  WriteSet writes;  // handed out only on success
  std::vector<Event> events;
  std::array<Word, kMaxStack> stack;  // only slots below sp are read
  std::size_t sp = 0;
  std::size_t high = 0;  // peak depth, for ExecTrace::max_stack
  const Instr* const instrs = program.instrs.data();
  std::size_t next = 0;
  std::uint64_t gas = 0;
  std::uint64_t steps = 0;
  // The current run did not fit the limits and is charged per
  // instruction, so OutOfGas and StepLimit trap where the reference
  // traps.
  bool metered = false;

  const auto enter = [&](std::size_t at) {
    next = at;
    const Instr& head = instrs[at];
    metered = gas + head.run_gas > ctx.gas_limit ||
              steps + head.run_steps > ctx.step_limit;
    if (!metered) {
      gas += head.run_gas;
      steps += head.run_steps;
    }
  };
  // Gas charged on entry to a whole run for the instructions after `in`,
  // which never retired.
  const auto unretired_gas = [&](const Instr& in) -> std::uint64_t {
    return metered ? 0 : in.run_gas - in.gas;
  };
  const auto halt = [&](Halt h, const Instr& in) {
    gas -= unretired_gas(in);
    if (!metered) steps -= in.run_steps - in.step;
    result.halt = h;
    result.gas_used = std::min(gas, ctx.gas_limit);
    result.steps = steps;
    if (ctx.trace != nullptr)
      ctx.trace->max_stack = std::max(ctx.trace->max_stack, high);
    if (halted_ok(h)) {
      result.writes = std::move(writes);
      for (const auto& ev : events) host.on_event(ev);
    }
    return std::move(result);
  };
  const auto push = [&](Word v) {
    stack[sp++] = v;
    high = std::max(high, sp);
  };
  const auto pop = [&]() { return stack[--sp]; };
  // Pops b, then a; pushes f(a, b).
  const auto binary = [&](auto f) {
    const Word b = pop();
    stack[sp - 1] = f(stack[sp - 1], b);
  };
  const auto jump_index = [&](Word target) {
    return target < program.index_at.size()
               ? program.index_at[static_cast<std::size_t>(target)]
               : DecodedProgram::kNoInstr;
  };

  enter(0);
  for (;;) {
    const Instr& in = instrs[next++];
    if (metered) [[unlikely]] {
      gas += in.gas;
      if (gas > ctx.gas_limit) return halt(Halt::OutOfGas, in);
      steps += in.step;
      if (steps > ctx.step_limit) return halt(Halt::StepLimit, in);
    }
    if constexpr (kStackChecked) {
      if (sp < in.pops) return halt(Halt::StackUnderflow, in);
      if (in.pushes && sp >= kMaxStack) return halt(Halt::StackOverflow, in);
    } else {
      MC_DCHECK(sp >= in.pops && !(in.pushes && sp >= kMaxStack),
                "analyzer-clean program left its proven stack bounds");
    }

    switch (in.op) {
      case Op::Stop:
        return halt(Halt::Stop, in);

      case Op::Push:
        push(in.imm);
        break;

      case Op::Pop:
        --sp;
        break;

      case Op::Dup:
        push(stack[sp - in.imm]);
        break;

      case Op::Swap:
        std::swap(stack[sp - 1], stack[sp - 1 - in.imm]);
        break;

      case Op::Add: binary([](Word a, Word b) { return a + b; }); break;
      case Op::Sub: binary([](Word a, Word b) { return a - b; }); break;
      case Op::Mul: binary([](Word a, Word b) { return a * b; }); break;
      case Op::Div:
        if (stack[sp - 1] == 0) return halt(Halt::DivideByZero, in);
        binary([](Word a, Word b) { return a / b; });
        break;
      case Op::Mod:
        if (stack[sp - 1] == 0) return halt(Halt::DivideByZero, in);
        binary([](Word a, Word b) { return a % b; });
        break;
      case Op::Lt: binary([](Word a, Word b) -> Word { return a < b; }); break;
      case Op::Gt: binary([](Word a, Word b) -> Word { return a > b; }); break;
      case Op::Eq: binary([](Word a, Word b) -> Word { return a == b; }); break;
      case Op::And: binary([](Word a, Word b) { return a & b; }); break;
      case Op::Or: binary([](Word a, Word b) { return a | b; }); break;
      case Op::Xor: binary([](Word a, Word b) { return a ^ b; }); break;
      case Op::Shl:
        binary([](Word a, Word b) -> Word { return b >= 64 ? 0 : a << b; });
        break;
      case Op::Shr:
        binary([](Word a, Word b) -> Word { return b >= 64 ? 0 : a >> b; });
        break;

      case Op::IsZero:
        stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0;
        break;
      case Op::Not:
        stack[sp - 1] = ~stack[sp - 1];
        break;

      case Op::Jump: {
        const std::size_t to = jump_index(pop());
        if (to == DecodedProgram::kNoInstr) return halt(Halt::BadJump, in);
        enter(to);
        break;
      }

      case Op::JumpI: {
        const Word target = pop();
        if (pop() == 0) {
          enter(next);
          break;
        }
        const std::size_t to = jump_index(target);
        if (to == DecodedProgram::kNoInstr) return halt(Halt::BadJump, in);
        enter(to);
        break;
      }

      case Op::CallDataLoad: {
        const Word index = stack[sp - 1];
        stack[sp - 1] = index < ctx.calldata.size()
                            ? ctx.calldata[static_cast<std::size_t>(index)]
                            : 0;
        break;
      }

      case Op::CallDataSize:
        push(ctx.calldata.size());
        break;

      case Op::SLoad: {
        const Word key = stack[sp - 1];
        if (ctx.trace != nullptr) ctx.trace->reads.insert(key);
        if (auto w = writes.find(key); w != writes.end()) {
          stack[sp - 1] = w->second;
        } else {
          auto it = storage.find(key);
          stack[sp - 1] = it == storage.end() ? 0 : it->second;
        }
        break;
      }

      case Op::SxLoad: {
        const Word target = pop();
        const Word key = stack[sp - 1];
        if (ctx.trace != nullptr) ctx.trace->foreign_reads.emplace(target, key);
        const std::optional<Word> value = host.foreign_storage(target, key);
        if (!value.has_value()) return halt(Halt::OracleFailure, in);
        stack[sp - 1] = *value;
        break;
      }

      case Op::SStore: {
        const Word key = pop();
        const Word value = pop();
        if (ctx.trace != nullptr) ctx.trace->writes.insert(key);
        writes[key] = value;
        break;
      }

      case Op::Caller: push(ctx.caller); break;
      case Op::CallValue: push(ctx.call_value); break;
      case Op::Height: push(ctx.height); break;
      case Op::Timestamp: push(ctx.time_ms); break;
      case Op::GasLeft:
        push(ctx.gas_limit - (gas - unretired_gas(in)));
        break;

      case Op::Emit: {
        const auto n = static_cast<std::size_t>(in.imm);
        Event& ev = events.emplace_back();
        ev.contract_id = ctx.contract_id;
        ev.height = ctx.height;
        ev.topic = stack[sp - 1];
        ev.args.assign(stack.begin() + static_cast<std::ptrdiff_t>(sp - 1 - n),
                       stack.begin() + static_cast<std::ptrdiff_t>(sp - 1));
        sp -= n + 1;
        break;
      }

      case Op::HashN: {
        // The bytes ByteWriter::u64 would write, without the allocation.
        const auto n = static_cast<std::size_t>(in.imm);
        std::array<std::uint8_t, 255 * 8> bytes;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t b = 0; b < 8; ++b)
            bytes[8 * i + b] =
                static_cast<std::uint8_t>(stack[sp - n + i] >> (8 * b));
        sp -= n;
        push(crypto::sha256(BytesView(bytes.data(), 8 * n)).prefix_u64());
        break;
      }

      case Op::Oracle: {
        const std::optional<Word> reply = host.oracle(stack[sp - 1]);
        if (!reply.has_value()) return halt(Halt::OracleFailure, in);
        stack[sp - 1] = *reply;
        break;
      }

      case Op::Return: {
        const auto n = static_cast<std::size_t>(in.imm);
        result.returned.assign(
            stack.begin() + static_cast<std::ptrdiff_t>(sp - n),
            stack.begin() + static_cast<std::ptrdiff_t>(sp));
        return halt(Halt::Return, in);
      }

      case Op::Revert:
        return halt(Halt::Revert, in);

      default:
        // The two sentinels: falling off the end behaves like STOP.
        return halt(in.op == DecodedProgram::kEndOfCode ? Halt::Stop
                                                        : Halt::BadOpcode,
                    in);
    }
  }
}

}  // namespace


std::string_view halt_name(Halt h) {
  switch (h) {
    case Halt::Stop: return "stop";
    case Halt::Return: return "return";
    case Halt::Revert: return "revert";
    case Halt::OutOfGas: return "out-of-gas";
    case Halt::StackUnderflow: return "stack-underflow";
    case Halt::StackOverflow: return "stack-overflow";
    case Halt::BadJump: return "bad-jump";
    case Halt::BadOpcode: return "bad-opcode";
    case Halt::DivideByZero: return "divide-by-zero";
    case Halt::OracleFailure: return "oracle-failure";
    case Halt::StepLimit: return "step-limit";
  }
  return "unknown";
}

bool code_well_formed(BytesView code) {
  std::size_t pc = 0;
  while (pc < code.size()) {
    if (!is_valid_op(code[pc])) return false;
    pc += 1 + static_cast<std::size_t>(
                  immediate_width(static_cast<Op>(code[pc])));
  }
  return pc == code.size();
}

void fold_writes(Storage& storage, const WriteSet& writes) {
  for (const auto& [key, value] : writes) {
    if (value == 0)
      storage.erase(key);
    else
      storage[key] = value;
  }
}

DecodedProgram lower(BytesView code) {
  return lower_program(code, /*stack_checked=*/true);
}

DecodedProgram lower(BytesView code, const analysis::AnalysisReport& report) {
  MC_ASSERT(report.code_bytes == code.size(),
            "lowering code with another program's analysis");
  return lower_program(code, /*stack_checked=*/!report.clean());
}

ExecResult execute(const DecodedProgram& program, const Storage& storage,
                   const ExecContext& ctx, Host& host) {
  return program.stack_checked ? run<true>(program, storage, ctx, host)
                               : run<false>(program, storage, ctx, host);
}

ExecResult execute(BytesView code, const Storage& storage,
                   const ExecContext& ctx, Host& host) {
  return execute(lower(code), storage, ctx, host);
}

}  // namespace mc::vm
