#include "audit/vm_reference.hpp"

#include <algorithm>
#include <vector>

#include "audit/check.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace mc::audit {

using namespace vm;

namespace {

/// Instruction boundaries (valid jump targets) for a code blob.
std::vector<bool> jump_targets(BytesView code) {
  std::vector<bool> valid(code.size(), false);
  std::size_t pc = 0;
  while (pc < code.size()) {
    valid[pc] = true;
    if (!is_valid_op(code[pc])) break;
    pc += 1 + static_cast<std::size_t>(
                  immediate_width(static_cast<Op>(code[pc])));
  }
  return valid;
}

}  // namespace

ExecResult reference_execute(BytesView code, const Storage& storage,
                             const ExecContext& ctx, Host& host) {
  ExecResult result;
  WriteSet writes;  // handed out only on success
  std::vector<Word> stack;
  stack.reserve(64);
  std::vector<Event> events;
  const std::vector<bool> targets = jump_targets(code);

  std::size_t pc = 0;
  std::uint64_t gas = 0;

  const auto trap = [&](Halt h) {
    result.halt = h;
    result.gas_used = std::min(gas, ctx.gas_limit);
    return std::move(result);
  };
  const auto finish = [&](Halt h) {
    result.writes = std::move(writes);
    for (const auto& ev : events) host.on_event(ev);
    result.halt = h;
    result.gas_used = gas;
    return std::move(result);
  };

  const auto need = [&](std::size_t n) { return stack.size() >= n; };
  const auto pop = [&]() {
    const Word v = stack.back();
    stack.pop_back();
    return v;
  };

  while (pc < code.size()) {
    MC_DCHECK(stack.size() <= kMaxStack, "VM stack exceeded its hard bound");
    MC_DCHECK(gas <= ctx.gas_limit, "VM retired an instruction past its gas");
    if (!is_valid_op(code[pc])) return trap(Halt::BadOpcode);
    const Op op = static_cast<Op>(code[pc]);
    const int imm_width = immediate_width(op);
    if (pc + 1 + static_cast<std::size_t>(imm_width) > code.size())
      return trap(Halt::BadOpcode);

    gas += gas_cost(op);
    if (gas > ctx.gas_limit) return trap(Halt::OutOfGas);
    if (++result.steps > ctx.step_limit) return trap(Halt::StepLimit);

    Word imm = 0;
    for (int i = 0; i < imm_width; ++i)
      imm |= static_cast<Word>(code[pc + 1 + static_cast<std::size_t>(i)])
             << (8 * i);
    std::size_t next_pc = pc + 1 + static_cast<std::size_t>(imm_width);

    switch (op) {
      case Op::Stop:
        return finish(Halt::Stop);

      case Op::Push:
        if (stack.size() >= kMaxStack) return trap(Halt::StackOverflow);
        stack.push_back(imm);
        break;

      case Op::Pop:
        if (!need(1)) return trap(Halt::StackUnderflow);
        stack.pop_back();
        break;

      case Op::Dup: {
        const std::size_t depth = static_cast<std::size_t>(imm);
        if (depth == 0 || !need(depth)) return trap(Halt::StackUnderflow);
        if (stack.size() >= kMaxStack) return trap(Halt::StackOverflow);
        stack.push_back(stack[stack.size() - depth]);
        break;
      }

      case Op::Swap: {
        const std::size_t depth = static_cast<std::size_t>(imm);
        if (depth == 0 || !need(depth + 1)) return trap(Halt::StackUnderflow);
        std::swap(stack.back(), stack[stack.size() - 1 - depth]);
        break;
      }

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
      case Op::Shr: {
        if (!need(2)) return trap(Halt::StackUnderflow);
        const Word b = pop();
        const Word a = pop();
        Word out = 0;
        switch (op) {
          case Op::Add: out = a + b; break;
          case Op::Sub: out = a - b; break;
          case Op::Mul: out = a * b; break;
          case Op::Div:
            if (b == 0) return trap(Halt::DivideByZero);
            out = a / b;
            break;
          case Op::Mod:
            if (b == 0) return trap(Halt::DivideByZero);
            out = a % b;
            break;
          case Op::Lt: out = a < b ? 1 : 0; break;
          case Op::Gt: out = a > b ? 1 : 0; break;
          case Op::Eq: out = a == b ? 1 : 0; break;
          case Op::And: out = a & b; break;
          case Op::Or: out = a | b; break;
          case Op::Xor: out = a ^ b; break;
          case Op::Shl: out = b >= 64 ? 0 : a << b; break;
          case Op::Shr: out = b >= 64 ? 0 : a >> b; break;
          default: break;
        }
        stack.push_back(out);
        break;
      }

      case Op::IsZero:
      case Op::Not: {
        if (!need(1)) return trap(Halt::StackUnderflow);
        const Word a = pop();
        stack.push_back(op == Op::IsZero ? (a == 0 ? 1 : 0) : ~a);
        break;
      }

      case Op::Jump: {
        if (!need(1)) return trap(Halt::StackUnderflow);
        const Word target = pop();
        if (target >= code.size() || !targets[static_cast<std::size_t>(target)])
          return trap(Halt::BadJump);
        next_pc = static_cast<std::size_t>(target);
        break;
      }

      case Op::JumpI: {
        if (!need(2)) return trap(Halt::StackUnderflow);
        const Word target = pop();
        const Word cond = pop();
        if (cond != 0) {
          if (target >= code.size() ||
              !targets[static_cast<std::size_t>(target)])
            return trap(Halt::BadJump);
          next_pc = static_cast<std::size_t>(target);
        }
        break;
      }

      case Op::CallDataLoad: {
        if (!need(1)) return trap(Halt::StackUnderflow);
        const Word index = pop();
        stack.push_back(index < ctx.calldata.size()
                            ? ctx.calldata[static_cast<std::size_t>(index)]
                            : 0);
        break;
      }

      case Op::CallDataSize:
        if (stack.size() >= kMaxStack) return trap(Halt::StackOverflow);
        stack.push_back(ctx.calldata.size());
        break;

      case Op::SLoad: {
        if (!need(1)) return trap(Halt::StackUnderflow);
        const Word key = pop();
        if (ctx.trace != nullptr) ctx.trace->reads.insert(key);
        if (auto w = writes.find(key); w != writes.end()) {
          stack.push_back(w->second);
        } else {
          auto it = storage.find(key);
          stack.push_back(it == storage.end() ? 0 : it->second);
        }
        break;
      }

      case Op::SxLoad: {
        if (!need(2)) return trap(Halt::StackUnderflow);
        const Word target = pop();
        const Word key = pop();
        if (ctx.trace != nullptr) ctx.trace->foreign_reads.emplace(target, key);
        const std::optional<Word> value = host.foreign_storage(target, key);
        if (!value.has_value()) return trap(Halt::OracleFailure);
        stack.push_back(*value);
        break;
      }

      case Op::SStore: {
        if (!need(2)) return trap(Halt::StackUnderflow);
        const Word key = pop();
        const Word value = pop();
        if (ctx.trace != nullptr) ctx.trace->writes.insert(key);
        writes[key] = value;
        break;
      }

      case Op::Caller:
      case Op::CallValue:
      case Op::Height:
      case Op::Timestamp:
      case Op::GasLeft: {
        // Environment reads grow the stack like PUSH and need the same
        // overflow trap (a CALLER-flood program must not blow the cap).
        if (stack.size() >= kMaxStack) return trap(Halt::StackOverflow);
        Word v = 0;
        switch (op) {
          case Op::Caller: v = ctx.caller; break;
          case Op::CallValue: v = ctx.call_value; break;
          case Op::Height: v = ctx.height; break;
          case Op::Timestamp: v = ctx.time_ms; break;
          case Op::GasLeft: v = ctx.gas_limit - gas; break;
          default: break;
        }
        stack.push_back(v);
        break;
      }

      case Op::Emit: {
        const std::size_t n = static_cast<std::size_t>(imm);
        if (!need(n + 1)) return trap(Halt::StackUnderflow);
        Event ev;
        ev.contract_id = ctx.contract_id;
        ev.height = ctx.height;
        ev.topic = pop();
        ev.args.resize(n);
        for (std::size_t i = 0; i < n; ++i) ev.args[n - 1 - i] = pop();
        events.push_back(std::move(ev));
        break;
      }

      case Op::HashN: {
        const std::size_t n = static_cast<std::size_t>(imm);
        if (n == 0 || !need(n)) return trap(Halt::StackUnderflow);
        ByteWriter w;
        for (std::size_t i = 0; i < n; ++i)
          w.u64(stack[stack.size() - n + i]);
        stack.resize(stack.size() - n);
        stack.push_back(crypto::sha256(BytesView(w.data())).prefix_u64());
        break;
      }

      case Op::Oracle: {
        if (!need(1)) return trap(Halt::StackUnderflow);
        const Word request = pop();
        const std::optional<Word> reply = host.oracle(request);
        if (!reply.has_value()) return trap(Halt::OracleFailure);
        stack.push_back(*reply);
        break;
      }

      case Op::Return: {
        const std::size_t n = static_cast<std::size_t>(imm);
        if (!need(n)) return trap(Halt::StackUnderflow);
        result.returned.assign(stack.end() - static_cast<std::ptrdiff_t>(n),
                               stack.end());
        return finish(Halt::Return);
      }

      case Op::Revert:
        return trap(Halt::Revert);
    }
    if (ctx.trace != nullptr)
      ctx.trace->max_stack = std::max(ctx.trace->max_stack, stack.size());
    pc = next_pc;
  }

  // Falling off the end behaves like STOP.
  return finish(Halt::Stop);
}

}  // namespace mc::audit
