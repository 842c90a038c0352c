#include "vm/analysis/cfg.hpp"

#include <algorithm>

#include "audit/check.hpp"

namespace mc::vm::analysis {

Program decode_program(BytesView code) {
  Program program;
  program.instr_at.assign(code.size(), Program::kNoInstr);
  std::size_t pc = 0;
  while (pc < code.size()) {
    // Every decoded start is a boundary, including the undefined-opcode
    // position itself (audit::reference_execute's jump rule).
    program.instr_at[pc] = program.instrs.size();
    if (!is_valid_op(code[pc])) {
      program.instrs.push_back({pc, Op::Stop, 0, 1, /*valid=*/false});
      program.well_formed = false;
      return program;
    }
    const Op op = static_cast<Op>(code[pc]);
    const auto width = static_cast<std::size_t>(immediate_width(op));
    if (pc + 1 + width > code.size()) {
      // Truncated immediate: decodes as a boundary, traps at execution.
      program.instrs.push_back({pc, op, 0, code.size() - pc, /*valid=*/false});
      program.well_formed = false;
      return program;
    }
    Word imm = 0;
    for (std::size_t i = 0; i < width; ++i)
      imm |= static_cast<Word>(code[pc + 1 + i]) << (8 * i);
    program.instrs.push_back({pc, op, imm, 1 + width, /*valid=*/true});
    pc += 1 + width;
  }
  return program;
}

namespace {

/// True when the instruction never falls through to pc + size.
bool is_terminator(const Instr& in) {
  if (!in.valid) return true;
  switch (in.op) {
    case Op::Stop:
    case Op::Jump:
    case Op::Return:
    case Op::Revert:
      return true;
    default:
      return false;
  }
}

}  // namespace

Cfg build_cfg(const Program& program, const SuccessorMap& succs,
              const std::vector<bool>& reachable) {
  Cfg cfg;
  const std::size_t n = program.instrs.size();
  cfg.block_of.assign(n, 0);
  if (n == 0) return cfg;
  MC_ASSERT(succs.size() == n && reachable.size() == n,
            "successor/reachability maps must cover every instruction");

  // Leaders: entry, every successor target that is not the plain
  // fall-through of its (single) predecessor, and every instruction
  // after a terminator or branch.
  std::vector<bool> leader(n, false);
  leader[0] = true;
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& in = program.instrs[i];
    if (is_terminator(in) || in.op == Op::JumpI) {
      if (i + 1 < n) leader[i + 1] = true;
    }
    for (const std::size_t s : succs[i])
      if (s != i + 1 || in.op == Op::Jump || in.op == Op::JumpI)
        leader[s] = true;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (leader[i]) {
      CfgBlock block;
      block.first_instr = i;
      block.first_pc = program.instrs[i].pc;
      cfg.blocks.push_back(block);
    }
    cfg.block_of[i] = cfg.blocks.size() - 1;
    cfg.blocks.back().past_instr = i + 1;
  }

  for (CfgBlock& block : cfg.blocks) {
    const std::size_t last = block.past_instr - 1;
    for (const std::size_t s : succs[last]) {
      const std::size_t target = cfg.block_of[s];
      if (std::find(block.successors.begin(), block.successors.end(),
                    target) == block.successors.end())
        block.successors.push_back(target);
    }
    block.reachable = false;
    for (std::size_t i = block.first_instr; i < block.past_instr; ++i)
      block.reachable = block.reachable || reachable[i];
  }

  // Iterative DFS over reachable blocks: back edges mark loop heads.
  enum class Color : std::uint8_t { White, Grey, Black };
  std::vector<Color> color(cfg.blocks.size(), Color::White);
  if (cfg.blocks[0].reachable) {
    struct Frame {
      std::size_t block;
      std::size_t next_succ;
    };
    std::vector<Frame> stack{{0, 0}};
    color[0] = Color::Grey;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const CfgBlock& block = cfg.blocks[frame.block];
      if (frame.next_succ >= block.successors.size()) {
        color[frame.block] = Color::Black;
        stack.pop_back();
        continue;
      }
      const std::size_t next = block.successors[frame.next_succ++];
      if (color[next] == Color::Grey) {
        cfg.has_cycle = true;
        cfg.blocks[next].loop_head = true;
      } else if (color[next] == Color::White && cfg.blocks[next].reachable) {
        color[next] = Color::Grey;
        stack.push_back({next, 0});
      }
    }
  }
  return cfg;
}

bool longest_path_gas(const Program& program, const Cfg& cfg,
                      std::uint64_t& out_gas) {
  out_gas = 0;
  if (cfg.blocks.empty() || cfg.has_cycle) return !cfg.has_cycle;

  // Per-block gas: sum of retired-instruction costs. An invalid trailing
  // instruction charges nothing (vm::execute traps BadOpcode before the
  // gas add).
  std::vector<std::uint64_t> block_gas(cfg.blocks.size(), 0);
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
    for (std::size_t i = cfg.blocks[b].first_instr;
         i < cfg.blocks[b].past_instr; ++i)
      if (program.instrs[i].valid) block_gas[b] += gas_cost(program.instrs[i].op);

  // Reverse-postorder DP over the acyclic reachable subgraph.
  std::vector<std::size_t> postorder;
  std::vector<std::uint8_t> visited(cfg.blocks.size(), 0);
  if (cfg.blocks[0].reachable) {
    struct Frame {
      std::size_t block;
      std::size_t next_succ;
    };
    std::vector<Frame> stack{{0, 0}};
    visited[0] = 1;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const CfgBlock& block = cfg.blocks[frame.block];
      if (frame.next_succ >= block.successors.size()) {
        postorder.push_back(frame.block);
        stack.pop_back();
        continue;
      }
      const std::size_t next = block.successors[frame.next_succ++];
      if (!visited[next] && cfg.blocks[next].reachable) {
        visited[next] = 1;
        stack.push_back({next, 0});
      }
    }
  }

  // dp[b] = gas of the costliest path starting at b. Postorder visits
  // successors before predecessors, so one pass suffices.
  std::vector<std::uint64_t> dp(cfg.blocks.size(), 0);
  for (const std::size_t b : postorder) {
    std::uint64_t best_succ = 0;
    for (const std::size_t s : cfg.blocks[b].successors)
      best_succ = std::max(best_succ, dp[s]);
    dp[b] = block_gas[b] + best_succ;
  }
  out_gas = cfg.blocks[0].reachable ? dp[0] : 0;
  return true;
}

}  // namespace mc::vm::analysis
