// Control-flow graph layer of the bytecode static analyzer.
//
// Decodes an Op blob into an instruction list (the first undefined
// opcode or truncated immediate is itself a valid jump target that
// traps at runtime; bytes beyond it are not). This is the one decoder:
// vm::lower() builds each contract's executable program from it too.
// Then builds basic blocks once the abstract
// interpreter has resolved constant jump targets. The block graph is
// what the gas bound (longest acyclic path), loop-head identification
// (back edges) and unreachable-code detection are computed on.
#pragma once

#include <cstdint>
#include <vector>

#include "vm/opcode.hpp"
#include "vm/vm.hpp"

namespace mc::vm::analysis {

/// One decoded instruction. `valid == false` marks the trailing
/// undefined-opcode / truncated-immediate position: executing it traps
/// BadOpcode, so it terminates its block with no successors.
struct Instr {
  std::size_t pc = 0;
  Op op = Op::Stop;
  Word imm = 0;
  std::size_t size = 1;  ///< opcode byte + immediate bytes
  bool valid = true;
};

/// Decoded program: instruction list plus the pc -> index map the
/// analyzer and the VM's jump resolution share.
struct Program {
  std::vector<Instr> instrs;
  /// index into instrs for each code byte that starts an instruction;
  /// kNoInstr elsewhere (mid-immediate bytes, bytes past a decode stop).
  std::vector<std::size_t> instr_at;
  /// True when every byte decoded: no undefined opcode, no truncated
  /// immediate (the same predicate as vm::code_well_formed).
  bool well_formed = true;

  static constexpr std::size_t kNoInstr = static_cast<std::size_t>(-1);

  [[nodiscard]] bool is_boundary(Word pc) const {
    return pc < instr_at.size() &&
           instr_at[static_cast<std::size_t>(pc)] != kNoInstr;
  }
};

[[nodiscard]] Program decode_program(BytesView code);

/// Basic block over [first_instr, past_instr) indices into
/// Program::instrs. Successor lists hold block indices.
struct CfgBlock {
  std::size_t first_instr = 0;
  std::size_t past_instr = 0;
  std::size_t first_pc = 0;
  std::vector<std::size_t> successors;
  bool reachable = false;
  bool loop_head = false;  ///< target of a back edge (DFS on reachable blocks)
};

struct Cfg {
  std::vector<CfgBlock> blocks;
  /// blocks index for each instruction index.
  std::vector<std::size_t> block_of;
  bool has_cycle = false;
};

/// Per-instruction successor sets resolved by the abstract interpreter
/// (fall-throughs plus constant jump targets; empty for terminators).
using SuccessorMap = std::vector<std::vector<std::size_t>>;

/// Build basic blocks from resolved successors. `reachable` marks the
/// instruction indices the interpreter actually visited.
[[nodiscard]] Cfg build_cfg(const Program& program, const SuccessorMap& succs,
                            const std::vector<bool>& reachable);

/// Worst-case gas along any path from the entry block, summing
/// vm::gas_cost per instruction. Returns false (top) when the reachable
/// subgraph has a cycle; loop heads are flagged on the Cfg by build_cfg.
[[nodiscard]] bool longest_path_gas(const Program& program, const Cfg& cfg,
                                    std::uint64_t& out_gas);

}  // namespace mc::vm::analysis
