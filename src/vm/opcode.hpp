// Instruction set of the medchain contract VM.
//
// A gas-metered stack machine over 64-bit words, deliberately small: the
// paper's design keeps on-chain smart contracts "as light weight as
// possible, only functioning as the access policy control point" (§III),
// so the ISA covers arithmetic, control flow, keyed storage, events, and
// the oracle bridge — enough to be Turing-complete, and enough to measure
// the duplicated execution cost of anything heavier.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace mc::vm {

enum class Op : std::uint8_t {
  Stop = 0x00,   ///< halt, success, no return values
  Push = 0x01,   ///< push imm64
  Pop = 0x02,
  Dup = 0x03,    ///< imm8 depth: duplicate stack[-depth]
  Swap = 0x04,   ///< imm8 depth: swap top with stack[-depth]

  Add = 0x10,    ///< wrapping
  Sub = 0x11,
  Mul = 0x12,
  Div = 0x13,    ///< traps on divide-by-zero
  Mod = 0x14,    ///< traps on modulo-by-zero

  Lt = 0x20,
  Gt = 0x21,
  Eq = 0x22,
  IsZero = 0x23,
  And = 0x24,
  Or = 0x25,
  Xor = 0x26,
  Not = 0x27,
  Shl = 0x28,
  Shr = 0x29,

  Jump = 0x30,   ///< pop target; must be an instruction boundary
  JumpI = 0x31,  ///< pop target, pop cond; jump when cond != 0

  CallDataLoad = 0x40,  ///< pop word index; push calldata word (0 past end)
  CallDataSize = 0x41,  ///< push calldata size in words

  SLoad = 0x50,   ///< pop key; push storage[key]
  SStore = 0x51,  ///< pop key, pop value; storage[key] = value
  SxLoad = 0x52,  ///< pop contract id, pop key; push that contract's
                  ///< committed storage[key] (cross-contract read —
                  ///< lets the analytics contract enforce the policy
                  ///< contract's grants fully on-chain)

  Caller = 0x60,     ///< push caller id (u64-folded address)
  CallValue = 0x61,
  Height = 0x62,
  Timestamp = 0x63,
  GasLeft = 0x64,

  Emit = 0x70,    ///< imm8 n: pop topic, pop n args; append event
  HashN = 0x71,   ///< imm8 n: pop n words, push SHA-256 prefix word
  Oracle = 0x72,  ///< pop request word; push off-chain oracle response

  Return = 0x80,  ///< imm8 n: pop n return words, halt success
  Revert = 0x81,  ///< halt, failure, state changes discarded
};

/// Immediate operand width in bytes for an opcode (0, 1 or 8).
constexpr int immediate_width(Op op) {
  switch (op) {
    case Op::Push:
      return 8;
    case Op::Dup:
    case Op::Swap:
    case Op::Emit:
    case Op::HashN:
    case Op::Return:
      return 1;
    default:
      return 0;
  }
}

/// Gas charged per opcode (storage and crypto ops dominate, as on
/// production chains).
constexpr std::uint64_t gas_cost(Op op) {
  switch (op) {
    case Op::SStore:
      return 100;
    case Op::SLoad:
      return 20;
    case Op::SxLoad:
      return 40;
    case Op::HashN:
      return 30;
    case Op::Emit:
      return 50;
    case Op::Oracle:
      return 200;
    case Op::Jump:
    case Op::JumpI:
      return 8;
    default:
      return 3;
  }
}

/// Mnemonic for the assembler/disassembler; nullopt for unknown bytes.
std::optional<Op> op_from_mnemonic(std::string_view name);
std::string_view mnemonic(Op op);

namespace detail {

/// One case per enumerator and no default, so -Wswitch flags an opcode
/// added to Op but not here.
constexpr bool defined_op(Op op) {
  switch (op) {
    case Op::Stop: case Op::Push: case Op::Pop: case Op::Dup: case Op::Swap:
    case Op::Add: case Op::Sub: case Op::Mul: case Op::Div: case Op::Mod:
    case Op::Lt: case Op::Gt: case Op::Eq: case Op::IsZero: case Op::And:
    case Op::Or: case Op::Xor: case Op::Not: case Op::Shl: case Op::Shr:
    case Op::Jump: case Op::JumpI:
    case Op::CallDataLoad: case Op::CallDataSize:
    case Op::SLoad: case Op::SStore: case Op::SxLoad:
    case Op::Caller: case Op::CallValue: case Op::Height: case Op::Timestamp:
    case Op::GasLeft:
    case Op::Emit: case Op::HashN: case Op::Oracle:
    case Op::Return: case Op::Revert:
      return true;
  }
  return false;
}

}  // namespace detail

/// Defined-opcode flag for every byte value.
inline constexpr std::array<bool, 256> kValidOp = [] {
  std::array<bool, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b)
    table[b] = detail::defined_op(static_cast<Op>(b));
  return table;
}();

/// True if the byte value corresponds to a defined opcode.
constexpr bool is_valid_op(std::uint8_t byte) { return kValidOp[byte]; }

}  // namespace mc::vm
