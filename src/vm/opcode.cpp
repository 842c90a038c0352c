#include "vm/opcode.hpp"

#include <array>
#include <utility>

namespace mc::vm {
namespace {

constexpr std::array<std::pair<std::string_view, Op>, 37> kMnemonics{{
    {"STOP", Op::Stop},       {"PUSH", Op::Push},
    {"POP", Op::Pop},         {"DUP", Op::Dup},
    {"SWAP", Op::Swap},       {"ADD", Op::Add},
    {"SUB", Op::Sub},         {"MUL", Op::Mul},
    {"DIV", Op::Div},         {"MOD", Op::Mod},
    {"LT", Op::Lt},           {"GT", Op::Gt},
    {"EQ", Op::Eq},           {"ISZERO", Op::IsZero},
    {"AND", Op::And},         {"OR", Op::Or},
    {"XOR", Op::Xor},         {"NOT", Op::Not},
    {"SHL", Op::Shl},         {"SHR", Op::Shr},
    {"JUMP", Op::Jump},       {"JUMPI", Op::JumpI},
    {"CALLDATALOAD", Op::CallDataLoad},
    {"CALLDATASIZE", Op::CallDataSize},
    {"SLOAD", Op::SLoad},     {"SSTORE", Op::SStore},
    {"SXLOAD", Op::SxLoad},
    {"CALLER", Op::Caller},   {"CALLVALUE", Op::CallValue},
    {"HEIGHT", Op::Height},   {"TIMESTAMP", Op::Timestamp},
    {"GASLEFT", Op::GasLeft}, {"EMIT", Op::Emit},
    {"HASHN", Op::HashN},     {"ORACLE", Op::Oracle},
    {"RETURN", Op::Return},   {"REVERT", Op::Revert},
}};

}  // namespace

std::optional<Op> op_from_mnemonic(std::string_view name) {
  for (const auto& [mnem, op] : kMnemonics)
    if (mnem == name) return op;
  return std::nullopt;
}

std::string_view mnemonic(Op op) {
  for (const auto& [mnem, candidate] : kMnemonics)
    if (candidate == op) return mnem;
  return "UNKNOWN";
}

}  // namespace mc::vm
