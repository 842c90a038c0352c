// The medchain contract virtual machine.
//
// Deterministic, gas-metered execution of Op bytecode over 64-bit words.
// Determinism is what lets every blockchain node run the identical
// contract and reach the identical state — and the per-instruction gas
// counter is what lets the experiments price that duplication.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "vm/opcode.hpp"

namespace mc::vm {

using Word = std::uint64_t;

/// Hard cap on the operand stack; pushing past it traps StackOverflow.
/// Shared with the static analyzer, whose stack bounds are proven
/// against this same limit.
inline constexpr std::size_t kMaxStack = 1024;

/// Contract storage: persistent key/value words.
using Storage = std::map<Word, Word>;

/// Per-call write-set: key -> post-image, where 0 means *erase*.
using WriteSet = std::map<Word, Word>;

/// Event appended by EMIT; the off-chain monitor node subscribes to these
/// (paper Fig. 3: "a monitor node is used to monitor all the related smart
/// contract events").
struct Event {
  Word contract_id = 0;
  Word topic = 0;
  std::vector<Word> args;
  std::uint64_t height = 0;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Why execution halted.
enum class Halt : std::uint8_t {
  Stop,
  Return,
  Revert,
  OutOfGas,
  StackUnderflow,
  StackOverflow,
  BadJump,
  BadOpcode,
  DivideByZero,
  OracleFailure,
  StepLimit,
};

[[nodiscard]] constexpr bool halted_ok(Halt h) {
  return h == Halt::Stop || h == Halt::Return;
}

std::string_view halt_name(Halt h);

struct ExecResult {
  Halt halt = Halt::Stop;
  std::uint64_t gas_used = 0;
  std::uint64_t steps = 0;  ///< instructions retired (energy accounting)
  std::vector<Word> returned;
  /// Buffered SSTOREs of a run that halted ok; empty after a trap.
  WriteSet writes;

  [[nodiscard]] bool ok() const { return halted_ok(halt); }

  friend bool operator==(const ExecResult&, const ExecResult&) = default;
};

/// Dynamic execution trace, recorded when ExecContext::trace is set:
/// every storage key actually touched (including by runs that later
/// trapped and rolled back) and the peak stack depth. The static
/// analyzer's soundness contract is checked against this — see
/// vm/analysis/analysis.hpp soundness_violation().
struct ExecTrace {
  std::set<Word> reads;
  std::set<Word> writes;
  std::set<std::pair<Word, Word>> foreign_reads;  ///< (contract, key)
  std::size_t max_stack = 0;

  friend bool operator==(const ExecTrace&, const ExecTrace&) = default;
};

/// Execution environment provided by the node.
struct ExecContext {
  Word contract_id = 0;
  Word caller = 0;       ///< u64-folded caller address
  Word call_value = 0;
  std::uint64_t height = 0;
  std::uint64_t time_ms = 0;
  std::uint64_t gas_limit = 1'000'000;
  std::uint64_t step_limit = 10'000'000;  ///< hard bound beyond gas
  std::vector<Word> calldata;
  ExecTrace* trace = nullptr;  ///< optional footprint/stack recording
};

/// Host hooks: the ORACLE opcode is the paper's on-chain/off-chain bridge
/// ("a special data oracle mechanism by remote procedure call", §IV).
class Host {
 public:
  virtual ~Host() = default;

  /// Answer an oracle request; nullopt traps the VM with OracleFailure.
  virtual std::optional<Word> oracle(Word request) = 0;

  /// Observe an emitted event (monitor-node subscription point).
  virtual void on_event(const Event& event) = 0;

  /// Serve SXLOAD: committed storage of another contract. nullopt traps
  /// (the default for hosts with no contract-store access); hosts backed
  /// by a ContractStore return 0 for unknown contracts/keys.
  virtual std::optional<Word> foreign_storage(Word /*contract_id*/,
                                              Word /*key*/) {
    return std::nullopt;
  }
};

/// A host that fails every oracle call and drops events.
class NullHost : public Host {
 public:
  std::optional<Word> oracle(Word) override { return std::nullopt; }
  void on_event(const Event&) override {}
};

/// A contract lowered once for execution (DESIGN.md §12 "Decoded
/// programs"): fixed-width instructions with their immediates decoded,
/// a pc -> instruction-index table for jumps, and per instruction the
/// gas and steps left to the end of its straight-line run, so a run is
/// charged once on entry. Built by lower(); ContractStore caches one per
/// deployed contract.
struct DecodedProgram {
  struct Instr {
    Word imm = 0;
    std::uint64_t run_gas = 0;    ///< gas from here to the run's end
    std::uint32_t run_steps = 0;  ///< steps from here to the run's end
    std::uint16_t gas = 0;        ///< this instruction's own gas
    /// Stack depth it needs (kAlwaysUnderflows for DUP 0, SWAP 0,
    /// HASHN 0) and whether it pushes one word more than it pops.
    std::uint16_t pops = 0;
    bool pushes = false;
    std::uint8_t step = 0;        ///< 1, or 0 for the two sentinels
    Op op = Op::Stop;             ///< or kBadInstr / kEndOfCode
  };

  static constexpr std::uint16_t kAlwaysUnderflows = 0xffff;

  /// Sentinel ops outside the instruction set: the undefined opcode or
  /// truncated immediate where decoding stopped (traps BadOpcode), and
  /// the end of the code (halts like STOP). Neither costs gas or a step.
  static constexpr Op kBadInstr = static_cast<Op>(0xfe);
  static constexpr Op kEndOfCode = static_cast<Op>(0xff);

  /// The decoded instructions, then one kEndOfCode.
  std::vector<Instr> instrs;
  /// Instruction index for each code byte that starts one (the valid
  /// jump targets); kNoInstr elsewhere.
  std::vector<std::size_t> index_at;
  /// Per-op stack checks; false only for code whose static analysis
  /// rules out stack underflow and overflow (AnalysisReport::clean()).
  bool stack_checked = true;

  static constexpr std::size_t kNoInstr = static_cast<std::size_t>(-1);
};

namespace analysis {
struct AnalysisReport;
}

/// Lower `code` with every per-op stack check kept.
[[nodiscard]] DecodedProgram lower(BytesView code);

/// Lower `code`, whose static analysis is `report`: a clean report
/// drops the per-op stack checks.
[[nodiscard]] DecodedProgram lower(BytesView code,
                                   const analysis::AnalysisReport& report);

/// Execute `program` over committed `storage`, which the run only reads:
/// SSTOREs buffer into a write-set that SLOADs consult first, returned
/// only when the run halts ok (all-or-nothing semantics). Emitted events
/// are delivered to the host only on success.
ExecResult execute(const DecodedProgram& program, const Storage& storage,
                   const ExecContext& ctx, Host& host);

/// execute(lower(code), ...): for raw code outside a ContractStore.
ExecResult execute(BytesView code, const Storage& storage,
                   const ExecContext& ctx, Host& host);

/// Apply a successful run's write-set to `storage` (0 erases).
void fold_writes(Storage& storage, const WriteSet& writes);

/// Static bytecode sanity check: opcodes defined, immediates in bounds.
bool code_well_formed(BytesView code);

}  // namespace mc::vm
