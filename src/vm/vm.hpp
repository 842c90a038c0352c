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

/// Execute `code` over committed `storage`, which the run only reads:
/// SSTOREs buffer into a write-set that SLOADs consult first, returned
/// only when the run halts ok (all-or-nothing semantics). Emitted events
/// are delivered to the host only on success.
ExecResult execute(BytesView code, const Storage& storage,
                   const ExecContext& ctx, Host& host);

/// Apply a successful run's write-set to `storage` (0 erases).
void fold_writes(Storage& storage, const WriteSet& writes);

/// Static bytecode sanity check: opcodes defined, immediates in bounds.
bool code_well_formed(BytesView code);

}  // namespace mc::vm
