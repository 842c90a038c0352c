// Deployed-contract registry: code, storage, event log, block undo.
//
// One ContractStore exists per blockchain node; since contract execution
// is deterministic, all honest nodes' stores stay identical — which the
// duplicated-execution tests assert literally via digest().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/bytes.hpp"
#include "common/undo_window.hpp"
#include "vm/analysis/analysis.hpp"
#include "vm/vm.hpp"

namespace mc::vm {

/// Thrown by ContractStore::deploy when the static analyzer rejects the
/// code under the store's admission policy. Derives invalid_argument so
/// the block executor's handler marks the tx invalid.
class AdmissionError : public std::invalid_argument {
 public:
  explicit AdmissionError(const std::string& reason)
      : std::invalid_argument("contract admission rejected: " + reason) {}
};

struct DeployedContract {
  Word id = 0;
  Word deployer = 0;
  Bytes code;
  Storage storage;
  std::uint64_t deployed_height = 0;
  /// Static analysis computed once at deployment; the audit build checks
  /// every later call's dynamic trace against these bounds.
  analysis::AnalysisReport report;
  /// Per-dispatch-entry footprint summaries with symbolic keys, computed
  /// once at deployment. The execution layer concretizes these against a
  /// tx's calldata to schedule on exact cells (DESIGN.md §12–13).
  std::vector<analysis::SelectorSummary> selector_summaries;
  /// Code contains Op::Oracle (scanned at deployment): such calls must
  /// not be re-run speculatively — a rerun would duplicate the external
  /// side effect — so the parallel scheduler executes them at their
  /// commit slot instead.
  bool uses_oracle = false;
};

/// One buffered contract run over the committed store (DESIGN.md §13),
/// applied only by commit_speculation(): `result.writes` is its write-set,
/// `observed` the value every read saw (own SLOADs and foreign SXLOADs
/// alike), and `events` the emissions to append on commit.
struct SpeculativeCall {
  Word contract_id = 0;
  ExecResult result;
  std::map<std::pair<Word, Word>, Word> observed; ///< (contract, key) -> value
  std::vector<Event> events;
  ExecTrace trace;
};

class ContractStore {
 public:
  /// Deploy code; the id is derived from (code, deployer, store nonce) so
  /// repeated deployments get distinct ids deterministically. The code is
  /// statically analyzed and admitted under the store's policy first —
  /// rejection throws AdmissionError and deploys nothing.
  Word deploy(Bytes code, Word deployer, std::uint64_t height);

  /// Replace the admission policy applied by subsequent deploy() calls.
  void set_admission_policy(analysis::AdmissionPolicy policy) {
    policy_ = policy;
  }
  [[nodiscard]] const analysis::AdmissionPolicy& admission_policy() const {
    return policy_;
  }

  [[nodiscard]] bool exists(Word id) const { return contracts_.count(id) > 0; }
  [[nodiscard]] const DeployedContract* contract(Word id) const;

  /// Execute a call into `id`: one buffered run, its oracle requests sent
  /// to `oracle_host` (null fails them), then commit_speculation() if it
  /// halted ok. Returns nullopt when the contract does not exist.
  std::optional<ExecResult> call(Word id, ExecContext ctx,
                                 Host* oracle_host = nullptr);

  // --- speculative execution (chain/execution scheduler) ----------------

  /// True when `id` exists and its code is oracle-free, i.e. a
  /// speculative run of it is safe to discard and repeat.
  [[nodiscard]] bool speculable(Word id) const;

  /// call()'s buffered run, traced and left uncommitted: the store is not
  /// mutated, and oracle use traps (speculable() gates it out beforehand).
  /// Returns nullopt for an unknown contract.
  [[nodiscard]] std::optional<SpeculativeCall> call_speculative(
      Word id, ExecContext ctx) const;

  /// Commit-time validation: every cell `spec` observed still holds the
  /// value it observed, so replaying it now would reproduce it verbatim.
  [[nodiscard]] bool speculation_current(const SpeculativeCall& spec) const;

  /// Apply a successful run: fold its write-set into the contract's
  /// storage (0 erases) and append its events, forwarding each to
  /// `event_host` when non-null (monitor-node parity with call()).
  void commit_speculation(const SpeculativeCall& spec,
                          Host* event_host = nullptr);

  /// All events ever emitted, oldest first.
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  /// Events with index >= `from_index` (monitor-node polling cursor).
  [[nodiscard]] std::vector<Event> events_since(std::size_t from_index) const;

  /// Sealed block undo records kept: mc::kUndoRecords (DESIGN.md §16).
  static constexpr std::size_t kUndoDepth = mc::kUndoRecords;

  /// Seal the changes since the previous seal into an undo record labeled
  /// `height`, dropping the oldest record past kUndoDepth.
  void snapshot(std::uint64_t height) { undo_.seal(height); }

  /// Restore the state as of the most recent seal labeled <= `height`,
  /// undoing the records after it newest first; past the window, height
  /// 0 resets to the fresh store. A non-zero height older than the
  /// retained records is a caller bug (MC_ASSERT).
  void rollback_to(std::uint64_t height);

  [[nodiscard]] std::size_t retained_blocks() const { return undo_.retained(); }

  /// Canonical digest over all contracts and storage (cross-node
  /// determinism checks).
  [[nodiscard]] Hash256 digest() const;

  [[nodiscard]] std::size_t size() const { return contracts_.size(); }

 private:
  /// Undoes the changes since it opened: the first-touch priors of the
  /// cells written (nullopt = absent), the event count and the nonce, and
  /// the ids deployed.
  struct UndoRecord {
    std::map<std::pair<Word, Word>, std::optional<Word>> cells;
    std::optional<std::size_t> event_count;
    std::optional<std::uint64_t> nonce;
    std::set<Word> created;
  };

  /// One buffered run; `oracle` answers ORACLE (null fails it). Audit
  /// builds trace every run; others only when `traced`.
  [[nodiscard]] std::optional<SpeculativeCall> run(
      Word id, ExecContext ctx, Host* oracle, bool traced) const;
  void undo(const UndoRecord& record);

  std::map<Word, DeployedContract> contracts_;  // ordered => stable digest
  std::vector<Event> events_;
  std::uint64_t nonce_ = 0;
  UndoWindow<UndoRecord> undo_;
  analysis::AdmissionPolicy policy_ = analysis::AdmissionPolicy::strict();
};

}  // namespace mc::vm
