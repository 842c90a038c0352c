#include "vm/contract_store.hpp"

#include "audit/check.hpp"
#include "audit/vm_reference.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace mc::vm {
namespace {

using Contracts = std::map<Word, DeployedContract>;

/// Committed value of one storage cell; 0 for an unknown contract/key.
Word committed(const Contracts& contracts, Word id, Word key) {
  auto it = contracts.find(id);
  if (it == contracts.end()) return 0;
  auto slot = it->second.storage.find(key);
  return slot == it->second.storage.end() ? 0 : slot->second;
}

/// Host for buffered runs: keeps events in the call (committed later, or
/// never), serves SXLOAD from committed state and records what it read,
/// and fails every oracle request.
class SpeculativeHost : public Host {
 public:
  SpeculativeHost(SpeculativeCall& spec, const Contracts& contracts)
      : spec_(spec), contracts_(contracts) {}

  std::optional<Word> oracle(Word) override { return std::nullopt; }

  void on_event(const Event& event) override { spec_.events.push_back(event); }

  std::optional<Word> foreign_storage(Word contract_id, Word key) override {
    const Word value = committed(contracts_, contract_id, key);
    spec_.observed.emplace(std::make_pair(contract_id, key), value);
    return value;
  }

 private:
  SpeculativeCall& spec_;
  const Contracts& contracts_;
};

#if defined(MEDCHAIN_AUDIT)
/// Audit leg of the symbolic-domain contract: evaluate the deployed
/// symbolic footprints under the call's fully-known environment and
/// require the dynamic trace to sit inside the concretized cells —
/// first the whole-program footprint, then the matching per-selector
/// summary (what the execution-layer concretizer schedules on).
std::string concretization_check(const DeployedContract& dc,
                                 const ExecContext& ctx,
                                 const ExecTrace& trace) {
  const analysis::SymbolicEnv env = analysis::env_of(ctx);
  if (!dc.report.incomplete) {
    std::string v =
        analysis::concretization_violation(dc.report.footprint, env, trace);
    if (!v.empty()) return v;
  }
  const analysis::SelectorSummary* sum =
      analysis::summary_for(dc.selector_summaries, ctx.calldata);
  if (sum != nullptr && !sum->incomplete)
    return analysis::concretization_violation(sum->footprint, env, trace);
  return {};
}
#endif

}  // namespace

Word ContractStore::deploy(Bytes code, Word deployer, std::uint64_t height) {
  analysis::AnalysisReport report = analysis::analyze(BytesView(code));
  const analysis::AdmissionVerdict verdict = analysis::admit(report, policy_);
  if (!verdict.admitted) throw AdmissionError(verdict.reason);

  UndoRecord& record = undo_.open();
  if (!record.nonce.has_value()) record.nonce = nonce_;
  ByteWriter w;
  w.bytes(BytesView(code));
  w.u64(deployer);
  w.u64(nonce_++);
  const Word id = crypto::sha256(BytesView(w.data())).prefix_u64();

  DeployedContract dc;
  dc.id = id;
  dc.deployer = deployer;
  dc.selector_summaries = analysis::summarize_selectors(BytesView(code));
  dc.program = lower(BytesView(code), report);
  dc.code = std::move(code);
  dc.deployed_height = height;
  dc.report = std::move(report);
  contracts_[id] = std::move(dc);
  record.created.insert(id);
  return id;
}

std::optional<SpeculativeCall> ContractStore::run(Word id, ExecContext ctx,
                                                  bool traced) const {
  auto it = contracts_.find(id);
  if (it == contracts_.end()) return std::nullopt;
  const DeployedContract& dc = it->second;

  SpeculativeCall spec;
  spec.contract_id = id;
  ctx.contract_id = id;
#if defined(MEDCHAIN_AUDIT)
  traced = true;  // every run is checked against the static bounds below
#endif
  ctx.trace = traced ? &spec.trace : nullptr;

  SpeculativeHost host(spec, contracts_);
  spec.result = execute(dc.program, dc.storage, ctx, host);

#if defined(MEDCHAIN_AUDIT)
  // The byte-at-a-time reference must see the very same run: result,
  // events, trace and foreign observations.
  SpeculativeCall reference;
  SpeculativeHost reference_host(reference, contracts_);
  ExecContext reference_ctx = ctx;
  reference_ctx.trace = &reference.trace;
  reference.result = audit::reference_execute(
      BytesView(dc.code), dc.storage, reference_ctx, reference_host);
  MC_DCHECK(reference.result == spec.result &&
                reference.events == spec.events &&
                reference.trace == spec.trace &&
                reference.observed == spec.observed,
            "decoded program disagrees with the reference interpreter");

  // Audit builds mechanically enforce the analyzer's soundness contract:
  // the dynamic footprint/stack of every call must sit inside the static
  // bounds proven at deployment.
  const std::string violation =
      analysis::soundness_violation(dc.report, spec.trace, spec.result);
  MC_DCHECK(violation.empty(),
            "static analysis soundness contract violated on contract call");
  const std::string concrete_violation = concretization_check(dc, ctx, spec.trace);
  MC_DCHECK(concrete_violation.empty(),
            "concretized footprint missed a traced cell on contract call");
#endif

  // Own-storage observations of a traced run: the pre-state value of
  // every key it read (conservative — even reads after an own write
  // validate against the committed pre-image).
  for (const Word key : spec.trace.reads)
    spec.observed.emplace(std::make_pair(id, key),
                          committed(contracts_, id, key));
  return spec;
}

std::optional<SpeculativeCall> ContractStore::call_speculative(
    Word id, ExecContext ctx) const {
  // Traced: observations come from the read set, and the scheduler
  // records the trace as the tx's dynamic footprint.
  return run(id, std::move(ctx), /*traced=*/true);
}

bool ContractStore::speculation_current(const SpeculativeCall& spec) const {
  for (const auto& [cell, seen] : spec.observed)
    if (committed(contracts_, cell.first, cell.second) != seen) return false;
  return true;
}

void ContractStore::commit_speculation(const SpeculativeCall& spec) {
  auto it = contracts_.find(spec.contract_id);
  MC_ASSERT(it != contracts_.end(),
            "committing a speculative call into a missing contract");
  MC_ASSERT(spec.result.ok(), "committing a trapped speculative call");
  Storage& storage = it->second.storage;
  // A contract deployed since the record opened is erased whole on undo;
  // any other contract's cells keep their first-touch priors.
  UndoRecord& record = undo_.open();
  if (record.created.count(spec.contract_id) == 0) {
    for (const auto& entry : spec.result.writes) {
      auto slot = storage.find(entry.first);
      record.cells.try_emplace(
          {spec.contract_id, entry.first},
          slot == storage.end() ? std::nullopt : std::optional(slot->second));
    }
  }
  fold_writes(storage, spec.result.writes);
  if (!record.event_count.has_value()) record.event_count = events_.size();
  events_.insert(events_.end(), spec.events.begin(), spec.events.end());
}

const DeployedContract* ContractStore::contract(Word id) const {
  auto it = contracts_.find(id);
  return it == contracts_.end() ? nullptr : &it->second;
}

std::optional<ExecResult> ContractStore::call(Word id, ExecContext ctx) {
  auto spec = run(id, std::move(ctx), /*traced=*/false);
  if (!spec.has_value()) return std::nullopt;
  if (spec->result.ok()) commit_speculation(*spec);
  return std::move(spec->result);
}

std::vector<Event> ContractStore::events_since(std::size_t from_index) const {
  if (from_index >= events_.size()) return {};
  return std::vector<Event>(events_.begin() +
                                static_cast<std::ptrdiff_t>(from_index),
                            events_.end());
}

void ContractStore::undo(const UndoRecord& record) {
  for (const auto& [key, prior] : record.cells) {
    Storage& storage = contracts_.at(key.first).storage;
    if (prior.has_value())
      storage[key.second] = *prior;
    else
      storage.erase(key.second);
  }
  for (const Word id : record.created) contracts_.erase(id);
  if (record.event_count.has_value()) events_.resize(*record.event_count);
  if (record.nonce.has_value()) nonce_ = *record.nonce;
}

void ContractStore::rollback_to(std::uint64_t height) {
  if (undo_.rollback_to(height,
                        [this](const UndoRecord& record) { undo(record); }))
    return;
  // Past the retained records: only the fresh store is reachable.
  MC_ASSERT(height == 0, "contract rollback past the retained undo records");
  contracts_.clear();
  events_.clear();
  nonce_ = 0;
}

Hash256 ContractStore::digest() const {
  ByteWriter w;
  for (const auto& [id, dc] : contracts_) {
    w.u64(id);
    w.u64(dc.deployer);
    w.bytes(BytesView(dc.code));
    for (const auto& [key, value] : dc.storage) {
      w.u64(key);
      w.u64(value);
    }
  }
  w.u64(events_.size());
  return crypto::sha256(BytesView(w.data()));
}

}  // namespace mc::vm
