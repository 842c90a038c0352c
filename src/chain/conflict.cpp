#include "chain/conflict.hpp"

#include <algorithm>

#include "chain/vm_hook.hpp"

namespace mc::chain {

void TxFootprint::normalize() {
  for (std::vector<FootprintCell>* cells : {&reads, &writes}) {
    std::sort(cells->begin(), cells->end());
    cells->erase(std::unique(cells->begin(), cells->end()), cells->end());
  }
}

namespace {

/// Fold a contract's deployment-time static footprint into cells. Exact
/// keys become precise cells; any non-constant key (or an incomplete
/// analysis) makes the footprint unbounded.
void fold_contract_footprint(const vm::DeployedContract& dc,
                             TxFootprint& out) {
  using Kind = vm::analysis::FootprintEntry::Kind;
  const vm::analysis::AnalysisReport& report = dc.report;
  if (report.incomplete) {
    out.unbounded = true;
    return;
  }
  for (const vm::analysis::FootprintEntry& e : report.footprint.entries) {
    if (!e.key.is_const() ||
        (e.kind == Kind::ForeignRead && !e.contract.is_const())) {
      out.unbounded = true;
      return;
    }
    switch (e.kind) {
      case Kind::Read:
        out.reads.push_back({fp_domain::kContract, dc.id, e.key.value});
        break;
      case Kind::Write:
        out.writes.push_back({fp_domain::kContract, dc.id, e.key.value});
        break;
      case Kind::ForeignRead:
        out.reads.push_back(
            {fp_domain::kContract, e.contract.value, e.key.value});
        break;
    }
  }
}

}  // namespace

TxFootprint tx_footprint(const Transaction& tx,
                         const vm::ContractStore* store) {
  // Transfers and anchors have no cells: the ledger side of every tx is
  // applied in block order at its commit slot, never speculated.
  TxFootprint fp;
  if (tx.kind == TxKind::Deploy) {
    // The created id depends on the store nonce, so any two deploys
    // serialize against each other via the registry cell.
    fp.writes.push_back({fp_domain::kRegistry, 0, 0});
  } else if (tx.kind == TxKind::Call) {
    const auto call = decode_call_payload(BytesView(tx.payload));
    const vm::DeployedContract* dc =
        call.has_value() && store != nullptr
            ? store->contract(call->contract_id)
            : nullptr;
    if (dc == nullptr)
      fp.unbounded = true;
    else
      fold_contract_footprint(*dc, fp);
  }
  fp.normalize();
  return fp;
}

bool footprints_conflict(const TxFootprint& a, const TxFootprint& b) {
  if (a.unbounded || b.unbounded) return true;
  // Merge walk over two sorted cell vectors.
  const auto intersects = [](const std::vector<FootprintCell>& x,
                             const std::vector<FootprintCell>& y) {
    auto i = x.begin();
    auto j = y.begin();
    while (i != x.end() && j != y.end()) {
      if (*i < *j)
        ++i;
      else if (*j < *i)
        ++j;
      else
        return true;
    }
    return false;
  };
  return intersects(a.writes, b.writes) || intersects(a.writes, b.reads) ||
         intersects(a.reads, b.writes);
}

BlockConflictReport analyze_block_conflicts(const Block& block,
                                            const vm::ContractStore* store) {
  return analyze_block_conflicts(block, [store](const Transaction& tx) {
    return tx_footprint(tx, store);
  });
}

BlockConflictReport analyze_block_conflicts(
    const Block& block,
    const std::function<TxFootprint(const Transaction&)>& footprint_of) {
  std::vector<TxFootprint> footprints;
  footprints.reserve(block.txs.size());
  for (const Transaction& tx : block.txs)
    footprints.push_back(footprint_of(tx));

  BlockConflictReport report;
  report.txs = block.txs.size();
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    if (footprints[i].unbounded) ++report.unbounded_txs;
    for (std::size_t j = i + 1; j < footprints.size(); ++j) {
      ++report.pairs;
      if (footprints_conflict(footprints[i], footprints[j]))
        ++report.conflicting_pairs;
    }
  }
  return report;
}

}  // namespace mc::chain
