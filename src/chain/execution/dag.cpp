#include "chain/execution/dag.hpp"

#include <algorithm>
#include <unordered_map>

namespace mc::chain::exec {

bool TxDag::is_topological_order(
    const std::vector<std::uint32_t>& order) const {
  if (order.size() != size()) return false;
  // position[v] = index of v within `order`; also rejects non-permutations.
  std::vector<std::size_t> position(size(), size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= size() || position[order[i]] != size()) return false;
    position[order[i]] = i;
  }
  for (std::size_t j = 0; j < size(); ++j)
    for (const std::uint32_t p : preds[j])
      if (position[p] >= position[j]) return false;
  return true;
}

namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

struct CellHash {
  std::size_t operator()(const FootprintCell& cell) const noexcept {
    return cell[0] ^ cell[1] * 0x9e3779b97f4a7c15ULL ^
           cell[2] * 0xbf58476d1ce4e5b9ULL;
  }
};

/// Per-cell index entry: the last tx that wrote the cell and the txs that
/// read it since.
struct CellAccess {
  std::uint32_t last_writer = kNone;
  std::vector<std::uint32_t> readers;
};

}  // namespace

TxDag build_tx_dag(const std::vector<TxFootprint>& footprints) {
  TxDag dag;
  const auto n = static_cast<std::uint32_t>(footprints.size());
  dag.preds.resize(n);
  dag.levels.assign(n, 0);

  std::size_t cell_refs = 0;
  for (const TxFootprint& fp : footprints)
    cell_refs += fp.reads.size() + fp.writes.size();
  std::unordered_map<FootprintCell, CellAccess, CellHash> index;
  index.reserve(cell_refs);

  std::uint32_t last_top = kNone;  // the latest ⊤ tx so far
  for (std::uint32_t j = 0; j < n; ++j) {
    const TxFootprint& fp = footprints[j];
    std::vector<std::uint32_t>& preds = dag.preds[j];
    // Every tx depends on the latest ⊤, which depends on everything
    // before it, so a cell predecessor older than that ⊤ is implied.
    const std::uint32_t floor = last_top == kNone ? 0 : last_top;
    const auto depend_on = [&](std::uint32_t p) {
      if (p != kNone && p >= floor && p != j) preds.push_back(p);
    };
    if (fp.unbounded) {
      for (std::uint32_t p = floor; p < j; ++p) preds.push_back(p);
      last_top = j;
    } else {
      depend_on(last_top);
      for (const FootprintCell& cell : fp.reads) {
        CellAccess& access = index[cell];
        depend_on(access.last_writer);
        access.readers.push_back(j);
      }
      for (const FootprintCell& cell : fp.writes) {
        CellAccess& access = index[cell];
        depend_on(access.last_writer);
        for (const std::uint32_t reader : access.readers) depend_on(reader);
        access.last_writer = j;
        access.readers.clear();
      }
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    }
    dag.edges += preds.size();
    for (const std::uint32_t p : preds)
      dag.levels[j] = std::max(dag.levels[j], dag.levels[p] + 1);
  }
  if (n > 0)
    dag.critical_path =
        1 + *std::max_element(dag.levels.begin(), dag.levels.end());
  return dag;
}

}  // namespace mc::chain::exec
