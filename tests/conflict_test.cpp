// Conflict-footprint edge cases and the dependency-DAG contract backing
// the parallel execution pipeline (DESIGN.md §13): exactly which
// intersections conflict, how unbounded (⊤) footprints behave, the
// property that block order is always a valid topological order of the
// DAG the scheduler runs, and the index-built DAG checked against the
// pairwise reference builder below.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "chain/conflict.hpp"
#include "chain/execution/dag.hpp"
#include "common/rng.hpp"

namespace {

using mc::Rng;
using mc::chain::FootprintCell;
using mc::chain::TxFootprint;
using mc::chain::footprints_conflict;
using mc::chain::exec::TxDag;
using mc::chain::exec::build_tx_dag;
namespace fp = mc::chain::fp_domain;

FootprintCell contract_cell(mc::vm::Word id, mc::vm::Word key) {
  return {fp::kContract, id, key};
}

/// A storage cell of one fixed contract, for tests that need many cells.
FootprintCell cell(mc::vm::Word key) { return contract_cell(1, key); }

TxFootprint reads_of(std::initializer_list<FootprintCell> cells) {
  TxFootprint f;
  f.reads.assign(cells.begin(), cells.end());
  f.normalize();
  return f;
}

TxFootprint writes_of(std::initializer_list<FootprintCell> cells) {
  TxFootprint f;
  f.writes.assign(cells.begin(), cells.end());
  f.normalize();
  return f;
}

/// The pairwise reference builder: an edge i -> j for every conflicting
/// pair, O(n²) footprint comparisons. The index-built DAG must reach
/// exactly what this one reaches.
TxDag pairwise_dag(const std::vector<TxFootprint>& footprints) {
  TxDag dag;
  const std::size_t n = footprints.size();
  dag.preds.resize(n);
  dag.levels.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!footprints_conflict(footprints[i], footprints[j])) continue;
      dag.preds[j].push_back(static_cast<std::uint32_t>(i));
      ++dag.edges;
      dag.levels[j] = std::max(dag.levels[j], dag.levels[i] + 1);
    }
  if (n > 0)
    dag.critical_path =
        1 + *std::max_element(dag.levels.begin(), dag.levels.end());
  return dag;
}

/// Seeded random footprints over a small cell universe, so collisions
/// (and thus edges) are common; `top_rate` of them are ⊤.
std::vector<TxFootprint> random_footprints(Rng& rng, std::size_t n,
                                           double top_rate) {
  std::vector<TxFootprint> fps;
  for (std::size_t i = 0; i < n; ++i) {
    TxFootprint f;
    const std::size_t cells = rng.uniform(4);
    for (std::size_t c = 0; c < cells; ++c) {
      const FootprintCell picked =
          contract_cell(rng.uniform(3), rng.uniform(5));
      if (rng.bernoulli(0.5))
        f.writes.push_back(picked);
      else
        f.reads.push_back(picked);
    }
    f.normalize();
    f.unbounded = rng.bernoulli(top_rate);
    fps.push_back(std::move(f));
  }
  return fps;
}

/// The executor's wave rule (chain/execution/executor.cpp) over a DAG in
/// which every tx speculates: each wave takes every unexecuted tx whose
/// latest predecessor has committed, then the commit cursor advances
/// through the executed prefix.
std::vector<std::vector<std::uint32_t>> waves_of(const TxDag& dag) {
  std::vector<std::vector<std::uint32_t>> waves;
  std::vector<bool> executed(dag.size(), false);
  std::size_t cursor = 0;
  while (cursor < dag.size()) {
    std::vector<std::uint32_t> wave;
    for (std::size_t j = cursor; j < dag.size(); ++j) {
      const auto& preds = dag.preds[j];
      if (!executed[j] && (preds.empty() || preds.back() < cursor)) {
        wave.push_back(static_cast<std::uint32_t>(j));
        executed[j] = true;
      }
    }
    waves.push_back(std::move(wave));
    while (cursor < dag.size() && executed[cursor]) ++cursor;
  }
  return waves;
}

// --- pairwise conflict semantics -------------------------------------------

TEST(Footprints, WriteWriteOnSameCellConflicts) {
  const TxFootprint a = writes_of({cell(1)});
  const TxFootprint b = writes_of({cell(1)});
  EXPECT_TRUE(footprints_conflict(a, b));
}

TEST(Footprints, WriteReadEitherDirectionConflicts) {
  const TxFootprint writer = writes_of({contract_cell(9, 7)});
  const TxFootprint reader = reads_of({contract_cell(9, 7)});
  EXPECT_TRUE(footprints_conflict(writer, reader));
  EXPECT_TRUE(footprints_conflict(reader, writer));  // R∩W symmetric
}

TEST(Footprints, ReadReadCommutes) {
  // Pure readers of the same cell never conflict — this is what lets a
  // whole wave of lookups against one contract run concurrently.
  const TxFootprint a = reads_of({contract_cell(9, 7), cell(1)});
  const TxFootprint b = reads_of({contract_cell(9, 7), cell(2)});
  EXPECT_FALSE(footprints_conflict(a, b));
}

TEST(Footprints, DisjointCellsCommute) {
  const TxFootprint a = writes_of({cell(1), contract_cell(9, 7)});
  const TxFootprint b = writes_of({cell(2), contract_cell(9, 8)});
  EXPECT_FALSE(footprints_conflict(a, b));
}

TEST(Footprints, DomainsDoNotAlias) {
  // Same (a, b) payload under different domains must stay distinct: the
  // registry cell (7, 0) is not contract 7's storage key 0.
  const TxFootprint a = writes_of({{fp::kRegistry, 7, 0}});
  const TxFootprint b = writes_of({{fp::kContract, 7, 0}});
  EXPECT_FALSE(footprints_conflict(a, b));
}

TEST(Footprints, UnboundedConflictsWithEverything) {
  TxFootprint top;
  top.unbounded = true;
  const TxFootprint empty;  // no reads, no writes
  const TxFootprint reader = reads_of({contract_cell(1, 1)});
  // ⊤ conflicts even with a footprint it shares no cell with — including
  // the empty one — and regardless of argument order.
  EXPECT_TRUE(footprints_conflict(top, empty));
  EXPECT_TRUE(footprints_conflict(empty, top));
  EXPECT_TRUE(footprints_conflict(top, reader));
  TxFootprint top2;
  top2.unbounded = true;
  EXPECT_TRUE(footprints_conflict(top, top2));
}

TEST(Footprints, SelfConflictIsNotAnEdge) {
  // A writer trivially "conflicts" with itself pairwise, but the DAG is
  // over distinct indices: a single tx (or several copies of the same
  // footprint at different indices) must produce forward edges only,
  // never self-loops.
  TxFootprint w = writes_of({cell(5)});
  EXPECT_TRUE(footprints_conflict(w, w));

  const TxDag solo = build_tx_dag({w});
  EXPECT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo.edges, 0u);
  EXPECT_TRUE(solo.preds[0].empty());

  const TxDag chain = build_tx_dag({w, w, w});
  for (std::size_t j = 0; j < chain.size(); ++j)
    for (const std::uint32_t p : chain.preds[j])
      EXPECT_LT(p, j) << "self or backward edge at " << j;
}

// --- DAG shape --------------------------------------------------------------

TEST(TxDagShape, SerialChainAndParallelBlock) {
  TxFootprint w = writes_of({cell(1)});
  const TxDag serial = build_tx_dag({w, w, w, w});
  EXPECT_EQ(serial.critical_path, 4u);
  // Six conflicting pairs on one cell, but each writer depends only on
  // the one before it: the other three pairs are implied.
  EXPECT_EQ(serial.edges, 3u);
  EXPECT_NEAR(serial.parallelism(), 1.0, 1e-9);

  std::vector<TxFootprint> disjoint;
  for (mc::vm::Word i = 0; i < 4; ++i)
    disjoint.push_back(writes_of({cell(100 + i)}));
  const TxDag wide = build_tx_dag(disjoint);
  EXPECT_EQ(wide.critical_path, 1u);
  EXPECT_EQ(wide.edges, 0u);
  EXPECT_NEAR(wide.parallelism(), 4.0, 1e-9);
}

TEST(TxDagShape, LevelsFollowLongestPath) {
  // 0 -> 1 -> 3, 2 independent: levels 0,1,0,2.
  const TxFootprint a = writes_of({cell(1)});
  const TxFootprint b = writes_of({cell(1), cell(2)});
  const TxFootprint c = writes_of({cell(9)});
  const TxFootprint d = writes_of({cell(2)});
  const TxDag dag = build_tx_dag({a, b, c, d});
  EXPECT_EQ(dag.levels, (std::vector<std::uint32_t>{0, 1, 0, 2}));
  EXPECT_EQ(dag.critical_path, 3u);
}

// --- topological-order property --------------------------------------------

TEST(TxDagOrder, RejectsNonPermutations) {
  TxFootprint w = writes_of({cell(1)});
  const TxDag dag = build_tx_dag({w, w, w});
  EXPECT_FALSE(dag.is_topological_order({0, 1}));        // too short
  EXPECT_FALSE(dag.is_topological_order({0, 1, 1}));     // duplicate
  EXPECT_FALSE(dag.is_topological_order({0, 1, 3}));     // out of range
  EXPECT_FALSE(dag.is_topological_order({2, 1, 0}));     // violates edges
  EXPECT_TRUE(dag.is_topological_order({0, 1, 2}));
}

// Property: for ANY footprint mix, the block's own order 0..n-1 is a
// valid topological order of the DAG — the exact invariant that lets the
// parallel scheduler fall back to index-order commit without deadlock.
TEST(TxDagOrder, SequentialOrderAlwaysTopological) {
  Rng rng(0xc0f1dULL);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform(24);
    const std::vector<TxFootprint> fps = random_footprints(rng, n, 0.1);
    const TxDag dag = build_tx_dag(fps);

    std::vector<std::uint32_t> sequential(n);
    std::iota(sequential.begin(), sequential.end(), 0);
    ASSERT_TRUE(dag.is_topological_order(sequential))
        << "block order rejected on trial " << trial << " (n=" << n << ")";

    // Cross-check edge soundness: every recorded edge joins a genuinely
    // conflicting pair (completeness is TxDagReference's job).
    for (std::size_t j = 0; j < n; ++j) {
      for (const std::uint32_t p : dag.preds[j]) {
        EXPECT_TRUE(footprints_conflict(fps[p], fps[j]))
            << "edge " << p << " -> " << j << " on trial " << trial;
      }
    }

    // A reversal is only topological when the DAG has no edges at all.
    if (n > 1 && dag.edges > 0) {
      std::vector<std::uint32_t> reversed(sequential.rbegin(),
                                          sequential.rend());
      EXPECT_FALSE(dag.is_topological_order(reversed));
    }
  }
}

// --- index-built DAG vs the pairwise reference -----------------------------

// Property: over seeded random footprint mixes, ⊤ included, the index
// DAG keeps a subset of the pairwise edges that reaches every pairwise
// edge, so each tx has the same latest predecessor, the same level and
// the same critical path — and the executor's wave rule, which reads
// only the latest predecessor, forms the same waves on both.
TEST(TxDagReference, IndexBuiltMatchesPairwise) {
  Rng rng(0xda6ULL);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = rng.uniform(48);
    const double top_rate = trial % 3 == 0 ? 0.0 : 0.15;
    const std::vector<TxFootprint> fps = random_footprints(rng, n, top_rate);
    const TxDag dag = build_tx_dag(fps);
    const TxDag ref = pairwise_dag(fps);
    SCOPED_TRACE("trial " + std::to_string(trial));

    ASSERT_EQ(dag.size(), n);
    EXPECT_EQ(dag.levels, ref.levels);
    EXPECT_EQ(dag.critical_path, ref.critical_path);
    EXPECT_LE(dag.edges, ref.edges);
    // reach[j] = bitmask of every tx with a path to j (n < 64).
    std::vector<std::uint64_t> reach(n, 0);
    std::size_t edges = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto& preds = dag.preds[j];
      const auto& ref_preds = ref.preds[j];
      ASSERT_EQ(preds.empty(), ref_preds.empty()) << "tx " << j;
      if (!preds.empty()) {
        EXPECT_EQ(preds.back(), ref_preds.back());
      }
      EXPECT_TRUE(std::is_sorted(preds.begin(), preds.end()));
      for (const std::uint32_t p : preds) {
        EXPECT_TRUE(std::binary_search(ref_preds.begin(), ref_preds.end(), p))
            << "edge " << p << " -> " << j << " is not a conflict";
        reach[j] |= reach[p] | (std::uint64_t{1} << p);
      }
      edges += preds.size();
      for (const std::uint32_t p : ref_preds) {
        EXPECT_TRUE(reach[j] >> p & 1U)
            << "conflict " << p << " -> " << j << " is not implied";
      }
    }
    EXPECT_EQ(dag.edges, edges);
    EXPECT_EQ(waves_of(dag), waves_of(ref));
  }
}

}  // namespace
