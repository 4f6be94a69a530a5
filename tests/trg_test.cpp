#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "locality/lru_stack.hpp"
#include "support/flat_map.hpp"
#include "support/rng.hpp"
#include "trg/graph.hpp"
#include "trg/reduction.hpp"

namespace codelayout {
namespace {

using testing::make_trace;
using testing::random_trace;

// ---------- construction (Definition 6) --------------------------------------

TEST(TrgBuild, InterleavedReuseCountsConflict) {
  // A B A: B occurs between two successive occurrences of A -> edge(A,B)=1.
  const Trg g = Trg::build(make_trace({1, 2, 1}));
  EXPECT_EQ(g.edge_weight(1, 2), 1u);
  EXPECT_EQ(g.edge_weight(2, 1), 1u);  // undirected
}

TEST(TrgBuild, NoReuseNoEdge) {
  // A B: no successive occurrence of either -> no conflicts.
  const Trg g = Trg::build(make_trace({1, 2}));
  EXPECT_EQ(g.edge_weight(1, 2), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(TrgBuild, RepeatedInterleavingAccumulates) {
  // A B A B A: edge grows with each interleaved reuse.
  const Trg g = Trg::build(make_trace({1, 2, 1, 2, 1}));
  // A reused at positions 2 (B above) and 4 (B above): 2 credits from A.
  // B reused at position 3 (A above): 1 credit. Total edge weight 3.
  EXPECT_EQ(g.edge_weight(1, 2), 3u);
}

TEST(TrgBuild, MultipleIntermediatesEachGetAnEdge) {
  // A B C A: both B and C interleave A's reuse.
  const Trg g = Trg::build(make_trace({1, 2, 3, 1}));
  EXPECT_EQ(g.edge_weight(1, 2), 1u);
  EXPECT_EQ(g.edge_weight(1, 3), 1u);
  EXPECT_EQ(g.edge_weight(2, 3), 0u);
}

TEST(TrgBuild, WindowCapsCoOccurrence) {
  // With a 2-entry window, A is evicted before its reuse: no edge.
  const Trace t = make_trace({1, 2, 3, 1});
  const Trg capped = Trg::build(t, TrgConfig{.window_entries = 2});
  EXPECT_EQ(capped.edge_weight(1, 2), 0u);
  EXPECT_EQ(capped.edge_weight(1, 3), 0u);
  const Trg wide = Trg::build(t, TrgConfig{.window_entries = 16});
  EXPECT_GT(wide.edge_weight(1, 3), 0u);
}

TEST(TrgBuild, TrimsInternally) {
  const Trg a = Trg::build(make_trace({1, 1, 2, 2, 1}));
  const Trg b = Trg::build(make_trace({1, 2, 1}));
  EXPECT_EQ(a.edge_weight(1, 2), b.edge_weight(1, 2));
}

TEST(TrgBuild, NodesInFirstAppearanceOrder) {
  const Trg g = Trg::build(make_trace({5, 3, 9, 3, 5}));
  const auto nodes = g.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], 5u);
  EXPECT_EQ(nodes[1], 3u);
  EXPECT_EQ(nodes[2], 9u);
}

TEST(TrgBuild, EdgesByWeightSortedDeterministically) {
  Trg g;
  g.add_edge(1, 2, 10);
  g.add_edge(3, 4, 10);
  g.add_edge(1, 3, 50);
  const auto edges = g.edges_by_weight();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].weight, 50u);
  EXPECT_EQ(edges[1].a, 1u);  // ties break by (a, b)
  EXPECT_EQ(edges[2].a, 3u);
}

TEST(TrgBuild, NeighborsThrowsForUnknown) {
  const Trg g = Trg::build(make_trace({1, 2, 1}));
  EXPECT_THROW((void)g.neighbors(42), ContractError);
}

TEST(TrgBuild, RejectsMoreDistinctSymbolsThanTheCap) {
  std::vector<Symbol> symbols(kMaxTrgNodes + 1);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = static_cast<Symbol>(i);
  }
  EXPECT_THROW((void)Trg::build(make_trace(symbols)), ContractError);
}

// ---------- dense build vs the longhand Definition 6 ------------------------

/// Definition 6 written out: the capped LRU stack over the raw symbols, and
/// one hash-table increment per (reused block, block above it) pair.
struct ReferenceTrg {
  std::vector<Symbol> nodes;  ///< first-appearance order
  FlatKeyMap<Trg::Weight> edges;  ///< packed (lo, hi) -> weight
};

ReferenceTrg reference_trg(const Trace& trace, std::uint32_t window_entries) {
  ReferenceTrg ref;
  const Symbol space = trace.symbol_space();
  std::vector<std::uint8_t> noted(space, 0);
  LruStack stack(space);
  for (const Symbol a : trace.symbols()) {
    if (!noted[a]) {
      noted[a] = 1;
      ref.nodes.push_back(a);
    }
    if (stack.resident(a)) {
      stack.for_above(a, [&](Symbol b) {
        const std::uint64_t lo = std::min(a, b);
        const std::uint64_t hi = std::max(a, b);
        ref.edges[(lo << 32) | hi] += 1;
        return true;
      });
    }
    stack.touch(a);
    stack.evict_to_weight(window_entries);
  }
  return ref;
}

void expect_matches_reference(const Trace& trace) {
  for (const std::uint32_t window : {8u, 16u, 64u, 1024u}) {
    SCOPED_TRACE(window);
    const Trg dense = Trg::build(trace, TrgConfig{.window_entries = window});
    const ReferenceTrg ref = reference_trg(trace, window);
    ASSERT_EQ(std::vector<Symbol>(dense.nodes().begin(), dense.nodes().end()),
              ref.nodes);
    // Equal counts plus every reference edge present with its weight: the
    // edge sets are equal.
    ASSERT_EQ(dense.edge_count(), ref.edges.size());
    std::map<Symbol, std::vector<std::pair<Symbol, Trg::Weight>>> adjacency;
    ref.edges.for_each([&](std::uint64_t key, const Trg::Weight& w) {
      const auto lo = static_cast<Symbol>(key >> 32);
      const auto hi = static_cast<Symbol>(key & 0xffffffffu);
      EXPECT_EQ(dense.edge_weight(lo, hi), w) << lo << "-" << hi;
      adjacency[lo].emplace_back(hi, w);
      adjacency[hi].emplace_back(lo, w);
    });
    // Every node's CSR slice: sorted by neighbor symbol, reference weights.
    for (const Symbol s : dense.nodes()) {
      std::vector<std::pair<Symbol, Trg::Weight>>& expected = adjacency[s];
      std::sort(expected.begin(), expected.end());
      std::vector<std::pair<Symbol, Trg::Weight>> actual;
      for (const Trg::Neighbor& nb : dense.neighbors(s)) {
        actual.emplace_back(nb.to, nb.weight);
      }
      ASSERT_EQ(actual, expected) << "node " << s;
    }
  }
}

TEST(TrgReference, RandomTracesMatchEdgeForEdge) {
  for (const std::uint64_t seed : {23u, 37u}) {
    SCOPED_TRACE(seed);
    expect_matches_reference(random_trace(seed, 8'000, 120));
  }
}

TEST(TrgReference, LongRepeatBurstsMatch) {
  expect_matches_reference(random_trace(41, 12'000, 40, /*burstiness=*/0.9));
}

TEST(TrgReference, ShortTraceUnderAWideWindowMatches) {
  expect_matches_reference(random_trace(53, 400, 30));
}

TEST(TrgReference, TinyTraceMatches) {
  expect_matches_reference(make_trace({1, 2, 1, 3}));
}

TEST(TrgReference, SparseSymbolValuesAreRenumbered) {
  // Symbols 0, 1000, 2000, ...: the dense table indexes first-appearance
  // positions, so it stays n x n while the symbol space is 1000x larger.
  const Trace dense_symbols = random_trace(23, 8'000, 120);
  Trace sparse(Trace::Granularity::kBlock);
  for (const Symbol s : dense_symbols.symbols()) sparse.push_symbol(s * 1000);
  expect_matches_reference(sparse);
}

// ---------- geometry helpers -------------------------------------------------

TEST(TrgGeometry, SlotCountPaperConfiguration) {
  // 32KB, 4-way, 64B lines -> 128 sets; 64B blocks occupy 1 set-group.
  EXPECT_EQ(trg_slot_count(32 * 1024, 4, 64, 64), 128u);
  // 512-byte functions: ceil(512/256) = 2 set-groups -> 64 slots.
  EXPECT_EQ(trg_slot_count(32 * 1024, 4, 64, 512), 64u);
}

TEST(TrgGeometry, WindowEntriesIsTwiceCacheOverBlock) {
  EXPECT_EQ(trg_window_entries(32 * 1024, 64), 1024u);
  EXPECT_EQ(trg_window_entries(32 * 1024, 512), 128u);
}

TEST(TrgGeometry, RejectsOversizedBlock) {
  EXPECT_THROW(trg_slot_count(1024, 4, 64, 8192), ContractError);
}

// ---------- reduction (Algorithm 2, Figure 2) --------------------------------

/// The Figure 2 instance (weights reconstructed so the narrated reduction
/// holds): heaviest edge <A,B> splits A and B into slots 1 and 2; <E,F>
/// sends E to the empty slot 3 and F joins A (its least-conflict slot),
/// removing E<B,F>; then C joins E. Final: (A F)(B)(E C) -> A B E F C.
/// Symbols: A=0 B=1 C=2 E=3 F=4.
Trg fig2_graph() {
  Trg g;
  g.add_edge(0, 1, 40);  // A-B
  g.add_edge(3, 4, 35);  // E-F
  g.add_edge(2, 0, 30);  // C-A
  g.add_edge(1, 4, 15);  // B-F
  g.add_edge(2, 1, 12);  // C-B
  g.add_edge(2, 3, 10);  // C-E
  g.add_edge(0, 4, 10);  // A-F
  return g;
}

TEST(TrgReduce, Fig2SlotAssignment) {
  const TrgReduction r = reduce_trg(fig2_graph(), 3);
  ASSERT_EQ(r.slots.size(), 3u);
  EXPECT_EQ(r.slots[0], (std::vector<Symbol>{0, 4}));  // A F
  EXPECT_EQ(r.slots[1], (std::vector<Symbol>{1}));     // B
  EXPECT_EQ(r.slots[2], (std::vector<Symbol>{3, 2}));  // E C
}

TEST(TrgReduce, Fig2OutputSequence) {
  const TrgReduction r = reduce_trg(fig2_graph(), 3);
  // Round-robin over slot heads: A B E F C.
  EXPECT_EQ(r.order, (std::vector<Symbol>{0, 1, 3, 4, 2}));
}

TEST(TrgReduce, EveryNodeAppearsExactlyOnce) {
  Rng rng(3);
  Trace raw(Trace::Granularity::kBlock);
  for (int i = 0; i < 4000; ++i) {
    raw.push_symbol(static_cast<Symbol>(rng.zipf(60, 0.7)));
  }
  const Trace t = raw.trimmed();
  const Trg g = Trg::build(t);
  const TrgReduction r = reduce_trg(g, 8);
  auto sorted = r.order;
  std::sort(sorted.begin(), sorted.end());
  auto nodes = std::vector<Symbol>(g.nodes().begin(), g.nodes().end());
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(sorted, nodes);
}

TEST(TrgReduce, Deterministic) {
  Rng rng(9);
  Trace raw(Trace::Granularity::kBlock);
  for (int i = 0; i < 2000; ++i) {
    raw.push_symbol(static_cast<Symbol>(rng.below(30)));
  }
  const Trace t = raw.trimmed();
  const Trg g = Trg::build(t);
  EXPECT_EQ(reduce_trg(g, 16).order, reduce_trg(g, 16).order);
}

TEST(TrgReduce, IsolatedNodesStillPlaced) {
  Trg g;
  g.add_edge(0, 1, 5);
  // Nodes 7 and 8 exist only through a no-conflict trace build.
  const Trg with_isolated = Trg::build(make_trace({0, 1, 0, 7, 8}));
  const TrgReduction r = reduce_trg(with_isolated, 4);
  EXPECT_EQ(r.order.size(), 4u);
  EXPECT_NE(std::find(r.order.begin(), r.order.end(), 7u), r.order.end());
  EXPECT_NE(std::find(r.order.begin(), r.order.end(), 8u), r.order.end());
}

TEST(TrgReduce, SingleSlotDegeneratesToOneList) {
  const TrgReduction r = reduce_trg(fig2_graph(), 1);
  ASSERT_EQ(r.slots.size(), 1u);
  EXPECT_EQ(r.slots[0].size(), 5u);
  EXPECT_EQ(r.order.size(), 5u);
}

TEST(TrgReduce, ConflictingNodesLandInDifferentSlots) {
  // Two heavy-conflict nodes must not share a slot when slots are free.
  Trg g;
  g.add_edge(10, 11, 100);
  const TrgReduction r = reduce_trg(g, 2);
  // Each slot holds exactly one of them.
  ASSERT_EQ(r.slots.size(), 2u);
  EXPECT_EQ(r.slots[0].size(), 1u);
  EXPECT_EQ(r.slots[1].size(), 1u);
}

TEST(TrgReduce, ZeroSlotsRejected) {
  EXPECT_THROW(reduce_trg(fig2_graph(), 0), ContractError);
}

}  // namespace
}  // namespace codelayout
