#include "trg/graph.hpp"

#include <algorithm>
#include <limits>

#include "locality/lru_stack.hpp"
#include "support/check.hpp"

namespace codelayout {
namespace {

inline std::uint64_t edge_key(Symbol a, Symbol b) {
  const Symbol lo = a < b ? a : b;
  const Symbol hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

std::uint32_t trg_window_entries(std::uint64_t cache_bytes,
                                 std::uint32_t block_bytes) {
  CL_CHECK(block_bytes > 0);
  const std::uint64_t entries = 2 * cache_bytes / block_bytes;
  CL_CHECK_MSG(entries > 0, "window smaller than one block");
  return static_cast<std::uint32_t>(entries);
}

std::uint32_t trg_slot_count(std::uint64_t cache_bytes, std::uint32_t assoc,
                             std::uint32_t line_bytes,
                             std::uint32_t block_bytes) {
  CL_CHECK(assoc > 0 && line_bytes > 0 && block_bytes > 0);
  const std::uint64_t way_bytes = assoc * static_cast<std::uint64_t>(line_bytes);
  const std::uint64_t sets = cache_bytes / way_bytes;
  const std::uint64_t sets_per_block = (block_bytes + way_bytes - 1) / way_bytes;
  CL_CHECK(sets > 0);
  const std::uint64_t slots = sets / sets_per_block;
  CL_CHECK_MSG(slots > 0, "code block larger than the cache");
  return static_cast<std::uint32_t>(slots);
}

Trg Trg::build(const Trace& trace, const TrgConfig& config) {
  CL_CHECK(config.window_entries > 0);
  const std::span<const Symbol> events = trace.symbols();
  // A count grows by at most one per event, so u32 cells cannot overflow.
  CL_CHECK(events.size() <= std::numeric_limits<std::uint32_t>::max());

  // Renumber the symbols to first-appearance indices: nodes_ is the order.
  Trg graph;
  for (const Symbol s : events) graph.note_node(s);
  const std::size_t n = graph.nodes_.size();
  CL_CHECK_MSG(n <= kMaxTrgNodes,
               n << " distinct symbols exceed the TRG build's cap of "
                 << kMaxTrgNodes << "; pass a pruned trace");

  // m[a * n + b] counts the reuses of a that b interleaved (Definition 6).
  // A repeat event is a stack no-op (the symbol is already on top: for_above
  // yields nothing and touch early-returns), so the untrimmed trace builds
  // the same graph as its trimmed form.
  std::vector<std::uint32_t> m(n * n, 0);
  LruStack stack(static_cast<Symbol>(n));
  for (const Symbol s : events) {
    const std::uint32_t a = graph.node_index_[s];
    if (stack.resident(a)) {
      std::uint32_t* row = m.data() + a * n;
      stack.for_above(a, [row](Symbol b) {
        ++row[b];
        return true;
      });
    }
    stack.touch(a);
    stack.evict_to_weight(config.window_entries);
  }

  // The undirected weight of {i, j} is m[i][j] + m[j][i]; the sum fits in
  // u32, since it is at most the reuse count of i plus that of j.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint32_t w = m[i * n + j] + m[j * n + i];
      if (w != 0) graph.edges_[edge_key(graph.nodes_[i], graph.nodes_[j])] = w;
    }
  }
  graph.ensure_adjacency();
  return graph;
}

void Trg::note_node(Symbol s) {
  if (s >= node_index_.size()) node_index_.resize(s + 1, kNoNode);
  if (node_index_[s] == kNoNode) {
    node_index_[s] = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(s);
  }
}

void Trg::add_edge(Symbol a, Symbol b, Weight w) {
  CL_CHECK(a != b);
  note_node(a);
  note_node(b);
  edges_[edge_key(a, b)] += w;
  adjacency_valid_ = false;
}

Trg::Weight Trg::edge_weight(Symbol a, Symbol b) const {
  if (a == b) return 0;
  const Weight* w = edges_.find(edge_key(a, b));
  return w == nullptr ? 0 : *w;
}

std::vector<Trg::Edge> Trg::edges_by_weight() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  edges_.for_each([&](std::uint64_t key, const Weight& w) {
    out.push_back(Edge{static_cast<Symbol>(key >> 32),
                       static_cast<Symbol>(key & 0xffffffffu), w});
  });
  std::sort(out.begin(), out.end(), [](const Edge& x, const Edge& y) {
    if (x.weight != y.weight) return x.weight > y.weight;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return out;
}

std::span<const Trg::Neighbor> Trg::neighbors(Symbol a) const {
  const std::uint32_t position = node_position(a);
  CL_CHECK_MSG(position != kNoNode, "symbol " << a << " not in TRG");
  ensure_adjacency();
  return {adj_.data() + adj_offsets_[position],
          adj_offsets_[position + 1] - adj_offsets_[position]};
}

void Trg::ensure_adjacency() const {
  if (adjacency_valid_) return;
  adj_offsets_.assign(nodes_.size() + 1, 0);
  edges_.for_each([&](std::uint64_t key, const Weight&) {
    ++adj_offsets_[node_position(static_cast<Symbol>(key >> 32)) + 1];
    ++adj_offsets_[node_position(static_cast<Symbol>(key & 0xffffffffu)) + 1];
  });
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    adj_offsets_[i + 1] += adj_offsets_[i];
  }
  adj_.resize(adj_offsets_.back());
  std::vector<std::uint32_t> cursor(adj_offsets_.begin(),
                                    adj_offsets_.end() - 1);
  edges_.for_each([&](std::uint64_t key, const Weight& w) {
    const auto lo = static_cast<Symbol>(key >> 32);
    const auto hi = static_cast<Symbol>(key & 0xffffffffu);
    adj_[cursor[node_position(lo)]++] = Neighbor{hi, w};
    adj_[cursor[node_position(hi)]++] = Neighbor{lo, w};
  });
  // Sort each slice by neighbor symbol so iteration order is deterministic
  // regardless of the accumulator's internal layout.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::sort(adj_.begin() + adj_offsets_[i],
              adj_.begin() + adj_offsets_[i + 1],
              [](const Neighbor& x, const Neighbor& y) { return x.to < y.to; });
  }
  adjacency_valid_ = true;
}

}  // namespace codelayout
