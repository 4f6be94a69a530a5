#include "trace/prune.hpp"

#include <algorithm>

namespace codelayout {

PruneResult prune_to_hot(const Trace& trace, std::size_t top_k) {
  CL_CHECK(top_k > 0);
  const auto counts = trace.occurrence_counts();

  std::vector<Symbol> order;
  order.reserve(counts.size());
  for (Symbol s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](Symbol a, Symbol b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  });
  if (order.size() > top_k) order.resize(top_k);

  std::vector<bool> hot(counts.size(), false);
  for (const Symbol sym : order) hot[sym] = true;

  PruneResult result{.trace = Trace(trace.granularity()),
                     .hot_set = std::move(order),
                     .kept_events = 0,
                     .total_events = trace.size()};
  // Keep hot events and re-trim on the fly: a kept event equal to the last
  // kept one collapses across the dropped gap between them.
  Trace& out = result.trace;
  for (const Symbol sym : trace.symbols()) {
    if (!hot[sym]) continue;
    ++result.kept_events;
    if (out.empty() || out.symbols().back() != sym) out.push_symbol(sym);
  }
  return result;
}

Trace sample_windows(const Trace& trace, std::size_t window_len,
                     std::size_t stride) {
  CL_CHECK(window_len > 0);
  CL_CHECK(stride >= window_len);
  const std::span<const Symbol> events = trace.symbols();
  Trace out(trace.granularity());
  // Windows [start, start + window_len) are disjoint and ordered because
  // stride >= window_len; the concatenation is trimmed as it is built.
  for (std::size_t start = 0; start < events.size();) {
    const std::size_t left = events.size() - start;
    for (const Symbol sym : events.subspan(start, std::min(window_len, left))) {
      if (out.empty() || out.symbols().back() != sym) out.push_symbol(sym);
    }
    if (stride >= left) break;
    start += stride;
  }
  return out;
}

}  // namespace codelayout
