#include "cache/icache_sim.hpp"

#include <optional>

#include "cache/set_assoc.hpp"
#include "support/registry.hpp"
#include "support/rng.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout {
namespace {

/// One fetch stream: a program replaying its block trace under a layout.
/// The co-run and solo replays walk the trace's symbols() event by event.
/// All per-block facts come from the FetchPlan — one flat load per event.
struct Stream {
  const BlockPlan* plan = nullptr;
  std::span<const Symbol> symbols;
  std::size_t pos = 0;
  std::uint64_t base = 0;  ///< line-id namespace of this address space
  SetAssocCache* l1 = nullptr;
  Rng rng;
  double stall = 0.0;   ///< fetch-slot debt from demand misses
  double credit = 0.0;  ///< co-run: fractional steps owed this stream
  double speed = 1.0;   ///< co-run: blocks per round
  SimResult stats;
};

/// The cache state of one simulation over `parties` fetch streams. A flat
/// spec has one L1 that every stream shares (the paper's SMT model); with an
/// L2 each stream gets a private L1 and all of them share the L2. Built
/// whole before any Stream points into it, and never resized or moved after.
struct Caches {
  std::vector<SetAssocCache> l1;
  std::optional<SetAssocCache> l2;

  Caches(const HierarchySpec& spec, std::size_t parties) {
    spec.validate();
    if (spec.l2) l2.emplace(*spec.l2);
    l1.assign(spec.multi_level() ? parties : 1, SetAssocCache(spec.l1));
  }
  Caches(const Caches&) = delete;
  Caches& operator=(const Caches&) = delete;

  SetAssocCache& front(std::size_t party) {
    return l1[l1.size() == 1 ? 0 : party];
  }
};

/// What every stream of one simulation shares.
struct Shared {
  SetAssocCache* l2 = nullptr;  ///< the shared L2; null for a flat spec
  Bernoulli wrong_path;
  double miss_stall = 0.0;  ///< debt per demand miss (0: never stall)
};

Stream make_stream(const FetchPlan& plan, const Trace& trace,
                   std::uint64_t line_namespace, const SimOptions& options,
                   std::uint64_t rng_stream, SetAssocCache& l1) {
  CL_CHECK(trace.is_block());
  CL_CHECK(!trace.empty());
  CL_CHECK_MSG(plan.line_bytes() == options.hierarchy.l1.line_bytes,
               "fetch plan was built for a different line size");
  CL_CHECK_MSG(plan.block_count() >= trace.symbol_space(),
               "fetch plan does not cover the trace's block space");
  Stream s;
  s.plan = plan.blocks().data();
  s.symbols = trace.symbols();
  s.base = line_namespace;
  s.l1 = &l1;
  s.rng = Rng(options.seed).fork(rng_stream);
  return s;
}

Shared shared_state(Caches& caches, const SimOptions& options,
                   double miss_stall) {
  return Shared{caches.l2 ? &*caches.l2 : nullptr,
                Bernoulli(options.wrong_path_rate), miss_stall};
}

/// The per-event fetch. The measurement flavour (wrong-path fetches,
/// next-line prefetch) and the hierarchy shape (L2 present) are template
/// flags, chosen once per simulation by with_kernel(), so the inner loop
/// carries no flavour branches and the cache probes inline.
///
/// Hierarchy topology: a flat spec shares the single L1 between all streams
/// (the paper's SMT model); with an L2 each stream fetches through a private
/// L1 and a front miss continues to the shared L2 — demand misses, wrong-path
/// misses and prefetch fills alike, with only demand traffic attributed to
/// `l2_probes`/`l2_misses`.
template <bool kWrongPath, bool kPrefetch, bool kL2>
struct Kernel {
  /// One execution of block `bp`: its demand lines (a miss accrues stall
  /// debt and prefetches the next line), then, past a conditional branch,
  /// the speculative fetch of the not-taken path's first line.
  static void fetch(Stream& s, const BlockPlan& bp, const Shared& sh) {
    ++s.stats.blocks;
    s.stats.instructions += bp.instr_count;
    s.stats.overhead_instructions += bp.overhead_instrs;
    s.stats.line_probes += bp.line_count;
    const std::uint64_t first = s.base + bp.first_line;
    for (std::uint32_t i = 0; i < bp.line_count; ++i) {
      const std::uint64_t line = first + i;
      if (s.l1->access(line)) continue;
      ++s.stats.demand_misses;
      if constexpr (kL2) {
        ++s.stats.l2_probes;
        if (!sh.l2->access(line)) ++s.stats.l2_misses;
      }
      s.stall += sh.miss_stall;
      if constexpr (kPrefetch) {
        if (!s.l1->access(line + 1)) {
          if constexpr (kL2) sh.l2->access(line + 1);
        }
      }
    }
    if constexpr (kWrongPath) {
      if (bp.branchy != 0 && sh.wrong_path(s.rng)) {
        wrong_path(s, first + bp.line_count, sh);
      }
    }
  }

  static void wrong_path(Stream& s, std::uint64_t line, const Shared& sh) {
    if (s.l1->access(line)) return;
    ++s.stats.wrong_path_misses;
    if constexpr (kL2) sh.l2->access(line);
  }

  /// One fetch slot: pays down a whole block of stall debt, or executes the
  /// next block. Returns true when the step consumed the trace's last event
  /// (the stream wraps to its start).
  static bool step(Stream& s, const Shared& sh) {
    if (s.stall >= 1.0) {
      s.stall -= 1.0;
      return false;
    }
    fetch(s, s.plan[s.symbols[s.pos]], sh);
    if (++s.pos == s.symbols.size()) {
      s.pos = 0;
      return true;
    }
    return false;
  }

  /// Round-robin co-run until stream 0 finishes its trace; returns the
  /// number of rounds. Each round stream 0 takes one fetch slot and every
  /// other stream the whole slots its credit has accrued.
  static std::uint64_t corun(std::span<Stream> streams, const Shared& sh) {
    std::uint64_t rounds = 0;
    for (;;) {
      ++rounds;
      const bool done = step(streams[0], sh);
      for (std::size_t i = 1; i < streams.size(); ++i) {
        Stream& s = streams[i];
        s.credit += s.speed;
        while (s.credit >= 1.0) {
          step(s, sh);
          s.credit -= 1.0;
        }
      }
      if (done) return rounds;
    }
  }

  /// Solo replay: the co-run step at one stream with no stall.
  static void solo(Stream& s, const Shared& sh) {
    while (!step(s, sh)) {
    }
  }
};

/// Calls `fn` with the Kernel instance for `options`' flavour and shape.
template <typename Fn>
decltype(auto) with_kernel(const SimOptions& options, Fn&& fn) {
  const bool wrong = options.wrong_path_rate > 0.0;
  const bool prefetch = options.next_line_prefetch;
  const bool l2 = options.hierarchy.multi_level();
  switch ((wrong ? 4 : 0) | (prefetch ? 2 : 0) | (l2 ? 1 : 0)) {
    case 0: return fn(Kernel<false, false, false>{});
    case 1: return fn(Kernel<false, false, true>{});
    case 2: return fn(Kernel<false, true, false>{});
    case 3: return fn(Kernel<false, true, true>{});
    case 4: return fn(Kernel<true, false, false>{});
    case 5: return fn(Kernel<true, false, true>{});
    case 6: return fn(Kernel<true, true, false>{});
    default: return fn(Kernel<true, true, true>{});
  }
}

/// Shared N-way co-run: party 0 is the measured stream (one block per
/// round, ends the simulation when its trace wraps); parties 1..P-1 run at
/// fractional `speed`s through per-party credit accumulators.
std::vector<SimResult> run_corun(std::span<const CorunSpec::Party> parties,
                                 const SimOptions& options,
                                 CorunStats* stats_out) {
  CL_CHECK_MSG(parties.size() >= 2, "need at least two co-runners");
  for (const CorunSpec::Party& p : parties) {
    CL_CHECK(p.plan && p.trace);
    CL_CHECK(p.speed > 0.0);
  }
  CL_CHECK_MSG(parties[0].speed == 1.0,
               "party 0 is the measured reference stream: it fetches one "
               "block per round and defines the unit peer speeds are "
               "relative to");

  const std::size_t P = parties.size();
  Caches caches(options.hierarchy, P);
  std::vector<Stream> streams;
  streams.reserve(P);
  for (std::size_t i = 0; i < P; ++i) {
    // Disjoint line-id namespaces: P address spaces sharing one cache.
    streams.push_back(make_stream(*parties[i].plan, *parties[i].trace,
                                  static_cast<std::uint64_t>(i) << 40, options,
                                  /*rng_stream=*/i + 1, caches.front(i)));
    streams.back().speed = parties[i].speed;
  }
  const Shared shared =
      shared_state(caches, options, options.miss_stall_blocks);

  CorunStats stats;
  stats.rounds = with_kernel(options, [&](auto kernel) {
    return decltype(kernel)::corun(streams, shared);
  });
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.counter("cache.corun.rounds").add(stats.rounds);
  }
  if (stats_out) *stats_out = stats;

  std::vector<SimResult> results;
  results.reserve(P);
  for (const Stream& s : streams) results.push_back(s.stats);
  return results;
}

}  // namespace

SimOptions hardware_proxy_options(std::uint64_t seed) {
  return SimOptions{.next_line_prefetch = true,
                    .wrong_path_rate = 0.08,
                    .seed = seed};
}

std::vector<LevelStats> level_breakdown(const SimResult& sim,
                                        const HierarchySpec& hierarchy) {
  std::vector<LevelStats> levels;
  levels.push_back(LevelStats{sim.line_probes, sim.demand_misses});
  if (hierarchy.multi_level()) {
    levels.push_back(LevelStats{sim.l2_probes, sim.l2_misses});
  }
  return levels;
}

double amat(const SimResult& sim, const HierarchySpec& hierarchy) {
  const double mr1 =
      sim.line_probes ? static_cast<double>(sim.demand_misses) /
                            static_cast<double>(sim.line_probes)
                      : 0.0;
  if (!hierarchy.multi_level()) {
    return hierarchy.l1_hit_cycles + mr1 * hierarchy.memory_cycles;
  }
  const double mr2 = sim.l2_probes ? static_cast<double>(sim.l2_misses) /
                                         static_cast<double>(sim.l2_probes)
                                   : 0.0;
  return hierarchy.l1_hit_cycles +
         mr1 * (hierarchy.l2_hit_cycles + mr2 * hierarchy.memory_cycles);
}

SimResult simulate_solo(const FetchPlan& plan, const Trace& trace,
                        const SimOptions& options) {
  CODELAYOUT_PHASE("icache_solo", "cache", "cache.icache_solo.wall_ns",
                   {"events", std::uint64_t{trace.size()}});
  Caches caches(options.hierarchy, /*parties=*/1);
  // Solo: namespace 0 and RNG stream 1, exactly co-run party 0's.
  Stream stream = make_stream(plan, trace, /*line_namespace=*/0, options,
                              /*rng_stream=*/1, caches.front(0));
  const Shared shared = shared_state(caches, options, /*miss_stall=*/0.0);
  with_kernel(options, [&](auto kernel) {
    decltype(kernel)::solo(stream, shared);
  });
  return stream.stats;
}

SimResult simulate_solo(const Module& module, const CodeLayout& layout,
                        const Trace& trace, const SimOptions& options) {
  const FetchPlan plan(module, layout, options.geometry().line_bytes);
  return simulate_solo(plan, trace, options);
}

CorunResult simulate_corun(const FetchPlan& self_plan, const Trace& self_trace,
                           const FetchPlan& peer_plan, const Trace& peer_trace,
                           const SimOptions& options, double peer_speed) {
  CL_CHECK(peer_speed > 0.0);
  CODELAYOUT_PHASE("icache_corun", "cache", "cache.icache_corun.wall_ns",
                   {"self_events", std::uint64_t{self_trace.size()}},
                   {"peer_events", std::uint64_t{peer_trace.size()}});
  const CorunSpec::Party parties[2] = {{&self_plan, &self_trace, 1.0},
                                       {&peer_plan, &peer_trace, peer_speed}};
  CorunResult result;
  std::vector<SimResult> results = run_corun(parties, options, &result.stats);
  result.self = results[0];
  result.peer = results[1];
  return result;
}

CorunResult simulate_corun(const Module& self_module,
                           const CodeLayout& self_layout,
                           const Trace& self_trace,
                           const Module& peer_module,
                           const CodeLayout& peer_layout,
                           const Trace& peer_trace,
                           const SimOptions& options, double peer_speed) {
  const FetchPlan self_plan(self_module, self_layout,
                            options.geometry().line_bytes);
  const FetchPlan peer_plan(peer_module, peer_layout,
                            options.geometry().line_bytes);
  return simulate_corun(self_plan, self_trace, peer_plan, peer_trace, options,
                        peer_speed);
}

std::vector<SimResult> simulate_corun(const CorunSpec& spec,
                                      CorunStats* stats) {
  CODELAYOUT_PHASE("icache_corun_many", "cache",
                   "cache.icache_corun_many.wall_ns",
                   {"parties", std::uint64_t{spec.parties.size()}});
  return run_corun(spec.parties, spec.options, stats);
}

Trace line_trace(const Module& module, const CodeLayout& layout,
                 const Trace& block_trace, std::uint32_t line_bytes) {
  (void)module;
  CL_CHECK(block_trace.is_block());
  Trace out(Trace::Granularity::kBlock);
  out.reserve(block_trace.size());
  // Consecutive blocks on one line collapse as the sequence is built, so the
  // result is trimmed like every analysis trace.
  for (const Symbol b : block_trace.symbols()) {
    const auto span = layout.lines_of(BlockId(b), line_bytes);
    for (std::uint32_t l = 0; l < span.line_count; ++l) {
      const auto line = static_cast<Symbol>(span.first_line + l);
      if (out.empty() || out.symbols().back() != line) out.push_symbol(line);
    }
  }
  return out;
}

}  // namespace codelayout
