// Equivalence suite for the per-event co-run kernel (DESIGN.md §11).
//
// The production co-run is one inlined kernel whose measurement flavour and
// hierarchy shape are template flags, and whose wrong-path draw is an
// integer compare. This suite pins it to a per-event reference engine —
// written out longhand against its own LRU cache implementation, with module
// and layout lookups per event, the same namespaces, credit arithmetic,
// stall debts, and forked RNG streams drawn through Rng::chance — which must
// agree bit for bit on every SimResult field, including the RNG-stream-
// sensitive wrong-path miss counts and the demand-side L2 attribution. The
// cases cover the whole golden workload suite, many-party mixes with
// fractional speeds, degenerate cache geometries, private L1s over a shared
// L2, and wrong-path rates at the edges of the draw (1, 2^-53, 1 - 2^-53).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/icache_sim.hpp"
#include "exec/interpreter.hpp"
#include "layout/layout.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads/spec.hpp"

namespace codelayout {
namespace {

// ---- Independent per-event reference engine ---------------------------------

/// A from-scratch set-associative true-LRU cache: per-set recency-ordered
/// vectors, linear probes. Shares no code with SetAssocCache.
class RefCache {
 public:
  explicit RefCache(const CacheGeometry& geom)
      : sets_(geom.sets()), assoc_(geom.associativity), ways_(geom.sets()) {}

  /// Touches `line` (installing it on a miss); returns true on a hit.
  bool touch(std::uint64_t line) {
    auto& ways = ways_[line % sets_];
    const auto it = std::find(ways.begin(), ways.end(), line);
    const bool hit = it != ways.end();
    if (hit) ways.erase(it);
    ways.insert(ways.begin(), line);
    if (ways.size() > assoc_) ways.pop_back();
    return hit;
  }

 private:
  std::uint64_t sets_;
  std::size_t assoc_;
  std::vector<std::vector<std::uint64_t>> ways_;
};

/// The reference's cache state: one L1 shared by every stream under a flat
/// spec; private L1s over one shared L2 otherwise. Every L1 miss — demand,
/// wrong-path, or prefetch fill — continues to the L2.
struct RefHierarchy {
  std::vector<RefCache> l1;
  std::optional<RefCache> l2;

  RefHierarchy(const HierarchySpec& spec, std::size_t parties)
      : l1(spec.multi_level() ? parties : 1, RefCache(spec.l1)) {
    if (spec.l2) l2.emplace(*spec.l2);
  }
  RefCache& front(std::size_t party) {
    return l1[l1.size() == 1 ? 0 : party];
  }
};

/// The per-event co-run stream: flat symbols, module/layout lookups per
/// event, stall debt, and the stream's own forked RNG.
class RefStream {
 public:
  RefStream(const Module& module, const CodeLayout& layout, const Trace& trace,
            std::uint64_t line_namespace, const SimOptions& options,
            std::uint64_t rng_stream)
      : module_(&module),
        layout_(&layout),
        symbols_(trace.symbols()),
        namespace_(line_namespace),
        options_(options),
        rng_(Rng(options.seed).fork(rng_stream)) {}

  bool step(RefCache& l1, std::optional<RefCache>& l2) {
    if (debt_ >= 1.0) {
      debt_ -= 1.0;
      return false;
    }
    const BlockId b(symbols_[pos_]);
    const BasicBlock& bb = module_->block(b);
    const auto span = layout_->lines_of(b, options_.geometry().line_bytes);
    const auto& place = layout_->placement(b);
    ++stats_.blocks;
    stats_.instructions += place.bytes / kInstrBytes;
    stats_.overhead_instructions += (place.bytes - bb.size_bytes) / kInstrBytes;
    for (std::uint32_t i = 0; i < span.line_count; ++i) {
      const std::uint64_t line = namespace_ + span.first_line + i;
      ++stats_.line_probes;
      if (l1.touch(line)) continue;
      ++stats_.demand_misses;
      if (l2) {
        ++stats_.l2_probes;
        if (!l2->touch(line)) ++stats_.l2_misses;
      }
      debt_ += options_.miss_stall_blocks;
      if (options_.next_line_prefetch && !l1.touch(line + 1) && l2) {
        l2->touch(line + 1);
      }
    }
    if (options_.wrong_path_rate > 0.0 && bb.successors.size() > 1 &&
        rng_.chance(options_.wrong_path_rate)) {
      const std::uint64_t line = namespace_ + span.first_line + span.line_count;
      if (!l1.touch(line)) {
        ++stats_.wrong_path_misses;
        if (l2) l2->touch(line);
      }
    }
    if (++pos_ == symbols_.size()) {
      pos_ = 0;
      return true;
    }
    return false;
  }

  [[nodiscard]] const SimResult& stats() const { return stats_; }

 private:
  const Module* module_;
  const CodeLayout* layout_;
  std::span<const Symbol> symbols_;
  std::uint64_t namespace_;
  SimOptions options_;
  Rng rng_;
  std::size_t pos_ = 0;
  double debt_ = 0.0;
  SimResult stats_;
};

struct RefParty {
  const Module* module;
  const CodeLayout* layout;
  const Trace* trace;
  double speed = 1.0;
};

std::vector<SimResult> reference_corun(const std::vector<RefParty>& parties,
                                       const SimOptions& options) {
  RefHierarchy hier(options.hierarchy, parties.size());
  std::vector<RefStream> streams;
  streams.reserve(parties.size());
  std::vector<double> credit(parties.size(), 0.0);
  for (std::size_t i = 0; i < parties.size(); ++i) {
    streams.emplace_back(*parties[i].module, *parties[i].layout,
                         *parties[i].trace, static_cast<std::uint64_t>(i) << 40,
                         options, /*rng_stream=*/i + 1);
  }
  for (;;) {
    const bool done = streams[0].step(hier.front(0), hier.l2);
    for (std::size_t i = 1; i < parties.size(); ++i) {
      credit[i] += parties[i].speed;
      while (credit[i] >= 1.0) {
        streams[i].step(hier.front(i), hier.l2);
        credit[i] -= 1.0;
      }
    }
    if (done) break;
  }
  std::vector<SimResult> results;
  results.reserve(streams.size());
  for (const RefStream& s : streams) results.push_back(s.stats());
  return results;
}

/// The production kernel on the same parties, through a CorunSpec over
/// fetch plans built at the spec's line size.
std::vector<SimResult> kernel_corun(const std::vector<RefParty>& parties,
                                    const SimOptions& options) {
  std::vector<FetchPlan> plans;
  plans.reserve(parties.size());
  CorunSpec spec;
  spec.options = options;
  for (const RefParty& p : parties) {
    plans.emplace_back(*p.module, *p.layout, options.geometry().line_bytes);
    spec.parties.push_back(CorunSpec::Party{&plans.back(), p.trace, p.speed});
  }
  return simulate_corun(spec);
}

/// The measurement flavours every case runs under: the bare cache, the
/// hardware proxy, each of its two mechanisms alone, and the hardware proxy
/// at wrong-path rates on the edges of the integer draw (always-on with no
/// draw, an even coin, and the smallest and largest probabilities below 1 a
/// double can carry).
struct Flavour {
  std::string label;
  SimOptions options;
};

std::vector<Flavour> flavours() {
  SimOptions prefetch_only;
  prefetch_only.next_line_prefetch = true;
  SimOptions wrong_path_only;
  wrong_path_only.wrong_path_rate = 0.08;
  std::vector<Flavour> out = {{"[sim]", SimOptions{}},
                              {"[hw]", hardware_proxy_options()},
                              {"[prefetch only]", prefetch_only},
                              {"[wrong path only]", wrong_path_only}};
  for (const double rate : {1.0, 0.5, std::ldexp(1.0, -53),
                            1.0 - std::ldexp(1.0, -53)}) {
    SimOptions options = hardware_proxy_options();
    options.wrong_path_rate = rate;
    out.push_back({"[hw wrong_path=" + std::to_string(rate) + "]", options});
  }
  return out;
}

// ---- Fixtures ---------------------------------------------------------------

/// The first `prefix` events of a `seed`-profiled trace of `spec`, each
/// profiled event pushed a seeded 1..max_repeat times: with max_repeat > 1
/// the kernel also meets streams that hit the same lines for many rounds.
Trace repeated_prefix(const Module& module, std::uint64_t seed,
                      std::uint64_t events, std::size_t prefix,
                      std::uint64_t max_repeat) {
  const Trace base =
      profile(module, seed, {.max_events = events, .max_call_depth = 64})
          .block_trace;
  Rng rng(seed);
  Trace out(base.granularity());
  for (const Symbol s : base.symbols()) {
    for (std::uint64_t k = 1 + rng.below(max_repeat); k > 0; --k) {
      if (out.size() == prefix) return out;
      out.push_symbol(s);
    }
  }
  return out;
}

struct Prepared {
  Module module;
  CodeLayout layout;
  Trace trace;

  Prepared(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t events,
           std::size_t prefix, std::uint64_t max_repeat = 1)
      : module(build_workload(spec)),
        layout(original_layout(module)),
        trace(repeated_prefix(module, seed, events, prefix, max_repeat)) {}

  [[nodiscard]] RefParty party(double speed = 1.0) const {
    return RefParty{&module, &layout, &trace, speed};
  }
};

void append_mismatches(std::vector<std::string>& out, const std::string& label,
                       const SimResult& got, const SimResult& want) {
  const auto check = [&](const char* what, std::uint64_t g, std::uint64_t w) {
    if (g != w) {
      out.push_back(label + ": " + what + " " + std::to_string(g) +
                    " != reference " + std::to_string(w));
    }
  };
  check("blocks", got.blocks, want.blocks);
  check("instructions", got.instructions, want.instructions);
  check("overhead_instructions", got.overhead_instructions,
        want.overhead_instructions);
  check("line_probes", got.line_probes, want.line_probes);
  check("demand_misses", got.demand_misses, want.demand_misses);
  check("wrong_path_misses", got.wrong_path_misses, want.wrong_path_misses);
  check("l2_probes", got.l2_probes, want.l2_probes);
  check("l2_misses", got.l2_misses, want.l2_misses);
}

void expect_sim_equal(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.blocks, want.blocks);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.overhead_instructions, want.overhead_instructions);
  EXPECT_EQ(got.line_probes, want.line_probes);
  EXPECT_EQ(got.demand_misses, want.demand_misses);
  EXPECT_EQ(got.wrong_path_misses, want.wrong_path_misses);
  EXPECT_EQ(got.l2_probes, want.l2_probes);
  EXPECT_EQ(got.l2_misses, want.l2_misses);
}

/// Kernel vs reference on one party mix under every flavour, in
/// `hierarchy`.
void expect_kernel_matches(const std::vector<RefParty>& parties,
                           const HierarchySpec& hierarchy) {
  for (const Flavour& flavour : flavours()) {
    SimOptions options = flavour.options;
    options.hierarchy = hierarchy;
    const auto got = kernel_corun(parties, options);
    const auto want = reference_corun(parties, options);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(flavour.label + " party " + std::to_string(i));
      expect_sim_equal(got[i], want[i]);
    }
  }
}

// ---- Whole-suite equivalence ------------------------------------------------

TEST(CorunKernel, GoldenSuiteVsRepeatingPeerMatchesPerEventReplay) {
  // Every suite workload co-run against one shared peer with repeated
  // events at a fractional speed, under every flavour.
  const Prepared peer(find_spec("403.gcc"), 77, 40'000, 12'000, 8);
  ThreadPool pool(ThreadPool::default_threads());
  std::mutex mu;
  std::vector<std::string> failures;
  std::vector<std::future<void>> pending;

  for (const WorkloadSpec& spec : spec_suite()) {
    pending.push_back(pool.submit([&spec, &peer, &mu, &failures] {
      const Prepared self(spec, 11, 20'000, 6'000);
      std::vector<std::string> local;
      for (const Flavour& flavour : flavours()) {
        const double peer_speed = 1.3;
        const CorunResult got = simulate_corun(
            self.module, self.layout, self.trace, peer.module, peer.layout,
            peer.trace, flavour.options, peer_speed);
        const std::vector<SimResult> want = reference_corun(
            {self.party(), peer.party(peer_speed)}, flavour.options);
        const std::string label = spec.name + " " + flavour.label;
        append_mismatches(local, label + " self", got.self, want[0]);
        append_mismatches(local, label + " peer", got.peer, want[1]);
      }
      if (!local.empty()) {
        const std::lock_guard<std::mutex> lock(mu);
        for (std::string& f : local) failures.push_back(std::move(f));
      }
    }));
  }
  for (auto& p : pending) p.get();
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

// ---- Many-party mixes with fractional speeds --------------------------------

TEST(CorunKernel, ManyPartyRepeatingMixesMatchPerEventReplay) {
  const Prepared a(find_spec("470.lbm"), 21, 20'000, 5'000, 8);
  const Prepared b(find_spec("403.gcc"), 22, 30'000, 10'000, 8);
  const Prepared c(find_spec("416.gamess"), 23, 30'000, 10'000, 8);
  const Prepared d(find_spec("429.mcf"), 24, 30'000, 10'000, 8);
  const Prepared* peers[] = {&b, &c, &d};
  const double speeds[] = {0.5, 1.7, 0.25};

  for (const std::size_t parties : {2u, 3u, 4u}) {
    SCOPED_TRACE("parties=" + std::to_string(parties));
    std::vector<RefParty> mix = {a.party()};
    for (std::size_t i = 0; i + 1 < parties; ++i) {
      mix.push_back(peers[i]->party(speeds[i]));
    }
    expect_kernel_matches(mix, HierarchySpec{});
  }
}

TEST(CorunKernel, FastPeerSpeedMatchesPerEventReplay) {
  // speed > 1 makes peers take several steps per round.
  const Prepared a(find_spec("470.lbm"), 31, 20'000, 4'000, 8);
  const Prepared b(find_spec("403.gcc"), 32, 30'000, 12'000, 8);
  const SimOptions options = hardware_proxy_options();
  const double speed = 3.0;
  const CorunResult got =
      simulate_corun(a.module, a.layout, a.trace, b.module, b.layout, b.trace,
                     options, speed);
  const auto want = reference_corun({a.party(), b.party(speed)}, options);
  expect_sim_equal(got.self, want[0]);
  expect_sim_equal(got.peer, want[1]);
}

// ---- Degenerate geometries --------------------------------------------------

TEST(CorunKernel, DegenerateGeometriesMatchPerEventReplay) {
  const Prepared a(find_spec("470.lbm"), 41, 20'000, 4'000, 8);
  const Prepared b(find_spec("416.gamess"), 42, 20'000, 8'000, 8);

  const CacheGeometry geometries[] = {
      {256, 4, 64},   // a single set: everything conflicts
      {512, 1, 64},   // direct-mapped
      {1024, 8, 64},  // assoc > 4: the wide packed cache path
  };
  for (const CacheGeometry& geom : geometries) {
    HierarchySpec hierarchy;
    hierarchy.l1 = geom;
    hierarchy.validate();
    SCOPED_TRACE(hierarchy.to_string());
    expect_kernel_matches({a.party(), b.party(1.7)}, hierarchy);
  }
}

// ---- Private L1s over a shared L2 -------------------------------------------

TEST(CorunKernel, TwoLevelHierarchiesMatchPerEventReplay) {
  const Prepared a(find_spec("403.gcc"), 71, 30'000, 8'000);
  const Prepared b(find_spec("416.gamess"), 72, 30'000, 10'000);
  const Prepared c(find_spec("429.mcf"), 73, 30'000, 10'000);
  const Prepared d(find_spec("470.lbm"), 74, 20'000, 6'000, 8);

  for (const char* text :
       {"32K/4/64+l2=256K/8/64", "16K/2/64+l2=256K/8/64",
        "2K/2/32+l2=1M/16/32"}) {
    const HierarchySpec hierarchy = parse_hierarchy(text);
    SCOPED_TRACE(text);
    {
      SCOPED_TRACE("parties=2");
      expect_kernel_matches({a.party(), b.party(1.3)}, hierarchy);
    }
    {
      SCOPED_TRACE("parties=4");
      expect_kernel_matches(
          {a.party(), b.party(0.5), c.party(1.7), d.party(0.25)}, hierarchy);
    }
  }
}

// ---- Entry points -----------------------------------------------------------

TEST(CorunKernel, TwoWayEntryPointIsTheSpecKernelAtTwoParties) {
  const Prepared a(find_spec("470.lbm"), 51, 20'000, 5'000, 8);
  const Prepared b(find_spec("403.gcc"), 52, 20'000, 8'000, 8);
  const SimOptions options = hardware_proxy_options();
  const FetchPlan plan_a(a.module, a.layout, options.geometry().line_bytes);
  const FetchPlan plan_b(b.module, b.layout, options.geometry().line_bytes);

  CorunStats spec_stats;
  const auto from_spec = simulate_corun(
      CorunSpec{{{&plan_a, &a.trace, 1.0}, {&plan_b, &b.trace, 1.3}}, options},
      &spec_stats);
  const CorunResult pair =
      simulate_corun(plan_a, a.trace, plan_b, b.trace, options, 1.3);
  ASSERT_EQ(from_spec.size(), 2u);
  expect_sim_equal(pair.self, from_spec[0]);
  expect_sim_equal(pair.peer, from_spec[1]);
  // One round per measured fetch slot: every block, plus the stall slots.
  EXPECT_EQ(pair.stats.rounds, spec_stats.rounds);
  EXPECT_GT(spec_stats.rounds, a.trace.size());
}

TEST(CorunKernel, MeasuredPartyMustRunAtUnitSpeed) {
  const Prepared a(find_spec("470.lbm"), 61, 10'000, 2'000, 8);
  const FetchPlan plan(a.module, a.layout, kL1I.line_bytes);
  EXPECT_THROW(
      simulate_corun(CorunSpec{{{&plan, &a.trace, 0.5}, {&plan, &a.trace, 1.0}},
                               SimOptions{}}),
      ContractError);
}

}  // namespace
}  // namespace codelayout
