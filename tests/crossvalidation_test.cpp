// Cross-validation between independent subsystems: the same cache behaviour
// computed by different machinery must agree. These are the strongest
// correctness anchors in the repository — a bug in either side breaks the
// agreement.
#include <gtest/gtest.h>

#include "cache/icache_sim.hpp"
#include "cache/set_assoc.hpp"
#include "exec/interpreter.hpp"
#include "ir/builder.hpp"
#include "locality/footprint.hpp"
#include "locality/missmodel.hpp"
#include "locality/reuse.hpp"
#include "support/rng.hpp"

namespace codelayout {
namespace {

/// A fully-associative cache is LRU over the whole capacity: its miss count
/// on a trace must equal the reuse-distance prediction exactly.
class FullyAssocVsReuseTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FullyAssocVsReuseTest, SetAssocWithOneSetMatchesReuseDistance) {
  Rng rng(GetParam());
  // One set, associativity = capacity: pure LRU.
  constexpr std::uint32_t kCapacity = 16;
  const CacheGeometry geom{kCapacity * 64, kCapacity, 64};
  SetAssocCache cache(geom);
  ASSERT_EQ(geom.sets(), 1u);

  Trace trace(Trace::Granularity::kBlock);
  for (int i = 0; i < 4000; ++i) {
    trace.push_symbol(static_cast<Symbol>(rng.zipf(48, 0.8)));
  }
  std::uint64_t misses = 0;
  for (Symbol s : trace.symbols()) misses += !cache.access(s);

  const ReuseProfile reuse = compute_reuse(trace);
  std::uint64_t predicted = reuse.cold_accesses;
  for (std::uint64_t d = kCapacity; d < reuse.distance_histogram.size(); ++d) {
    predicted += reuse.distance_histogram[d];
  }
  EXPECT_EQ(misses, predicted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullyAssocVsReuseTest,
                         ::testing::Values(3, 7, 11, 19));

/// The HOTL footprint-based miss model must approximate the measured LRU
/// miss ratio on loop traces (where it is exact in the limit).
TEST(MissModelVsSimulation, CyclicLoopAgreement) {
  for (Symbol loop_len : {8u, 24u, 48u}) {
    Trace trace(Trace::Granularity::kBlock);
    for (int rep = 0; rep < 400; ++rep) {
      for (Symbol s = 0; s < loop_len; ++s) trace.push_symbol(s);
    }
    const auto fp = FootprintCurve::compute(trace);
    for (std::uint32_t capacity : {16u, 32u}) {
      // Measured: fully-associative LRU.
      const CacheGeometry geom{capacity * 64, capacity, 64};
      SetAssocCache cache(geom);
      std::uint64_t misses = 0;
      for (Symbol s : trace.symbols()) misses += !cache.access(s);
      const double measured = static_cast<double>(misses) /
                              static_cast<double>(trace.size());
      const double modeled =
          solo_miss_ratio(fp, static_cast<double>(capacity));
      EXPECT_NEAR(modeled, measured, 0.08)
          << "loop " << loop_len << " capacity " << capacity;
    }
  }
}

/// The Eq. 2 co-run composition against the shared-cache simulation: the
/// model and the simulator must agree on the *direction and rough size* of
/// the interference on line traces.
TEST(MissModelVsSimulation, CorunInterferenceDirection) {
  ModuleBuilder mb("self");
  auto f = mb.function("main");
  std::vector<BlockId> blocks;
  for (int i = 0; i < 300; ++i) blocks.push_back(f.block(64));
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    f.jump(blocks[i], blocks[i + 1]);
  }
  const BlockId exit = f.block(16);
  f.loop(blocks.back(), blocks.front(), exit, 0.999);
  const Module m = std::move(mb).build();
  const CodeLayout layout = original_layout(m);
  const ProfileResult r1 = profile(m, 1, {.max_events = 30'000});
  const ProfileResult r2 = profile(m, 2, {.max_events = 30'000});

  // Simulation.
  const SimResult solo_sim = simulate_solo(m, layout, r1.block_trace);
  const CorunResult corun_sim =
      simulate_corun(m, layout, r1.block_trace, m, layout, r2.block_trace);

  // Model over the line traces.
  const Trace lines1 = line_trace(m, layout, r1.block_trace, 64);
  const Trace lines2 = line_trace(m, layout, r2.block_trace, 64);
  const auto fp1 = FootprintCurve::compute(lines1);
  const auto fp2 = FootprintCurve::compute(lines2);
  const double capacity = static_cast<double>(kL1I.lines());
  const double model_solo = solo_miss_ratio(fp1, capacity);
  const double model_corun = corun_miss_ratio(fp1, fp2, capacity);

  // Both instruments agree: solo fits (19KB in 32KB), co-run thrashes.
  EXPECT_LT(solo_sim.miss_ratio(), 0.002);
  EXPECT_LT(model_solo, 0.01);
  EXPECT_GT(corun_sim.self.demand_misses, solo_sim.demand_misses * 5);
  EXPECT_GT(model_corun, model_solo);
  EXPECT_GT(model_corun, 0.1);  // near-total thrash per line access
}

}  // namespace
}  // namespace codelayout
