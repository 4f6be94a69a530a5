// Tests for composable cache hierarchies (DESIGN.md §13): the HierarchySpec
// value type (validation, text and byte codecs, hashing, the bounds on
// hostile shapes) and the L2 attribution invariants of the solo and co-run
// simulators.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/icache_sim.hpp"
#include "exec/interpreter.hpp"
#include "ir/builder.hpp"

namespace codelayout {
namespace {

// ---- HierarchySpec: the declarative shape -----------------------------------

TEST(HierarchySpec, DefaultIsThePaperConfiguration) {
  const HierarchySpec spec;
  EXPECT_EQ(spec.l1, kL1I);
  EXPECT_FALSE(spec.multi_level());
  EXPECT_EQ(spec, kPaperHierarchy);
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.to_string(), "32K/4/64");
}

TEST(HierarchySpec, ToStringComposesBothLevels) {
  HierarchySpec spec;
  spec.l2 = CacheGeometry{256 * 1024, 8, 64};
  EXPECT_EQ(spec.to_string(), "32K/4/64+l2=256K/8/64");
  spec.l1 = CacheGeometry{2048, 2, 32};
  spec.l2 = CacheGeometry{1024 * 1024, 16, 32};
  EXPECT_EQ(spec.to_string(), "2K/2/32+l2=1M/16/32");
}

TEST(HierarchySpec, ParseGeometryReadsCanonicalText) {
  EXPECT_EQ(parse_geometry("32K/4/64"), kL1I);
  EXPECT_EQ(parse_geometry("2048/2/32"), (CacheGeometry{2048, 2, 32}));
  EXPECT_EQ(parse_geometry("1M/16/64"), (CacheGeometry{1024 * 1024, 16, 64}));
  EXPECT_THROW((void)parse_geometry(""), ContractError);
  EXPECT_THROW((void)parse_geometry("32K/4"), ContractError);
  EXPECT_THROW((void)parse_geometry("32K/4/64/2"), ContractError);
  EXPECT_THROW((void)parse_geometry("32Q/4/64"), ContractError);
  EXPECT_THROW((void)parse_geometry("1000/4/64"), ContractError);  // invalid
}

TEST(HierarchySpec, ParseHierarchyRoundTripsToString) {
  for (const char* text :
       {"32K/4/64", "16K/2/64+l2=256K/8/64", "2K/2/32+l2=1M/16/32"}) {
    const HierarchySpec spec = parse_hierarchy(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_NO_THROW(spec.validate());
  }
  EXPECT_THROW((void)parse_hierarchy(""), ContractError);
  EXPECT_THROW((void)parse_hierarchy("32K/4/64+l3=1M/8/64"), ContractError);
  // Line-size mismatch between levels is a validation error, even via text.
  EXPECT_THROW((void)parse_hierarchy("32K/4/64+l2=256K/8/32"), ContractError);
}

TEST(HierarchySpec, ValidateRejectsBadShapes) {
  // L2 line size must match the L1 (line ids are L1-line granular).
  HierarchySpec mismatched;
  mismatched.l2 = CacheGeometry{256 * 1024, 8, 32};
  EXPECT_THROW(mismatched.validate(), ContractError);

  // L2 must be at least as large as the L1.
  HierarchySpec tiny_l2;
  tiny_l2.l2 = CacheGeometry{8 * 1024, 4, 64};
  EXPECT_THROW(tiny_l2.validate(), ContractError);

  // The latency ladder must be monotone and finite.
  HierarchySpec inverted;
  inverted.l2 = CacheGeometry{256 * 1024, 8, 64};
  inverted.l2_hit_cycles = 0.5;  // faster than the L1
  EXPECT_THROW(inverted.validate(), ContractError);
  HierarchySpec infinite;
  infinite.memory_cycles = std::numeric_limits<double>::infinity();
  EXPECT_THROW(infinite.validate(), ContractError);
}

TEST(HierarchySpec, EncodeDecodeRoundTrips) {
  std::vector<HierarchySpec> specs;
  specs.emplace_back();  // the paper default
  HierarchySpec l2;
  l2.l2 = CacheGeometry{256 * 1024, 8, 64};
  specs.push_back(l2);
  HierarchySpec custom;
  custom.l1 = CacheGeometry{16 * 1024, 2, 32};
  custom.l2 = CacheGeometry{2 * 1024 * 1024, 16, 32};
  custom.l1_hit_cycles = 2.0;
  custom.l2_hit_cycles = 11.0;
  custom.memory_cycles = 80.0;
  specs.push_back(custom);

  for (const HierarchySpec& spec : specs) {
    const std::string bytes = spec.encode();
    EXPECT_EQ(HierarchySpec::decode(bytes), spec) << spec.to_string();
  }

  // Truncation and trailing garbage are decode errors, never silent.
  const std::string bytes = custom.encode();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)HierarchySpec::decode(bytes.substr(0, len)),
                 ContractError)
        << "truncated to " << len;
  }
  EXPECT_THROW((void)HierarchySpec::decode(bytes + "x"), ContractError);
}

TEST(HierarchySpec, HashSeparatesDistinctSpecs) {
  HierarchySpec a;
  HierarchySpec b;
  b.l2 = CacheGeometry{256 * 1024, 8, 64};
  HierarchySpec c = b;
  c.l2_hit_cycles = 9.0;
  EXPECT_EQ(a.hash(), HierarchySpec{}.hash());
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(b.hash(), c.hash());  // latencies are part of the identity
}

TEST(HierarchySpec, DecodeValidateRejectsHostileGeometries) {
  // Shapes a wire request can carry whose set count is a power of two but
  // whose simulation is unbounded: 2^34 sets would allocate a 1 TiB cache,
  // one set of 2^20 ways would make every probe a 2^20-way scan.
  for (const CacheGeometry& geom :
       {CacheGeometry{std::uint64_t{1} << 40, 1, 64},
        CacheGeometry{std::uint64_t{64} << 20, 1u << 20, 64}}) {
    HierarchySpec hostile;
    hostile.l1 = geom;
    EXPECT_THROW(HierarchySpec::decode(hostile.encode()).validate(),
                 ContractError)
        << geom.to_string();
    HierarchySpec hostile_l2;
    hostile_l2.l2 = geom;
    EXPECT_THROW(HierarchySpec::decode(hostile_l2.encode()).validate(),
                 ContractError)
        << geom.to_string();
  }
  // The bounds sit above every geometry the benches sweep.
  EXPECT_NO_THROW((void)parse_hierarchy("16K/2/32+l2=2M/16/32"));
  EXPECT_NO_THROW((CacheGeometry{std::uint64_t{64} << 20, 1024, 64}.validate()));
  EXPECT_THROW((void)parse_geometry("64K/1025/64"), ContractError);
}

// ---- Simulator integration ---------------------------------------------------

/// A module with one function that loops over `n_blocks` blocks of
/// `block_bytes` each.
Module loop_module(std::uint32_t n_blocks, std::uint32_t block_bytes) {
  ModuleBuilder mb("loop");
  auto f = mb.function("main");
  std::vector<BlockId> blocks;
  for (std::uint32_t i = 0; i < n_blocks; ++i) {
    blocks.push_back(f.block(block_bytes));
  }
  for (std::uint32_t i = 0; i + 1 < n_blocks; ++i) {
    f.jump(blocks[i], blocks[i + 1]);
  }
  const BlockId exit = f.block(16);
  f.loop(blocks.back(), blocks.front(), exit, 0.999);
  return std::move(mb).build();
}

TEST(HierarchySim, SoloL2AttributionInvariants) {
  // A 16KB loop through a 4KB L1: every lap spills, the 256KB L2 holds it.
  const Module m = loop_module(256, 64);
  const ProfileResult r = profile(m, 1, {.max_events = 30'000});
  SimOptions options;
  options.hierarchy.l1 = CacheGeometry{4 * 1024, 2, 64};
  options.hierarchy.l2 = CacheGeometry{256 * 1024, 8, 64};
  const SimResult sim = simulate_solo(m, original_layout(m), r.block_trace,
                                      options);
  // Demand-side attribution: every demand L1 miss probes the L2, no more.
  EXPECT_EQ(sim.l2_probes, sim.demand_misses);
  EXPECT_GT(sim.l2_probes, 0u);
  // The loop fits in the L2, so only its cold misses reach memory.
  EXPECT_LT(sim.l2_misses, sim.l2_probes / 10);

  // Per-level breakdown mirrors the counters.
  const std::vector<LevelStats> levels =
      level_breakdown(sim, options.hierarchy);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0].accesses, sim.line_probes);
  EXPECT_EQ(levels[0].misses, sim.demand_misses);
  EXPECT_EQ(levels[1].accesses, sim.l2_probes);
  EXPECT_EQ(levels[1].misses, sim.l2_misses);

  // AMAT: multi-level sits between "everything hits L2" and the flat bound.
  const double multi = amat(sim, options.hierarchy);
  SimOptions flat;
  flat.hierarchy.l1 = options.hierarchy.l1;
  const SimResult flat_sim = simulate_solo(m, original_layout(m),
                                           r.block_trace, flat);
  const double flat_amat = amat(flat_sim, flat.hierarchy);
  EXPECT_LT(multi, flat_amat);  // the L2 absorbed capacity misses
  EXPECT_GT(multi, options.hierarchy.l1_hit_cycles);
}

TEST(HierarchySim, MirroredL2MissesEveryProbe) {
  // An L2 with the exact L1 geometry holds exactly the L1's contents (every
  // access installs in both), so every L1 miss must also miss in the L2.
  const Module m = loop_module(256, 64);
  const ProfileResult r = profile(m, 1, {.max_events = 20'000});
  SimOptions options;
  options.hierarchy.l1 = CacheGeometry{4 * 1024, 2, 64};
  options.hierarchy.l2 = CacheGeometry{4 * 1024, 2, 64};
  const SimResult sim = simulate_solo(m, original_layout(m), r.block_trace,
                                      options);
  EXPECT_GT(sim.l2_probes, 0u);
  EXPECT_EQ(sim.l2_misses, sim.l2_probes);
}

TEST(HierarchySim, FlatSpecReportsNoL2Traffic) {
  const Module m = loop_module(64, 64);
  const ProfileResult r = profile(m, 1, {.max_events = 10'000});
  const SimResult sim = simulate_solo(m, original_layout(m), r.block_trace);
  EXPECT_EQ(sim.l2_probes, 0u);
  EXPECT_EQ(sim.l2_misses, 0u);
  const std::vector<LevelStats> levels = level_breakdown(sim, HierarchySpec{});
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0].misses, sim.demand_misses);
  EXPECT_DOUBLE_EQ(
      amat(sim, HierarchySpec{}),
      1.0 + levels[0].miss_ratio() * HierarchySpec{}.memory_cycles);
}

TEST(HierarchySim, RoomySharedL2MakesCorunMatchSolo) {
  // Private L1 fronts mean co-run interference can only travel through the
  // shared L2. With an L2 big enough for both parties there is no capacity
  // pressure, so each party's hit/miss stream must equal its solo run.
  const Module self = loop_module(128, 64);  // 8KB
  const Module peer = loop_module(96, 64);   // 6KB
  const ProfileResult rs = profile(self, 1, {.max_events = 20'000});
  const ProfileResult rp = profile(peer, 2, {.max_events = 20'000});
  SimOptions options;
  options.hierarchy.l1 = CacheGeometry{4 * 1024, 2, 64};
  options.hierarchy.l2 = CacheGeometry{1024 * 1024, 16, 64};

  const CodeLayout ls = original_layout(self);
  const CodeLayout lp = original_layout(peer);
  const SimResult solo = simulate_solo(self, ls, rs.block_trace, options);
  const CorunResult corun = simulate_corun(self, ls, rs.block_trace, peer, lp,
                                           rp.block_trace, options);
  EXPECT_EQ(corun.self.demand_misses, solo.demand_misses);
  EXPECT_EQ(corun.self.l2_probes, solo.l2_probes);
  EXPECT_EQ(corun.self.l2_misses, solo.l2_misses);

  // Shrinking the shared L2 brings the interference back.
  SimOptions tight = options;
  tight.hierarchy.l2 = CacheGeometry{8 * 1024, 4, 64};
  const CorunResult contended = simulate_corun(
      self, ls, rs.block_trace, peer, lp, rp.block_trace, tight);
  EXPECT_GT(contended.self.l2_misses, corun.self.l2_misses);
}

}  // namespace
}  // namespace codelayout
