// Synthetic workload specifications (substitute for SPEC CPU2006).
//
// Each workload is a generated Module whose dynamic behaviour follows the
// structure that makes instruction-cache layout matter in real programs:
// phased execution over working sets of functions; functions whose bodies
// are branch diamonds where only one side is hot per invocation (so source
// order interleaves hot and cold blocks, as compilers emit them); shared
// utility callees that create cross-function affinity; and a mass of cold
// code (initialization, error paths, unused features) that scatters the hot
// functions across the address space. The knobs below are calibrated per
// suite entry so the simulated solo/co-run L1I miss ratios land in the
// ranges of the paper's Table I / Figure 4.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.hpp"

namespace codelayout {

struct WorkloadSpec {
  std::string name;
  std::uint64_t seed = 1;

  // --- Phase structure -----------------------------------------------------
  std::uint32_t phases = 4;            ///< distinct hot working sets
  /// How strongly program (source) order mixes functions of different
  /// phases: 0 = phase-major modules (each phase's functions contiguous in
  /// source), 1 = fully interleaved round-robin. Real C/C++ programs sit in
  /// between — call order correlates with file order but not perfectly.
  double phase_scatter = 0.25;
  std::uint32_t funcs_per_phase = 12;  ///< hot functions per phase
  std::uint32_t shared_funcs = 6;      ///< utilities used by every phase
  double phase_repeat = 40.0;          ///< mean driver calls per phase visit
  double inner_repeat = 6.0;           ///< mean inner-loop trips per call

  // --- Hot function shape --------------------------------------------------
  std::uint32_t diamonds_min = 2;      ///< branch diamonds per function
  std::uint32_t diamonds_max = 5;
  double hot_branch_bias = 0.85;       ///< probability of the hot side
  double cold_then_prob = 0.5;         ///< chance the *adjacent* side is cold
  std::uint32_t hot_block_bytes_min = 16;
  std::uint32_t hot_block_bytes_max = 96;
  std::uint32_t cold_blocks_per_diamond = 2;
  std::uint32_t cold_block_bytes = 160;
  double call_prob = 0.85;             ///< driver calls each hot function
  double util_call_prob = 0.35;        ///< hot block calls a shared utility

  // --- Cold static code (never or rarely executed) -------------------------
  /// When true (the C/C++-like default) cold functions are sprinkled between
  /// hot ones in program order, scattering the hot working set; when false
  /// (dense Fortran-module style) all cold code follows the hot code.
  bool interleave_cold_funcs = true;
  /// Fraction of the trailing cold functions that interleave among the hot
  /// ones (the rest are appended); controls how badly the original layout
  /// scatters the hot working set across the address space.
  double cold_interleave_fraction = 0.35;
  std::uint32_t cold_funcs = 40;
  std::uint32_t cold_func_blocks = 12;
  std::uint32_t cold_func_block_bytes = 128;
  double cold_call_prob = 0.02;        ///< cold path reaches a cold function

  // --- Execution & timing --------------------------------------------------
  std::uint64_t profile_events = 200'000;  ///< "test input" trace length
  std::uint64_t eval_events = 800'000;     ///< "reference input" trace length
  double data_stall_cpi = 0.6;             ///< data-side memory behaviour
};

/// Deterministically generates the workload's Module (validated).
Module build_workload(const WorkloadSpec& spec);

/// The 29-program suite named after SPEC CPU2006 (paper Fig. 4), calibrated
/// so the simulated miss-ratio landscape matches the paper's shape.
const std::vector<WorkloadSpec>& spec_suite();

/// The 8 programs the paper selects for optimization (Table I).
const std::vector<std::string>& selected_benchmarks();

/// The two probe programs of Fig. 4 / Table I.
inline constexpr const char* kProbe1 = "403.gcc";
inline constexpr const char* kProbe2 = "416.gamess";

/// Looks a suite entry up by name; throws if absent.
const WorkloadSpec& find_spec(const std::string& name);

}  // namespace codelayout
