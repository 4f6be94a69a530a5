// Parallel-vs-serial equivalence for the affinity analysis.
//
// The w-grid fan-out is designed to be *exact* — not "equivalent up to
// ordering" but bit-identical: the per-w passes are independent and fold in
// the serial order. These tests pin that claim group-for-group across
// thread counts and through the pipeline's analysis pool. The suite also
// runs under TSan in CI, which checks the synchronization of the fan-out
// itself.
#include <vector>

#include <gtest/gtest.h>

#include "affinity/analysis.hpp"
#include "harness/pipeline.hpp"
#include "helpers.hpp"
#include "support/thread_pool.hpp"

namespace codelayout {
namespace {

using testing::make_trace;
using testing::random_trace;

void expect_same_hierarchy(const AffinityHierarchy& a,
                           const AffinityHierarchy& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  ASSERT_EQ(std::vector<std::uint32_t>(a.roots().begin(), a.roots().end()),
            std::vector<std::uint32_t>(b.roots().begin(), b.roots().end()));
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const AffinityGroup& x = a.nodes()[i];
    const AffinityGroup& y = b.nodes()[i];
    EXPECT_EQ(x.id, y.id) << "node " << i;
    EXPECT_EQ(x.formed_at_w, y.formed_at_w) << "node " << i;
    EXPECT_EQ(x.members, y.members) << "node " << i;
    EXPECT_EQ(x.children, y.children) << "node " << i;
    EXPECT_EQ(x.first_occurrence, y.first_occurrence) << "node " << i;
    EXPECT_EQ(x.occurrences, y.occurrences) << "node " << i;
  }
}

// ---------- affinity w-grid fan-out ------------------------------------------

TEST(ParallelAffinity, PoolWidthsProduceIdenticalHierarchy) {
  const Trace trace = random_trace(11, 6'000, 80);
  const AffinityHierarchy serial = analyze_affinity(trace, AffinityConfig{});
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    AffinityConfig config;
    config.pool = &pool;
    const AffinityHierarchy parallel = analyze_affinity(trace, config);
    SCOPED_TRACE(threads);
    expect_same_hierarchy(serial, parallel);
  }
}

TEST(ParallelAffinity, NonDefaultGridAndTinyTrace) {
  const Trace tiny = make_trace({1, 2, 1, 3, 2, 1, 4, 4, 2});
  ThreadPool pool(4);
  AffinityConfig serial_config;
  serial_config.w_values = {2, 5, 9};
  AffinityConfig parallel_config = serial_config;
  parallel_config.pool = &pool;
  expect_same_hierarchy(analyze_affinity(tiny, serial_config),
                        analyze_affinity(tiny, parallel_config));
}

// ---------- pipeline plumbing ------------------------------------------------

TEST(ParallelPipeline, ModelSequencesIdenticalWithAnalysisPool) {
  const WorkloadSpec spec = find_spec("429.mcf");
  PipelineConfig serial_config;
  const PreparedWorkload prepared = prepare_workload(spec, serial_config);

  ThreadPool pool(4);
  PipelineConfig parallel_config;
  parallel_config.analysis_pool = &pool;
  for (const Optimizer optimizer : kAllOptimizers) {
    SCOPED_TRACE(optimizer.name());
    EXPECT_EQ(model_sequence(prepared, optimizer, serial_config),
              model_sequence(prepared, optimizer, parallel_config));
  }
}

}  // namespace
}  // namespace codelayout
