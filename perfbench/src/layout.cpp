// `layout`: eight suite programs through all four optimizers (BB ones where
// the paper's compiler supported them), a hardware-flavour solo simulation
// of every layout and of the original, the analytic solo profile of every
// program, the 8x8 predicted pair-cost matrix and a co-schedule over it.
// No co-run is simulated, so layout-analysis changes show here and co-run
// changes must not. The seed picks the evaluation input; the profiling input
// is the pipeline's default "test" input for every seed, so every seed builds
// the same layouts and times the same layout work.

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "perfmodel/scheduler.hpp"
#include "support/trace_recorder.hpp"
#include "workloads.hpp"
#include "workloads/spec.hpp"

namespace perfbench {
namespace {

using namespace codelayout;

LabOptions lab_options(const Options& options) {
  // A seeded profile would change the BB TRG graphs, and with them a round's
  // CPU by ~10% and its four-thread makespan by ~20%, from seed to seed.
  PipelineConfig pipeline;
  pipeline.eval_seed = 707 + 1000 * options.seed;
  return LabOptions().threads(options.threads).pipeline(pipeline);
}

/// The programs of one round. The whole 29-program study takes ~14 s on four
/// cores, so a run of tens of seconds would hold one or two rounds and its
/// median would be at the mercy of the host's slow spells. These eight make
/// a ~3 s round with the full study's layer mix (single-threaded: BB TRG
/// ~60% of the layout CPU, BB affinity ~30%, function affinity ~7%), BB TRG
/// graphs from the smallest up to 458.sjeng's (403.gcc, 445.gobmk and
/// 483.xalancbmk each take longer than a whole round), and 400.perlbench
/// for the BB N/A path.
const std::vector<std::string>& layout_programs() {
  static const std::vector<std::string> programs = {
      "400.perlbench", "429.mcf",    "458.sjeng",  "416.gamess",
      "410.bwaves",    "465.tonto",  "450.soplex", "435.gromacs"};
  return programs;
}

struct Cells {
  std::vector<EvalRequest> layouts;  ///< by optimizer, kAllOptimizers order
  std::vector<EvalRequest> solos;
};

Cells layout_cells() {
  Cells cells;
  const std::vector<std::string>& names = layout_programs();
  for (const Optimizer opt : kAllOptimizers) {
    const std::vector<EvalRequest> batch = layout_batch(names, opt);
    cells.layouts.insert(cells.layouts.end(), batch.begin(), batch.end());
  }
  for (const std::string& name : names) {
    cells.solos.push_back(EvalRequest::solo(name, std::nullopt,
                                            Measure::kHardware));
    for (const Optimizer opt : kAllOptimizers) {
      if (supported(name, opt)) {
        cells.solos.push_back(EvalRequest::solo(name, opt, Measure::kHardware));
      }
    }
  }
  return cells;
}

/// Solo profiles of every program's original layout, built on `threads`
/// benchmark threads (the Lab has no batch call for them).
std::vector<const SoloProfile*> build_profiles(Lab& lab, unsigned threads) {
  const std::vector<std::string>& names = layout_programs();
  std::vector<const SoloProfile*> profiles(names.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < names.size();) {
        try {
          profiles[i] = &lab.solo_profile(names[i], std::nullopt);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (error) std::rethrow_exception(error);
  return profiles;
}

std::size_t schedule_slots() { return (layout_programs().size() + 1) / 2; }

/// Hashes every layout's block order, every solo SimResult, the pair-cost
/// matrix and the schedule; checks each layout is a permutation of its
/// module's blocks and the matrix is symmetric.
std::uint64_t hash_outputs(Lab& lab, const Cells& cells,
                           const PairCostMatrix& costs,
                           const ScheduleResult& schedule, Result& result) {
  Fnv h;
  for (const EvalRequest& r : cells.layouts) {
    const CodeLayout& layout = lab.layout(r.key.workload, r.key.optimizer);
    const std::size_t blocks =
        lab.workload(r.key.workload).module.block_count();
    std::vector<bool> seen(blocks, false);
    h.add(r.key.workload).add(opt_name(r.key.optimizer));
    h.add(std::uint64_t{layout.block_order().size()});
    for (const BlockId b : layout.block_order()) {
      h.add(std::uint64_t{b.value});
      if (b.value >= blocks || seen[b.value]) {
        result.fail("layout of " + r.key.to_string() +
                    " is not a permutation of its blocks");
        break;
      }
      seen[b.value] = true;
    }
  }
  for (const EvalRequest& r : cells.solos) {
    hash_sim(h, lab.solo(r.key.workload, r.key.optimizer, r.key.measure));
  }
  for (std::size_t i = 0; i < costs.programs; ++i) {
    h.add(costs.solo[i]);
    for (std::size_t j = 0; j < costs.programs; ++j) {
      if (i == j) continue;
      h.add(costs.cost(i, j));
      if (costs.cost(i, j) != costs.cost(j, i)) {
        result.fail("pair-cost matrix is not symmetric");
      }
    }
  }
  for (const SchedulePair& p : schedule.pairs) {
    h.add(std::uint64_t{p.a}).add(std::uint64_t{p.b}).add(p.predicted_misses);
  }
  for (const std::size_t u : schedule.unpaired) h.add(std::uint64_t{u});
  h.add(schedule.predicted_total_misses);
  return h.value();
}

LabRound untraced_round(const Options& options, Result& result) {
  LabRound round;
  RssSampler rss;
  const Cells cells = layout_cells();
  const std::unique_ptr<Lab> owned =
      set_up(lab_options(options), layout_programs(), round.setup_s);
  Lab& lab = *owned;
  const double w0 = wall_now();
  const double c0 = process_cpu_now();
  std::vector<EvalRequest> all = cells.layouts;
  all.insert(all.end(), cells.solos.begin(), cells.solos.end());
  count_outcomes(lab.evaluate_all_checked(all), result);
  if (result.failed != 0) return round;
  const auto profiles = build_profiles(lab, options.threads);
  const PairCostMatrix costs = compute_pair_costs(profiles, {}, lab.perf());
  const ScheduleResult schedule = schedule_corun(costs, schedule_slots());
  round.wall_s = wall_now() - w0;
  round.cpu_s = process_cpu_now() - c0;
  round.rss_mb = rss.stop();
  round.hash = hash_outputs(lab, cells, costs, schedule, result);
  return round;
}

/// The layered round: each layer in its own batch, in dependency order.
/// Returns its wall time; writes the Perfetto file when `trace` is set.
double layered_round(const Options& options, Result& result, bool trace) {
  auto& recorder = TraceRecorder::instance();
  recorder.clear();
  if (trace) recorder.enable();
  LayerLedger ledger;
  const Cells cells = layout_cells();
  const std::vector<std::string>& names = layout_programs();
  const double t0 = wall_now();
  const double cpu0 = process_cpu_now();
  Lab lab(lab_options(options));
  LayerTotals totals = prepare_and_layout(lab, names, names, kAllOptimizers,
                                          &ledger, result);
  if (result.failed != 0) return 0;
  {
    LayerLedger::Call call(ledger, "fetch_plan", "fetch_plan");
    for (const EvalRequest& r : cells.solos) {
      (void)lab.fetch_plan(r.key.workload, r.key.optimizer);
    }
  }
  {
    LayerLedger::Call call(ledger, "solo", "evaluate_all_checked");
    count_outcomes(lab.evaluate_all_checked(cells.solos), result);
  }
  std::vector<const SoloProfile*> profiles;
  PairCostMatrix costs;
  ScheduleResult schedule;
  double schedule_s = 0, pairs_s = 0;
  {
    LayerLedger::Call call(ledger, "predict", "solo_profile");
    profiles = build_profiles(lab, options.threads);
  }
  const double profile_cpu = ledger.cpu("predict");
  {
    LayerLedger::Call call(ledger, "predict", "compute_pair_costs");
    const double t = wall_now();
    costs = compute_pair_costs(profiles, {}, lab.perf());
    pairs_s = wall_now() - t;
  }
  {
    LayerLedger::Call call(ledger, "predict", "schedule_corun");
    const double t = wall_now();
    schedule = schedule_corun(costs, schedule_slots());
    schedule_s = wall_now() - t;
  }
  {
    LayerLedger::Call call(ledger, "engine", "hash_outputs");
    result.output_hash = hash_outputs(lab, cells, costs, schedule, result);
  }
  totals.round_wall_s = wall_now() - t0;
  totals.round_cpu_s = process_cpu_now() - cpu0;
  recorder.disable();

  totals.fetch_plans = cells.solos.size();
  for (const EvalRequest& r : cells.solos) {
    totals.solo_events +=
        lab.solo(r.key.workload, r.key.optimizer, r.key.measure).blocks;
  }
  totals.solo_cpu_s = ledger.cpu("solo");
  layer_metrics(ledger, lab.metrics(), totals, result);

  const std::size_t n = costs.programs;
  const double pairs = static_cast<double>(n * (n - 1) / 2);
  auto& mx = result.metrics;
  mx["predict.profile_builds"] = static_cast<double>(profiles.size());
  mx["predict.profile_cpu_s"] = profile_cpu;
  mx["predict.pairs"] = pairs;
  mx["predict.pairs_per_s"] = ratio(pairs, pairs_s);
  mx["predict.schedule_s"] = schedule_s;
  not_measured(result,
               {"corun.offcpu_s_table2_alone",
                "corun.nested_layout_wall_s_table2_alone",
                "engine.driver_cells_computed", "service.queue_wait_ms",
                "service.exec_ms", "service.encode_us", "service.decode_us",
                "service.cache_hit_ratio", "service.request_bytes",
                "service.response_bytes", "service.cpu_s",
                "service.cached_job_p50_ms"});
  if (trace) write_trace(options, result);
  return totals.round_wall_s;
}

}  // namespace

Result run_layout(const Options& options) {
  Result result;
  if (options.trace) {
    trace_run(options, result, layered_round);
    return result;
  }
  run_rounds(options, result, untraced_round);
  return result;
}

}  // namespace perfbench
