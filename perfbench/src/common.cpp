#include "support/trace_recorder.hpp"
#include "workloads.hpp"
#include "workloads/spec.hpp"

namespace perfbench {

using namespace codelayout;

std::vector<std::string> suite_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& spec : spec_suite()) out.push_back(spec.name);
  return out;
}

void hash_sim(Fnv& h, const SimResult& sim) {
  h.add(sim.instructions).add(sim.overhead_instructions).add(sim.line_probes);
  h.add(sim.demand_misses).add(sim.wrong_path_misses).add(sim.blocks);
  h.add(sim.l2_probes).add(sim.l2_misses);
}

std::string opt_name(const std::optional<Optimizer>& optimizer) {
  return optimizer ? optimizer->name() : "Original";
}

bool supported(const std::string& name,
               const std::optional<Optimizer>& optimizer) {
  return !optimizer || optimizer->granularity != Granularity::kBlock ||
         Lab::bb_reordering_supported(name);
}

std::vector<EvalRequest> layout_batch(const std::vector<std::string>& programs,
                                      Optimizer optimizer) {
  std::vector<EvalRequest> out;
  for (const std::string& name : programs) {
    if (supported(name, optimizer)) {
      out.push_back(EvalRequest::layout(name, optimizer));
    }
  }
  return out;
}

std::unique_ptr<Lab> set_up(const LabOptions& options,
                            const std::vector<std::string>& programs,
                            std::vector<double>& samples) {
  std::unique_ptr<Lab> lab;
  for (int i = 0; i < kSetUps; ++i) {
    lab.reset();
    const double t0 = wall_now();
    lab = std::make_unique<Lab>(options);
    lab->prepare_all(programs);
    samples.push_back(wall_now() - t0);
  }
  return lab;
}

bool another_round(double start, std::size_t rounds, double seconds) {
  if (rounds == 0) return true;
  const double elapsed = wall_now() - start;
  return elapsed + elapsed / static_cast<double>(rounds) <= seconds;
}

void run_rounds(const Options& options, Result& result,
                LabRound (*round)(const Options&, Result&)) {
  std::vector<double> setup, wall, cpu, rss;
  const double start = wall_now();
  do {
    const LabRound r = round(options, result);
    if (!wall.empty() && r.hash != result.output_hash) {
      result.fail("rounds disagree on the output hash");
    }
    result.output_hash = r.hash;
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    rss.push_back(r.rss_mb);
  } while (result.failed == 0 &&
           another_round(start, wall.size(), options.seconds));
  auto& mx = result.metrics;
  mx["setup_s"] = median(setup);
  mx["wall_s"] = median(wall);
  mx["cpu_s"] = median(cpu);
  mx["peak_rss_mb"] = median(rss);
  // One job per round: the whole reproduction or layout study.
  mx["job_p50_ms"] = quantile(wall, 0.5) * 1e3;
  mx["job_p90_ms"] = quantile(wall, 0.9) * 1e3;
  mx["jobs_per_s"] = 1.0 / median(wall);
  result.notes["job_samples"] = std::to_string(wall.size());
  result.notes["setup_samples"] = std::to_string(setup.size());
}

void write_trace(const Options& options, Result& result) {
  const auto& recorder = TraceRecorder::instance();
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".perfetto.json";
  recorder.write_chrome_trace(path);
  result.notes["trace_file"] = path;
  result.notes["trace_spans"] = std::to_string(recorder.recorded_spans());
  result.notes["trace_dropped_spans"] =
      std::to_string(recorder.dropped_spans());
}

void trace_run(const Options& options, Result& result,
               double (*round)(const Options&, Result&, bool)) {
  // Untraced rounds on both sides of the traced one, so a warm-up or drift
  // effect of round order cancels in the overhead.
  Result before, after;
  const double untraced_before = round(options, before, false);
  const double traced = round(options, result, true);
  const double untraced_after = round(options, after, false);
  for (Result* reference : {&before, &after}) {
    result.attempted += reference->attempted;
    result.failed += reference->failed;
    for (std::string& p : reference->problems) result.fail(std::move(p));
    if (reference->output_hash != result.output_hash) {
      result.fail("traced and untraced rounds hash differently");
    }
  }
  // Metrics only an untraced round measures (see run_service).
  for (const auto& [name, value] : before.metrics) {
    result.metrics.try_emplace(name, value);
  }
  result.metrics["trace.overhead_s"] =
      traced - (untraced_before + untraced_after) / 2;
}

void count_outcomes(const std::vector<EvalOutcome>& outcomes, Result& result) {
  for (const EvalOutcome& o : outcomes) {
    ++result.attempted;
    if (!o.ok()) {
      ++result.failed;
      result.fail(o.request.key.to_string() + ": " + o.error);
    }
  }
}

namespace {

constexpr const char* kLayoutLayers[4] = {
    "layout.func_affinity", "layout.bb_affinity", "layout.func_trg",
    "layout.bb_trg"};  // kAllOptimizers order

const char* layout_layer(Optimizer optimizer) {
  for (std::size_t i = 0; i < 4; ++i) {
    if (kAllOptimizers[i] == optimizer) return kLayoutLayers[i];
  }
  return "layout";
}

}  // namespace

LayerTotals prepare_and_layout(Lab& lab,
                               const std::vector<std::string>& programs,
                               const std::vector<std::string>& layout_programs,
                               std::span<const Optimizer> optimizers,
                               LayerLedger* ledger, Result& result) {
  LayerTotals totals;
  {
    std::optional<LayerLedger::Call> call;
    if (ledger) call.emplace(*ledger, "prepare", "prepare_all");
    lab.prepare_all(programs);
  }
  for (const std::string& name : programs) {
    const PreparedWorkload& w = lab.workload(name);
    totals.prepare_events += w.eval_blocks.size() + w.profile_blocks.size();
  }
  for (const Optimizer opt : optimizers) {
    const std::vector<EvalRequest> cells = layout_batch(layout_programs, opt);
    {
      std::optional<LayerLedger::Call> call;
      if (ledger) call.emplace(*ledger, layout_layer(opt), "evaluate_all");
      count_outcomes(lab.evaluate_all_checked(cells), result);
    }
    for (const EvalRequest& r : cells) {
      const PreparedWorkload& w = lab.workload(r.key.workload);
      totals.layout_events += opt.granularity == Granularity::kBlock
                                  ? w.profile_blocks.size()
                                  : w.profile_functions.size();
    }
    totals.layout_cells += cells.size();
  }
  return totals;
}

void layer_metrics(const LayerLedger& ledger, const LabMetrics& m,
                   const LayerTotals& t, Result& result) {
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  auto& mx = result.metrics;
  mx["prepare.cpu_s"] = ledger.cpu("prepare");
  mx["prepare.cells"] = count(m.prepare.computed);
  mx["prepare.events_per_s"] =
      ratio(count(t.prepare_events), ledger.cpu("prepare"));
  double layout_cpu = 0, layout_wall = 0;
  for (const char* layer : kLayoutLayers) {
    mx[std::string(layer) + ".cpu_s"] = ledger.cpu(layer);
    layout_cpu += ledger.cpu(layer);
    layout_wall += ledger.wall(layer);
  }
  mx["layout.wall_s"] = layout_wall;
  mx["layout.cells"] = count(t.layout_cells);
  mx["layout.events_per_s"] = ratio(count(t.layout_events), layout_cpu);
  mx["fetch_plan.builds"] = count(t.fetch_plans);
  mx["fetch_plan.cpu_s"] = ledger.cpu("fetch_plan");
  mx["solo.cells"] = count(m.solo.computed);
  mx["solo.cpu_s"] = t.solo_cpu_s;
  mx["solo.events"] = count(t.solo_events);
  mx["solo.events_per_s"] = ratio(count(t.solo_events), t.solo_cpu_s);
  mx["corun.cells"] = count(m.corun.computed);
  mx["corun.wall_s"] = t.corun_wall_s;
  mx["corun.cpu_s"] = t.corun_cpu_s;
  mx["corun.offcpu_s"] =
      (count(m.corun.wall_nanos) - count(m.corun.cpu_nanos)) * 1e-9;
  mx["corun.events"] = count(t.corun_events);
  mx["corun.events_per_s"] = ratio(count(t.corun_events), t.corun_cpu_s);
  mx["corun.l2_probes"] = count(t.l2_probes);
  const double computed = count(m.tasks_executed());
  const double dedup = count(m.tasks_deduplicated());
  mx["engine.cells_computed"] = computed;
  mx["engine.cells_deduplicated"] = dedup;
  mx["engine.dedup_ratio"] = ratio(dedup, computed + dedup);
  mx["engine.cpu_s"] = ledger.cpu("engine");
  mx["trace.wall_s"] = t.round_wall_s;
  mx["trace.cpu_coverage"] = ratio(ledger.total_cpu(), t.round_cpu_s);
}

void not_measured(Result& result, std::initializer_list<const char*> names) {
  for (const char* name : names) result.metrics[name] = 0.0;
}

}  // namespace perfbench
