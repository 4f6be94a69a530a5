// `paper`: every paper table and figure driver through one cold Lab at the
// paper geometry — the "reproduce the paper" unit. Its inputs are the
// paper's fixed experiment set, so the seed selects nothing here.

#include <exception>
#include <set>

#include "harness/experiments.hpp"
#include "support/trace_recorder.hpp"
#include "workloads.hpp"
#include "workloads/spec.hpp"

namespace perfbench {
namespace {

using namespace codelayout;

constexpr std::size_t kSec3fTop = 3;

/// Runs the eight drivers (fig6 under all three optimizers) and hashes
/// every row value in reporting order. Counts the driver calls.
std::uint64_t run_drivers(Lab& lab, Result& result) {
  Fnv h;
  const auto call = [&](const char* name, auto&& body) {
    ++result.attempted;
    try {
      h.add(std::string_view(name));
      body();
    } catch (const std::exception& e) {
      ++result.failed;
      result.fail(std::string(name) + ": " + e.what());
    }
  };
  call("intro", [&] {
    const IntroTable t = intro_table(lab);
    for (const std::string& p : t.programs) h.add(p);
    h.add(t.avg_solo).add(t.avg_corun1).add(t.avg_corun2);
  });
  call("fig4", [&] {
    for (const Fig4Row& r : fig4_rows(lab)) {
      h.add(r.name).add(r.solo).add(r.probe_gcc).add(r.probe_gamess);
    }
  });
  call("table1", [&] {
    for (const Table1Row& r : table1_rows(lab)) {
      h.add(r.name).add(r.dynamic_instructions).add(r.static_bytes);
      h.add(r.solo).add(r.corun_gcc).add(r.corun_gamess);
    }
  });
  call("fig5", [&] {
    for (const Fig5Row& r : fig5_rows(lab)) {
      h.add(r.name).add(std::uint64_t{r.bb_supported});
      h.add(r.func_speedup).add(r.func_miss_reduction);
      h.add(r.bb_speedup).add(r.bb_miss_reduction);
    }
  });
  call("table2", [&] {
    for (const Table2Row& r : table2_rows(lab)) {
      h.add(r.name);
      for (const Table2Cell& c : {r.func_affinity, r.bb_affinity, r.func_trg}) {
        h.add(std::uint64_t{c.available}).add(c.speedup);
        h.add(c.miss_reduction_hw).add(c.miss_reduction_sim);
      }
    }
  });
  for (const Optimizer opt : {kFuncAffinity, kBBAffinity, kFuncTrg}) {
    call("fig6", [&] {
      h.add(opt.name());
      for (const Fig6Cell& c : fig6_cells(lab, opt)) {
        h.add(c.program).add(c.probe).add(c.speedup);
      }
    });
  }
  call("fig7", [&] {
    for (const Fig7Pair& p : fig7_pairs(lab)) {
      h.add(p.a).add(p.b).add(p.baseline_improvement);
      h.add(p.optimized_improvement);
    }
  });
  call("sec3f", [&] {
    for (const Sec3FRow& r : sec3f_rows(lab, kSec3fTop)) {
      h.add(r.program).add(r.peer).add(r.opt_base_speedup);
      h.add(r.opt_opt_speedup);
    }
  });
  return h.value();
}

/// The cells the drivers consume, by stage, so the traced round can
/// materialize each layer in its own batch before the drivers run. The
/// drivers must then compute nothing; layered_round fails the run if they
/// do, since their cells' CPU would land in engine.cpu_s.
struct PaperCells {
  std::vector<std::pair<std::string, std::optional<Optimizer>>> plans;
  std::vector<EvalRequest> solos;
  std::vector<EvalRequest> coruns;
};

constexpr Optimizer kPaperOpts[3] = {kFuncAffinity, kBBAffinity, kFuncTrg};

PaperCells paper_cells() {
  const std::vector<std::string>& sel = selected_benchmarks();
  const std::vector<std::string> all = suite_names();
  const std::optional<Optimizer> orig;
  const auto hw = Measure::kHardware;
  std::set<EvalRequest> solos, coruns;
  PaperCells cells;
  for (const Optimizer opt : kPaperOpts) {
    for (const std::string& name : sel) {
      if (supported(name, opt)) cells.plans.emplace_back(name, opt);
    }
  }
  for (const std::string& name : all) {
    cells.plans.emplace_back(name, orig);
    solos.insert(EvalRequest::solo(name, orig, hw));  // intro, fig4
    for (const char* probe : {kProbe1, kProbe2}) {    // intro, fig4, table1
      coruns.insert(EvalRequest::corun(name, orig, probe, orig, hw));
    }
  }
  for (const std::string& name : sel) {  // fig5
    solos.insert(EvalRequest::solo(name, kFuncAffinity, hw));
    if (supported(name, kBBAffinity)) {
      solos.insert(EvalRequest::solo(name, kBBAffinity, hw));
    }
  }
  for (const Optimizer opt : kPaperOpts) {  // table2 (both measures), fig6
    for (const std::string& name : sel) {
      if (!supported(name, opt)) continue;
      for (const std::string& probe : sel) {
        for (const Measure m : {Measure::kHardware, Measure::kSimulator}) {
          coruns.insert(EvalRequest::corun(name, orig, probe, orig, m));
          coruns.insert(EvalRequest::corun(name, opt, probe, orig, m));
        }
      }
    }
  }
  const std::vector<std::string>& f7 = fig7_programs();
  for (std::size_t i = 0; i < f7.size(); ++i) {
    solos.insert(EvalRequest::solo(f7[i], kFuncAffinity, hw));
    for (std::size_t j = i; j < f7.size(); ++j) {
      coruns.insert(EvalRequest::corun(f7[i], orig, f7[j], orig, hw));
      coruns.insert(EvalRequest::corun(f7[j], orig, f7[i], orig, hw));
      coruns.insert(EvalRequest::corun(f7[i], kFuncAffinity, f7[j], orig, hw));
      coruns.insert(EvalRequest::corun(f7[j], orig, f7[i], kFuncAffinity, hw));
    }
  }
  cells.solos.assign(solos.begin(), solos.end());
  cells.coruns.assign(coruns.begin(), coruns.end());
  return cells;
}

std::vector<EvalRequest> sec3f_cells(const std::vector<std::string>& top) {
  const std::optional<Optimizer> orig;
  const auto hw = Measure::kHardware;
  std::vector<EvalRequest> out;
  for (const std::string& a : top) {
    for (const std::string& b : top) {
      out.push_back(EvalRequest::corun(a, orig, b, orig, hw));
      out.push_back(EvalRequest::corun(a, kFuncAffinity, b, orig, hw));
      out.push_back(EvalRequest::corun(a, kFuncAffinity, b, kFuncAffinity, hw));
    }
  }
  return out;
}

/// One untraced round: cold Lab + prepare (set-up), then the drivers.
LabRound untraced_round(const Options& options, Result& result) {
  LabRound round;
  RssSampler rss;
  const std::unique_ptr<Lab> lab = set_up(
      LabOptions().threads(options.threads), suite_names(), round.setup_s);
  const double w0 = wall_now();
  const double c0 = process_cpu_now();
  round.hash = run_drivers(*lab, result);
  round.wall_s = wall_now() - w0;
  round.cpu_s = process_cpu_now() - c0;
  round.rss_mb = rss.stop();
  return round;
}

/// Adds the co-run events and L2 probes of `cells` to `totals`.
void count_coruns(Lab& lab, const std::vector<EvalRequest>& cells,
                  LayerTotals& totals) {
  for (const EvalRequest& r : cells) {
    const EvalKey& k = r.key;
    const CorunResult& c =
        lab.corun(k.workload, k.optimizer, *k.peer, k.peer_optimizer,
                  k.measure, k.hierarchy);
    totals.corun_events += c.self.blocks + c.peer.blocks;
    totals.l2_probes += c.self.l2_probes + c.peer.l2_probes;
  }
}

/// The layered round: each layer in its own batch, in dependency order.
/// Returns its wall time; writes the Perfetto file when `trace` is set.
double layered_round(const Options& options, Result& result, bool trace) {
  auto& recorder = TraceRecorder::instance();
  recorder.clear();
  if (trace) recorder.enable();
  LayerLedger ledger;
  const PaperCells cells = paper_cells();
  const double t0 = wall_now();
  const double cpu0 = process_cpu_now();
  Lab lab(LabOptions().threads(options.threads));
  LayerTotals totals = prepare_and_layout(lab, suite_names(),
                                          selected_benchmarks(), kPaperOpts,
                                          &ledger, result);
  {
    LayerLedger::Call call(ledger, "fetch_plan", "fetch_plan");
    for (const auto& [name, opt] : cells.plans) (void)lab.fetch_plan(name, opt);
  }
  {
    LayerLedger::Call call(ledger, "solo", "evaluate_all");
    lab.evaluate_all(cells.solos);
  }
  {
    LayerLedger::Call call(ledger, "corun", "evaluate_all");
    lab.evaluate_all(cells.coruns);
  }
  std::vector<std::string> top;
  {
    LayerLedger::Call call(ledger, "engine", "top_improving_programs");
    top = top_improving_programs(lab, kSec3fTop);
  }
  const std::vector<EvalRequest> sec3f = sec3f_cells(top);
  {
    LayerLedger::Call call(ledger, "corun", "evaluate_all");
    lab.evaluate_all(sec3f);
  }
  const LabMetrics before_drivers = lab.metrics();
  std::uint64_t hash = 0;
  {
    LayerLedger::Call call(ledger, "engine", "drivers");
    hash = run_drivers(lab, result);
  }
  const LabMetrics m = lab.metrics();
  totals.round_wall_s = wall_now() - t0;
  totals.round_cpu_s = process_cpu_now() - cpu0;
  recorder.disable();
  result.output_hash = hash;
  const std::uint64_t driver_cells =
      m.tasks_executed() - before_drivers.tasks_executed();
  if (driver_cells != 0) {
    result.fail("the drivers computed " + std::to_string(driver_cells) +
                " cells the layer batches missed");
  }

  totals.fetch_plans = cells.plans.size();
  for (const EvalRequest& r : cells.solos) {
    totals.solo_events +=
        lab.solo(r.key.workload, r.key.optimizer, r.key.measure).blocks;
  }
  count_coruns(lab, cells.coruns, totals);
  std::set<EvalRequest> unique_sec3f(sec3f.begin(), sec3f.end());
  for (const EvalRequest& r : cells.coruns) unique_sec3f.erase(r);
  count_coruns(lab, {unique_sec3f.begin(), unique_sec3f.end()}, totals);
  totals.solo_cpu_s = ledger.cpu("solo");
  totals.corun_cpu_s = ledger.cpu("corun");
  totals.corun_wall_s = ledger.wall("corun");

  layer_metrics(ledger, m, totals, result);
  result.metrics["engine.driver_cells_computed"] =
      static_cast<double>(driver_cells);
  not_measured(result,
               {"predict.profile_builds", "predict.profile_cpu_s",
                "predict.pairs", "predict.pairs_per_s", "predict.schedule_s",
                "service.queue_wait_ms", "service.exec_ms",
                "service.encode_us", "service.decode_us",
                "service.cache_hit_ratio", "service.request_bytes",
                "service.response_bytes", "service.cpu_s",
                "service.cached_job_p50_ms"});
  if (trace) write_trace(options, result);
  return totals.round_wall_s;
}

/// Co-run off-CPU time when table2 runs alone in a cold Lab: its co-run
/// cells build their layouts as nested dependencies, or wait on another
/// cell building them (through the fetch-plan memo, which keeps no wait
/// counter), so the co-run stage's task wall includes that time. Compare
/// with corun.offcpu_s of the layered round, where layouts come first.
void table2_alone(const Options& options, Result& result) {
  Lab lab(LabOptions().threads(options.threads));
  lab.prepare_all(selected_benchmarks());
  (void)table2_rows(lab);
  const LabMetrics m = lab.metrics();
  auto& mx = result.metrics;
  mx["corun.offcpu_s_table2_alone"] =
      (static_cast<double>(m.corun.wall_nanos) -
       static_cast<double>(m.corun.cpu_nanos)) * 1e-9;
  mx["corun.nested_layout_wall_s_table2_alone"] =
      static_cast<double>(m.layout.wall_nanos) * 1e-9;
}

}  // namespace

Result run_paper(const Options& options) {
  Result result;
  if (options.trace) {
    trace_run(options, result, layered_round);
    table2_alone(options, result);
    return result;
  }
  run_rounds(options, result, untraced_round);
  return result;
}

}  // namespace perfbench
