// The three benchmark workloads and the helpers they share. Each workload
// runs as many rounds as fit in Options::seconds (at least one), checks its
// outputs, and fills a Result with the end-to-end metrics, or, when
// Options::trace is set, with the per-layer metrics of one traced round.
#pragma once

#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/lab.hpp"

namespace perfbench {

Result run_paper(const Options& options);
Result run_layout(const Options& options);
Result run_service(const Options& options);

/// Every name of the 29-program suite, in suite order.
std::vector<std::string> suite_names();

/// Hashes every field of a SimResult.
void hash_sim(Fnv& h, const codelayout::SimResult& sim);

/// "Original" or the optimizer's name.
std::string opt_name(const std::optional<codelayout::Optimizer>& optimizer);

/// Whether `name` can be laid out by `optimizer` (the original always can;
/// BB optimizers only where the paper's compiler supported them).
bool supported(const std::string& name,
               const std::optional<codelayout::Optimizer>& optimizer);

/// Layout cells of every program in `programs` that `optimizer` supports.
std::vector<codelayout::EvalRequest> layout_batch(
    const std::vector<std::string>& programs, codelayout::Optimizer optimizer);

/// Set-ups timed per round: set-up is short next to a round, so a round
/// builds and prepares this many cold Labs and keeps the last. Their median
/// is the round's set-up time.
inline constexpr int kSetUps = 5;

/// Builds a cold Lab and prepares `programs` kSetUps times, appending each
/// set-up's wall time to `samples`; returns the last Lab.
std::unique_ptr<codelayout::Lab> set_up(
    const codelayout::LabOptions& options,
    const std::vector<std::string>& programs, std::vector<double>& samples);

/// One untraced round of a Lab workload: set-up samples, the timed region's
/// wall and process CPU, the round's peak resident set, the output hash.
struct LabRound {
  std::vector<double> setup_s;
  double wall_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  std::uint64_t hash = 0;
};

/// Whether a run that started at `start` and has made `rounds` rounds makes
/// another: always a first one, then only while one more round of the mean
/// length so far still ends within `seconds`. Runs then last about
/// `seconds` rather than up to a round longer.
bool another_round(double start, std::size_t rounds, double seconds);

/// Repeats `round` while another_round() allows and reports medians.
/// These workloads serve one job per round (the whole reproduction or
/// layout study), so their job_* metrics restate the round time.
void run_rounds(const Options& options, Result& result,
                LabRound (*round)(const Options&, Result&));

/// Writes the recorder's spans to `<out_dir>/<workload>-seed<N>.perfetto
/// .json` and notes the path and span counts in the result.
void write_trace(const Options& options, Result& result);

/// The traced run: `round(options, result, trace)` untraced, traced, and
/// untraced again, all in the same layered order; the traced wall time minus
/// the mean untraced one is the tracing overhead (trace.overhead_s). The
/// per-layer metrics are the traced round's; all rounds must hash alike.
void trace_run(const Options& options, Result& result,
               double (*round)(const Options&, Result&, bool));

/// Counts a batch's outcomes into `result`, failing it on any error.
void count_outcomes(const std::vector<codelayout::EvalOutcome>& outcomes,
                    Result& result);

/// What a layered round did that neither the ledger nor the Lab's counters
/// record, filled by the workload; layer_metrics turns it into metrics.
struct LayerTotals {
  std::uint64_t prepare_events = 0;  ///< eval + profile blocks prepared
  std::uint64_t layout_events = 0;   ///< profile units the layouts consumed
  std::uint64_t layout_cells = 0;
  std::uint64_t fetch_plans = 0;
  std::uint64_t solo_events = 0;   ///< SimResult::blocks
  std::uint64_t corun_events = 0;  ///< SimResult::blocks, self + peer
  std::uint64_t l2_probes = 0;
  /// Solo and co-run time: the ledger's when the benchmark calls those
  /// layers itself, the Lab's stage clocks when the daemon calls them.
  double solo_cpu_s = 0;
  double corun_cpu_s = 0;
  double corun_wall_s = 0;
  double round_wall_s = 0;  ///< the whole layered round
  double round_cpu_s = 0;   ///< process CPU of the whole layered round
};

/// Prepares `programs`, then builds the layouts of `layout_programs` in one
/// batch per optimizer, in the order given. Each call is charged on `ledger`
/// (when not null) to `prepare` or to the optimizer's layout layer; failed
/// cells count in `result`. Returns the prepare and layout totals.
LayerTotals prepare_and_layout(
    codelayout::Lab& lab, const std::vector<std::string>& programs,
    const std::vector<std::string>& layout_programs,
    std::span<const codelayout::Optimizer> optimizers, LayerLedger* ledger,
    Result& result);

/// Sets the per-layer metrics every workload shares (prepare.*, layout.*,
/// fetch_plan.*, solo.*, corun.* but the table2-alone pair, engine.* but
/// driver_cells_computed, trace.wall_s, trace.cpu_coverage) from the ledger,
/// the Lab's counters and `totals`.
void layer_metrics(const LayerLedger& ledger, const codelayout::LabMetrics& m,
                   const LayerTotals& totals, Result& result);

/// Sets to 0 per-layer metrics of layers the workload never calls, so each
/// workload names every per-layer metric it does not measure.
void not_measured(Result& result, std::initializer_list<const char*> names);

}  // namespace perfbench
