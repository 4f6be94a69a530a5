// `service`: an in-process daemon on a real Unix socket, driven by a closed
// loop of one client connection per daemon worker, all from this process.
// Every caller of the daemon in this repository waits for each reply, so a
// closed loop is the faithful load model. The job list (see draw_jobs):
//   - mostly solo and two-party co-run jobs over the eight selected programs
//     plus both probes, optimizers {original, FA, BA, FT}, both measures,
//     half of them on private 32K L1s over a shared 8-way 256K L2;
//   - a small share of layout, trace-stats and co-schedule jobs;
//   - one job in four repeats an earlier request, so the response cache
//     answers it. The seed draws the order and which jobs repeat.
// Each round starts a fresh daemon (set-up: construction, listen, and the
// prepare and layout warm-up of every program the jobs name) and serves the
// whole list, so every round sees the same uncached work.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "service/client.hpp"
#include "service/server.hpp"
#include "support/trace_recorder.hpp"
#include "workloads.hpp"
#include "workloads/spec.hpp"

namespace perfbench {
namespace {

using namespace codelayout;
using namespace codelayout::service;

constexpr std::size_t kSampleChecks = 8;
constexpr const char* kL2Spec = "32K/4/64+l2=256K/8/64";

std::vector<std::string> service_programs() {
  std::vector<std::string> out = selected_benchmarks();
  for (const char* probe : {kProbe1, kProbe2}) {
    if (std::find(out.begin(), out.end(), probe) == out.end()) {
      out.push_back(probe);
    }
  }
  return out;
}

const std::optional<Optimizer> kServiceOpts[4] = {
    std::nullopt, kFuncAffinity, kBBAffinity, kFuncTrg};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Draws an optimizer the program supports.
std::optional<Optimizer> draw_opt(Rng& rng, const std::string& name) {
  for (;;) {
    const std::optional<Optimizer> opt = kServiceOpts[rng.below(4)];
    if (supported(name, opt)) return opt;
  }
}

/// The job list. Its distinct jobs are one fixed, balanced design, so every
/// seed asks for the same work and shares one output hash:
///   - one co-run job for every supported (program, optimizer) as the
///     measured party under both measures and both cache shapes, against a
///     peer program taken in turn from a shuffled cycle, optimizer drawn;
///   - one solo job for every supported (program, optimizer) under both
///     cache shapes, measure drawn. Co-runs are the majority, so the median
///     latency falls inside the co-run mode rather than in the gap between
///     the cheaper solo jobs and the co-runs;
///   - one layout job per optimized (program, optimizer), one trace-stats
///     job per program (uploading its pruned function trace, taken from
///     `lab`), and eight co-schedule jobs over distinct four-program pools.
/// The seed draws their order and one repeat per three distinct jobs, each
/// placed at least eight jobs after its original so the response cache
/// answers it.
std::vector<JobRequest> draw_jobs(std::uint64_t seed, Lab& lab) {
  Rng design(0xc0de1a7);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  const std::vector<std::string> programs = service_programs();
  const HierarchySpec l2 = parse_hierarchy(kL2Spec);
  std::vector<std::string> peers;
  std::size_t next_peer = 0;
  const auto peer = [&] {
    if (next_peer == peers.size()) {
      peers = programs;
      shuffle(peers, design);
      next_peer = 0;
    }
    return peers[next_peer++];
  };

  std::vector<JobRequest> fresh;
  for (const std::string& name : programs) {
    for (const std::optional<Optimizer>& opt : kServiceOpts) {
      if (!supported(name, opt)) continue;
      if (opt) {
        JobRequest layout;
        layout.kind = JobKind::kLayout;
        layout.workload = name;
        layout.optimizer = opt;
        fresh.push_back(layout);
      }
      for (const HierarchySpec& hierarchy : {HierarchySpec{}, l2}) {
        JobRequest solo;
        solo.kind = JobKind::kSolo;
        solo.workload = name;
        solo.optimizer = opt;
        solo.measure =
            design.below(2) ? Measure::kHardware : Measure::kSimulator;
        solo.hierarchy = hierarchy;
        fresh.push_back(solo);
      }
      for (const Measure measure : {Measure::kHardware, Measure::kSimulator}) {
        for (const HierarchySpec& hierarchy : {HierarchySpec{}, l2}) {
          JobRequest corun;
          corun.kind = JobKind::kCorun;
          const std::string other = peer();
          corun.parties = {{name, opt, 1.0},
                           {other, draw_opt(design, other), 1.0}};
          corun.measure = measure;
          corun.hierarchy = hierarchy;
          fresh.push_back(corun);
        }
      }
    }
    JobRequest stats;
    stats.kind = JobKind::kTraceStats;
    stats.trace = lab.workload(name).profile_functions;
    fresh.push_back(stats);
  }
  std::vector<std::string> pool = programs;
  for (int n = 0; n < 8; ++n) {
    JobRequest schedule;
    schedule.kind = JobKind::kCoSchedule;
    schedule.slots = 2;
    schedule.verify_top_k = 1;
    do {
      shuffle(pool, design);
      schedule.parties.clear();
      for (int i = 0; i < 4; ++i) {
        schedule.parties.push_back({pool[i], {}, 1.0});
      }
    } while (std::any_of(fresh.end() - n, fresh.end(),
                         [&](const JobRequest& j) {
                           return j.canonical_key() ==
                                  schedule.canonical_key();
                         }));
    fresh.push_back(schedule);
  }
  shuffle(fresh, rng);

  // Position keys: fresh job i sits at i; a repeat of i lands in (i + 8, F].
  std::vector<std::pair<double, std::size_t>> order;
  const std::size_t count = fresh.size();
  for (std::size_t i = 0; i < count; ++i) order.emplace_back(i, i);
  for (std::size_t r = 0; r < count / 3; ++r) {
    const std::size_t i = rng.below(count);
    order.emplace_back(i + 8 + rng.unit() * static_cast<double>(count - i), i);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<JobRequest> jobs;
  for (const auto& [key, i] : order) jobs.push_back(fresh[i]);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = i + 1;
  return jobs;
}

/// The deterministic part of a response: everything but the id and the
/// cost receipt (which carries timings and the cached flag).
std::string stable_payload(JobResponse response) {
  response.id = 0;
  response.receipt = CostReceipt{};
  return encode_response_payload(response);
}

struct Served {
  JobResponse response;
  double latency_s = 0;
};

struct Round {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  std::vector<double> uncached_s;
  std::vector<double> cached_s;
  std::vector<JobRequest> jobs;
  std::vector<Served> served;
  LabMetrics lab;
  LayerTotals totals;  ///< of the warm-up
};

struct Sizing {
  unsigned workers = 1;
  unsigned lab_threads = 1;
};

/// Workers x Lab threads <= the thread budget. The closed loop runs one
/// client per worker: with more clients than workers a job's latency also
/// holds its wait behind the jobs queued ahead of it, which depends on the
/// seeded order, and the latency median of four clients over two workers
/// spread two to three times as wide from run to run as that of two.
Sizing sizing(unsigned threads) {
  Sizing s;
  s.workers = std::max(1u, threads / 2);
  s.lab_threads = std::max(1u, threads / s.workers);
  return s;
}

/// The optimized layouts every job may need, built in set-up.
constexpr Optimizer kWarmOpts[3] = {kFuncAffinity, kBBAffinity, kFuncTrg};

Round serve_round(const Options& options, const std::string& socket,
                  LayerLedger* ledger, Result& result) {
  Round round;
  RssSampler rss;
  const Sizing size = sizing(options.threads);
  const double t0 = wall_now();
  auto executor =
      std::make_unique<LabExecutor>(LabOptions().threads(size.lab_threads));
  LabExecutor* exec = executor.get();
  ServerConfig config;
  config.workers = size.workers;
  ServiceServer server(config, std::move(executor));
  server.listen_unix(socket);
  round.totals = prepare_and_layout(exec->lab(), service_programs(),
                                    service_programs(), kWarmOpts, ledger,
                                    result);
  round.setup_s = wall_now() - t0;
  round.jobs = draw_jobs(options.seed, exec->lab());
  round.served.resize(round.jobs.size());

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::string error;
  const double w0 = wall_now();
  const double c0 = process_cpu_now();
  {
    std::optional<LayerLedger::Call> call;
    if (ledger) call.emplace(*ledger, "service", "closed_loop");
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < size.workers; ++c) {
      clients.emplace_back([&] {
        try {
          ServiceClient client = ServiceClient::connect_unix(socket);
          for (std::size_t i; (i = next.fetch_add(1)) < round.jobs.size();) {
            const double t = wall_now();
            round.served[i].response = client.call(round.jobs[i]);
            round.served[i].latency_s = wall_now() - t;
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(error_mu);
          error = e.what();
          next.store(round.jobs.size());
        }
      });
    }
    for (std::thread& c : clients) c.join();
  }
  round.wall_s = wall_now() - w0;
  round.cpu_s = process_cpu_now() - c0;
  round.rss_mb = rss.stop();
  round.lab = exec->lab().metrics();
  server.shutdown();
  if (!error.empty()) {
    for (Served& s : round.served) {
      if (s.latency_s == 0) {
        s.response.status = JobStatus::kError;
        s.response.error = "client failed: " + error;
      }
    }
  }
  for (const Served& s : round.served) {
    if (s.response.status != JobStatus::kOk) continue;
    (s.response.receipt.cached ? round.cached_s : round.uncached_s)
        .push_back(s.latency_s);
  }
  return round;
}

/// Checks statuses and repeat consistency, then hashes every distinct
/// response sorted by the request's canonical key.
std::uint64_t check_round(const Round& round, Result& result) {
  std::map<std::string, std::string> by_key;
  for (std::size_t i = 0; i < round.jobs.size(); ++i) {
    const JobResponse& r = round.served[i].response;
    ++result.attempted;
    if (r.status != JobStatus::kOk) {
      ++result.failed;
      result.fail(round.jobs[i].to_string() + ": " +
                  job_status_name(r.status) + " " + r.error);
      continue;
    }
    if (r.id != round.jobs[i].id) result.fail("response id mismatch");
    const std::string payload = stable_payload(r);
    const auto [it, fresh] =
        by_key.emplace(round.jobs[i].canonical_key(), payload);
    if (!fresh && it->second != payload) {
      result.fail("repeated request answered differently: " +
                  round.jobs[i].to_string());
    }
  }
  Fnv h;
  for (const auto& [key, payload] : by_key) h.add(key).add(payload);
  return h.value();
}

/// A seeded sample of distinct requests, evaluated by an in-process
/// LabExecutor (no socket, no response cache): the served bytes must match.
void check_in_process(const Options& options, const Round& round,
                      Result& result) {
  Rng rng(options.seed ^ 0x5eedull);
  std::map<std::string, std::size_t> distinct;
  for (std::size_t i = 0; i < round.jobs.size(); ++i) {
    if (round.served[i].response.status == JobStatus::kOk) {
      distinct.emplace(round.jobs[i].canonical_key(), i);
    }
  }
  std::vector<std::size_t> pool;
  for (const auto& [key, i] : distinct) pool.push_back(i);
  LabExecutor reference(LabOptions().threads(options.threads));
  for (std::size_t n = 0; n < kSampleChecks && !pool.empty(); ++n) {
    const std::size_t pick = rng.below(pool.size());
    const std::size_t i = pool[pick];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    const JobResponse local = reference.execute(round.jobs[i]);
    if (stable_payload(local) != stable_payload(round.served[i].response)) {
      result.fail("served response differs from in-process evaluation: " +
                  round.jobs[i].to_string());
    }
  }
}

std::string socket_path(const Options& options) {
  return options.out_dir + "/svc-" + std::to_string(::getpid()) + ".sock";
}

/// The per-layer metrics of a round. The daemon computes the solo and
/// co-run cells, so their time comes from its Lab's stage clocks and their
/// events from the responses.
void service_metrics(const Round& round, const LayerLedger& ledger,
                     Result& result) {
  LayerTotals totals = round.totals;
  const LabMetrics& m = round.lab;
  std::vector<double> queue_ms, exec_ms;
  std::uint64_t cached = 0, predict_calls = 0;
  for (std::size_t i = 0; i < round.jobs.size(); ++i) {
    const JobResponse& r = round.served[i].response;
    if (r.receipt.cached) {
      ++cached;
      continue;
    }
    queue_ms.push_back(static_cast<double>(r.receipt.queue_wait_nanos) * 1e-6);
    exec_ms.push_back(static_cast<double>(r.receipt.wall_nanos) * 1e-6);
    predict_calls += r.receipt.predict_calls;
    const JobKind kind = round.jobs[i].kind;
    for (const SimResult& s : r.results) {
      if (kind == JobKind::kSolo) {
        totals.solo_events += s.blocks;
      } else {
        totals.corun_events += s.blocks;
        totals.l2_probes += s.l2_probes;
      }
    }
  }
  totals.solo_cpu_s = static_cast<double>(m.solo.cpu_nanos) * 1e-9;
  totals.corun_cpu_s = static_cast<double>(m.corun.cpu_nanos) * 1e-9;
  totals.corun_wall_s = static_cast<double>(m.corun.wall_nanos) * 1e-9;
  layer_metrics(ledger, m, totals, result);

  // Encoding and decoding cost per job, timed here on the same messages.
  std::vector<double> encode_us, decode_us;
  double request_bytes = 0, response_bytes = 0;
  for (std::size_t i = 0; i < round.jobs.size(); ++i) {
    double t = wall_now();
    const std::string frame = encode_request_frame(round.jobs[i]);
    encode_us.push_back((wall_now() - t) * 1e6);
    const std::string payload =
        encode_response_payload(round.served[i].response);
    t = wall_now();
    (void)decode_response_payload(payload);
    decode_us.push_back((wall_now() - t) * 1e6);
    request_bytes += static_cast<double>(frame.size());
    response_bytes += static_cast<double>(payload.size() + kFrameHeaderBytes);
  }
  const double jobs = static_cast<double>(round.jobs.size());
  auto& mx = result.metrics;
  mx["predict.pairs"] = static_cast<double>(predict_calls);
  mx["service.queue_wait_ms"] = median(queue_ms);
  mx["service.exec_ms"] = median(exec_ms);
  mx["service.encode_us"] = median(encode_us);
  mx["service.decode_us"] = median(decode_us);
  mx["service.cache_hit_ratio"] = ratio(static_cast<double>(cached), jobs);
  mx["service.request_bytes"] = request_bytes / jobs;
  mx["service.response_bytes"] = response_bytes / jobs;
  mx["service.cpu_s"] = ledger.cpu("service");
  not_measured(result,
               {"predict.profile_builds", "predict.profile_cpu_s",
                "predict.pairs_per_s", "predict.schedule_s",
                "corun.offcpu_s_table2_alone",
                "corun.nested_layout_wall_s_table2_alone",
                "engine.driver_cells_computed"});
}

/// One round with its layers on the ledger: prepare and layout in the
/// warm-up, the closed loop as the service layer. Returns its wall time.
double layered_round(const Options& options, Result& result, bool trace) {
  auto& recorder = TraceRecorder::instance();
  recorder.clear();
  if (trace) recorder.enable();
  LayerLedger ledger;
  const double t0 = wall_now();
  const double cpu0 = process_cpu_now();
  Round round = serve_round(options, socket_path(options), &ledger, result);
  const double wall = wall_now() - t0;
  round.totals.round_wall_s = wall;
  round.totals.round_cpu_s = process_cpu_now() - cpu0;
  recorder.disable();
  result.output_hash = check_round(round, result);
  if (trace) {
    service_metrics(round, ledger, result);
    write_trace(options, result);
  } else {
    // Hits take tens of microseconds, so a span's cost would show: time them
    // untraced.
    result.metrics["service.cached_job_p50_ms"] =
        quantile(round.cached_s, 0.5) * 1e3;
  }
  return wall;
}

}  // namespace

Result run_service(const Options& options) {
  Result result;
  if (options.trace) {
    trace_run(options, result, layered_round);
    return result;
  }
  const std::string socket = socket_path(options);
  std::vector<double> setup, wall, cpu, rss, rate, uncached;
  const double start = wall_now();
  Round last;
  do {
    Round round = serve_round(options, socket, nullptr, result);
    const std::uint64_t hash = check_round(round, result);
    if (!setup.empty() && hash != result.output_hash) {
      result.fail("rounds disagree on the output hash");
    }
    result.output_hash = hash;
    setup.push_back(round.setup_s);
    wall.push_back(round.wall_s);
    cpu.push_back(round.cpu_s);
    rss.push_back(round.rss_mb);
    rate.push_back(static_cast<double>(round.uncached_s.size()) / round.wall_s);
    uncached.insert(uncached.end(), round.uncached_s.begin(),
                    round.uncached_s.end());
    last = std::move(round);
  } while (another_round(start, wall.size(), options.seconds));
  check_in_process(options, last, result);
  auto& mx = result.metrics;
  mx["setup_s"] = median(setup);
  mx["wall_s"] = median(wall);
  mx["cpu_s"] = median(cpu);
  mx["peak_rss_mb"] = median(rss);
  mx["job_p50_ms"] = quantile(uncached, 0.5) * 1e3;
  mx["job_p90_ms"] = quantile(uncached, 0.9) * 1e3;
  mx["jobs_per_s"] = median(rate);
  result.notes["job_samples"] = std::to_string(uncached.size());
  return result;
}

}  // namespace perfbench
