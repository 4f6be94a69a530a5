// Co-run engine throughput: events/s of the production shared-cache co-run
// simulation (fetch plans + packed tag-probe cache + the per-event kernel,
// DESIGN.md §11) against the pre-optimization per-event loop restated
// longhand — module/layout lookups per event, rotate-prefix LRU cache,
// per-round credit and stall arithmetic. The baseline is the bit-identical
// reference: for every kernel the report carries the FNV checksum of the
// production result *and* of the reference replay, and the bench fails
// (exit 4) if they differ, so the speedup numbers are only ever reported
// for provably identical outputs.
//
// Workloads form (self, peer) pairs from consecutive entries of --workload.
//
// --sweep-threads fans independent co-run cells over a thread pool at each
// requested width and reports per-width throughput plus a combined checksum;
// unequal checksums across widths exit 5. All JSON output is validated with
// the test suite's JSON linter before it is printed.
//
// --sweep-geometry re-runs each pair under a list of cache hierarchies
// ("SIZE/ASSOC/LINE" with an optional "+l2=SIZE/ASSOC/LINE" shared level,
// DESIGN.md §13). Each geometry reports events/s, the FNV checksum of the
// co-run cell results, and per-party AMAT; the cell set is also re-run at
// the widest --sweep-threads width and a serial/parallel checksum mismatch
// exits 5 — geometry must never interact with scheduling.
//
//   bench_corun_perf [--workload A,B,C,D] [--events N] [--json]
//                    [--sweep-threads 1,2,8]
//                    [--sweep-geometry 32K/4/64,16K/2/64+l2=256K/8/64]
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/icache_sim.hpp"
#include "exec/interpreter.hpp"
#include "json_lint.hpp"
#include "support/cli.hpp"
#include "layout/layout.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads/spec.hpp"

namespace {

using namespace codelayout;

// ---- FNV checksums (same scheme as the test suite's golden hashes) ----------

constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_sim(std::uint64_t h, const SimResult& r) {
  h = fnv1a(h, r.instructions);
  h = fnv1a(h, r.overhead_instructions);
  h = fnv1a(h, r.line_probes);
  h = fnv1a(h, r.demand_misses);
  h = fnv1a(h, r.wrong_path_misses);
  return fnv1a(h, r.blocks);
}

std::uint64_t hash_results(const std::vector<SimResult>& results) {
  std::uint64_t h = fnv1a(kFnvSeed, results.size());
  for (const SimResult& r : results) h = hash_sim(h, r);
  return h;
}

// ---- The pre-optimization per-event engine, restated longhand ---------------

/// The old cache representation: per-set ways in recency order, linear probe,
/// prefix rotation on hit.
class RotateCache {
 public:
  explicit RotateCache(const CacheGeometry& geom)
      : set_mask_(geom.sets() - 1),
        assoc_(geom.associativity),
        ways_(geom.sets() * geom.associativity, ~std::uint64_t{0}) {}

  bool access(std::uint64_t line) {
    std::uint64_t* base = &ways_[(line & set_mask_) * assoc_];
    for (std::uint32_t i = 0; i < assoc_; ++i) {
      if (base[i] == line) {
        for (std::uint32_t j = i; j > 0; --j) base[j] = base[j - 1];
        base[0] = line;
        return true;
      }
    }
    for (std::uint32_t j = assoc_ - 1; j > 0; --j) base[j] = base[j - 1];
    base[0] = line;
    return false;
  }

 private:
  std::uint64_t set_mask_;
  std::uint32_t assoc_;
  std::vector<std::uint64_t> ways_;
};

struct RefParty {
  const Module* module;
  const CodeLayout* layout;
  const Trace* trace;
  double speed = 1.0;
};

/// Per-event co-run stream: flat symbols, three indexed lookups per event.
class RefStream {
 public:
  RefStream(const RefParty& party, std::uint64_t line_namespace,
            const SimOptions& options, std::uint64_t rng_stream)
      : module_(party.module),
        layout_(party.layout),
        symbols_(party.trace->symbols()),
        namespace_(line_namespace),
        options_(options),
        rng_(Rng(options.seed).fork(rng_stream)) {}

  bool step(RotateCache& cache) {
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
      if (!cache.access(line)) {
        ++stats_.demand_misses;
        debt_ += options_.miss_stall_blocks;
        if (options_.next_line_prefetch) cache.access(line + 1);
      }
    }
    if (options_.wrong_path_rate > 0.0 && bb.successors.size() > 1 &&
        rng_.chance(options_.wrong_path_rate)) {
      const std::uint64_t line = namespace_ + span.first_line + span.line_count;
      if (!cache.access(line)) ++stats_.wrong_path_misses;
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

std::vector<SimResult> reference_corun(const std::vector<RefParty>& parties,
                                       const SimOptions& options) {
  RotateCache cache(options.geometry());
  std::vector<RefStream> streams;
  streams.reserve(parties.size());
  std::vector<double> credit(parties.size(), 0.0);
  for (std::size_t i = 0; i < parties.size(); ++i) {
    streams.emplace_back(parties[i], static_cast<std::uint64_t>(i) << 40,
                         options, /*rng_stream=*/i + 1);
  }
  for (;;) {
    const bool done = streams[0].step(cache);
    for (std::size_t i = 1; i < parties.size(); ++i) {
      credit[i] += parties[i].speed;
      while (credit[i] >= 1.0) {
        streams[i].step(cache);
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

// ---- Measurement ------------------------------------------------------------

/// Times `fn`, repeating until at least ~50 ms of work, and returns events/s.
template <typename Fn>
double measure_events_per_sec(std::uint64_t events, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  double elapsed = 0.0;
  std::uint64_t iterations = 0;
  do {
    const auto start = clock::now();
    fn();
    elapsed += std::chrono::duration<double>(clock::now() - start).count();
    ++iterations;
  } while (elapsed < 0.05 && iterations < 1000);
  return static_cast<double>(events) * static_cast<double>(iterations) /
         elapsed;
}

struct SweepPoint {
  unsigned threads = 1;
  double events_per_sec = 0.0;
  std::uint64_t checksum = 0;
};

struct KernelReport {
  const char* name;
  double events_per_sec = 0.0;
  double baseline_events_per_sec = 0.0;  ///< 0 when no reference was timed
  std::uint64_t checksum = 0;
  std::uint64_t baseline_checksum = 0;
  std::vector<SweepPoint> sweep{};
};

struct PreparedWorkloadBench {
  std::string name;
  Module module;
  CodeLayout layout;
  Trace trace;
  std::unique_ptr<FetchPlan> sim_plan;  ///< both flavours share line size

  explicit PreparedWorkloadBench(const WorkloadSpec& spec,
                                 std::uint64_t max_events)
      : name(spec.name),
        module(build_workload(spec)),
        layout(original_layout(module)),
        trace(profile(module, /*seed=*/101,
                      {.max_events = std::min(max_events, spec.profile_events),
                       .max_call_depth = 64})
                  .block_trace) {
    sim_plan = std::make_unique<FetchPlan>(module, layout, kL1I.line_bytes);
  }

  [[nodiscard]] RefParty ref_party(double speed = 1.0) const {
    return RefParty{&module, &layout, &trace, speed};
  }
  [[nodiscard]] CorunSpec::Party planned_party(double speed = 1.0) const {
    return CorunSpec::Party{sim_plan.get(), &trace, speed};
  }
  /// A fetch plan for a sweep geometry's line size (the default plan is
  /// only valid for 64B lines). Built outside the timed regions.
  [[nodiscard]] std::unique_ptr<FetchPlan> plan_for(
      std::uint32_t line_bytes) const {
    return std::make_unique<FetchPlan>(module, layout, line_bytes);
  }
};

/// One cache hierarchy of the --sweep-geometry axis.
struct GeometryPoint {
  std::string geometry;  ///< HierarchySpec::to_string() form
  double events_per_sec = 0.0;
  std::uint64_t checksum = 0;  ///< FNV over the co-run cell results
  double self_amat = 0.0;
  double peer_amat = 0.0;
};

struct PairReport {
  std::string self;
  std::string peer;
  std::uint64_t events = 0;  ///< blocks executed per two-way simulation
  std::vector<KernelReport> kernels;
  std::vector<GeometryPoint> geometry_sweep;
};

bool g_checksums_ok = true;
bool g_geometry_sweep_ok = true;

std::uint64_t total_blocks(const std::vector<SimResult>& results) {
  std::uint64_t blocks = 0;
  for (const SimResult& r : results) blocks += r.blocks;
  return blocks;
}

/// Measures production vs per-event reference for one party mix under one
/// flavour, verifying bit-identity of the outputs.
KernelReport measure_corun_kernel(const char* name, const CorunSpec& spec,
                                  const std::vector<RefParty>& ref_parties) {
  KernelReport report{.name = name};
  const std::vector<SimResult> produced = simulate_corun(spec);
  const std::uint64_t events = total_blocks(produced);
  report.checksum = hash_results(produced);
  report.events_per_sec = measure_events_per_sec(events, [&] {
    const auto r = simulate_corun(spec);
    if (hash_results(r) != report.checksum) g_checksums_ok = false;
  });
  report.baseline_checksum =
      hash_results(reference_corun(ref_parties, spec.options));
  report.baseline_events_per_sec = measure_events_per_sec(events, [&] {
    const auto r = reference_corun(ref_parties, spec.options);
    if (hash_results(r) != report.baseline_checksum) g_checksums_ok = false;
  });
  if (report.checksum != report.baseline_checksum) {
    std::fprintf(stderr,
                 "FATAL: %s: production and per-event reference disagree "
                 "(0x%016llx vs 0x%016llx)\n",
                 name, static_cast<unsigned long long>(report.checksum),
                 static_cast<unsigned long long>(report.baseline_checksum));
    g_checksums_ok = false;
  }
  return report;
}

/// Fans independent co-run cells over a pool at each sweep width; the cell
/// results are hashed in cell order, so the combined checksum must be equal
/// at every width.
KernelReport measure_cell_sweep(const PreparedWorkloadBench& a,
                                const PreparedWorkloadBench& b,
                                const std::vector<unsigned>& thread_counts) {
  std::vector<CorunSpec> cells;
  for (const bool hw : {false, true}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      SimOptions options = hw ? hardware_proxy_options(seed) : SimOptions{};
      options.seed = seed;
      cells.push_back(
          CorunSpec{{a.planned_party(), b.planned_party(1.3)}, options});
      cells.push_back(
          CorunSpec{{b.planned_party(), a.planned_party(0.7)}, options});
    }
  }

  std::uint64_t events = 0;
  for (const CorunSpec& cell : cells) {
    events += total_blocks(simulate_corun(cell));
  }

  const auto run_cells = [&](ThreadPool* pool, unsigned threads) {
    std::vector<std::uint64_t> sums(cells.size(), 0);
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
        sums[i] = hash_results(simulate_corun(cells[i]));
      }
    };
    if (pool == nullptr) {
      worker();
    } else {
      std::vector<std::future<void>> helpers;
      for (unsigned t = 0; t + 1 < threads; ++t) {
        helpers.push_back(pool->submit(worker));
      }
      worker();  // the calling thread participates
      for (auto& h : helpers) h.get();
    }
    std::uint64_t h = fnv1a(kFnvSeed, sums.size());
    for (const std::uint64_t s : sums) h = fnv1a(h, s);
    return h;
  };

  KernelReport report{.name = "corun_cells"};
  for (const unsigned threads : thread_counts) {
    const std::unique_ptr<ThreadPool> pool =
        threads > 1 ? std::make_unique<ThreadPool>(threads - 1) : nullptr;
    SweepPoint point{.threads = threads};
    point.events_per_sec = measure_events_per_sec(
        events, [&] { point.checksum = run_cells(pool.get(), threads); });
    report.sweep.push_back(point);
  }
  report.baseline_events_per_sec = report.sweep.front().events_per_sec;
  report.events_per_sec = report.sweep.back().events_per_sec;
  report.checksum = report.sweep.front().checksum;
  for (const SweepPoint& p : report.sweep) {
    if (p.checksum != report.checksum) {
      std::fprintf(stderr,
                   "FATAL: corun_cells checksum diverges at %u threads\n",
                   p.threads);
      g_checksums_ok = false;
    }
  }
  return report;
}

/// Re-runs the pair's co-run cell set under each hierarchy of the geometry
/// sweep. Per geometry: events/s and the combined FNV checksum of the cell
/// results, plus each party's AMAT under that hierarchy. The same cells are
/// then fanned over `cross_check_threads` workers; a serial/parallel
/// checksum mismatch is fatal (geometry must not interact with scheduling).
std::vector<GeometryPoint> measure_geometry_sweep(
    const PreparedWorkloadBench& a, const PreparedWorkloadBench& b,
    const std::vector<HierarchySpec>& hierarchies,
    unsigned cross_check_threads) {
  std::vector<GeometryPoint> points;
  for (const HierarchySpec& hierarchy : hierarchies) {
    const std::unique_ptr<FetchPlan> plan_a =
        a.plan_for(hierarchy.l1.line_bytes);
    const std::unique_ptr<FetchPlan> plan_b =
        b.plan_for(hierarchy.l1.line_bytes);
    std::vector<CorunSpec> cells;
    for (const bool hw : {false, true}) {
      for (const std::uint64_t seed : {1ull, 2ull}) {
        SimOptions options = hw ? hardware_proxy_options(seed) : SimOptions{};
        options.seed = seed;
        options.hierarchy = hierarchy;
        cells.push_back(
            CorunSpec{{CorunSpec::Party{plan_a.get(), &a.trace, 1.0},
                       CorunSpec::Party{plan_b.get(), &b.trace, 1.3}},
                      options});
      }
    }

    const auto run_cells = [&](ThreadPool* pool) {
      std::vector<std::uint64_t> sums(cells.size(), 0);
      std::atomic<std::size_t> next{0};
      const auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
          sums[i] = hash_results(simulate_corun(cells[i]));
        }
      };
      if (pool == nullptr) {
        worker();
      } else {
        std::vector<std::future<void>> helpers;
        for (unsigned t = 0; t + 1 < cross_check_threads; ++t) {
          helpers.push_back(pool->submit(worker));
        }
        worker();
        for (auto& h : helpers) h.get();
      }
      std::uint64_t h = fnv1a(kFnvSeed, sums.size());
      for (const std::uint64_t s : sums) h = fnv1a(h, s);
      return h;
    };

    GeometryPoint point{.geometry = hierarchy.to_string()};
    const std::vector<SimResult> produced = simulate_corun(cells.front());
    point.self_amat = amat(produced[0], hierarchy);
    point.peer_amat = amat(produced[1], hierarchy);
    std::uint64_t events = 0;
    for (const CorunSpec& cell : cells) {
      events += total_blocks(simulate_corun(cell));
    }
    point.events_per_sec = measure_events_per_sec(
        events, [&] { point.checksum = run_cells(nullptr); });

    if (cross_check_threads > 1) {
      ThreadPool pool(cross_check_threads - 1);
      const std::uint64_t parallel = run_cells(&pool);
      if (parallel != point.checksum) {
        std::fprintf(stderr,
                     "FATAL: %s vs %s: geometry %s checksum diverges between "
                     "1 and %u threads (0x%016llx vs 0x%016llx)\n",
                     a.name.c_str(), b.name.c_str(), point.geometry.c_str(),
                     cross_check_threads,
                     static_cast<unsigned long long>(point.checksum),
                     static_cast<unsigned long long>(parallel));
        g_geometry_sweep_ok = false;
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

PairReport measure_pair(const PreparedWorkloadBench& a,
                        const PreparedWorkloadBench& b,
                        const std::vector<unsigned>& sweep_threads,
                        const std::vector<HierarchySpec>& sweep_geometries) {
  PairReport report{.self = a.name,
                    .peer = b.name,
                    .events = 0,
                    .kernels = {},
                    .geometry_sweep = {}};

  const CorunSpec pair_sim{{a.planned_party(), b.planned_party(1.3)},
                           SimOptions{}};
  const CorunSpec pair_hw{{a.planned_party(), b.planned_party(1.3)},
                          hardware_proxy_options()};
  const std::vector<RefParty> ref_pair = {a.ref_party(), b.ref_party(1.3)};
  report.events = total_blocks(simulate_corun(pair_sim));

  report.kernels.push_back(
      measure_corun_kernel("corun_sim", pair_sim, ref_pair));
  report.kernels.push_back(measure_corun_kernel("corun_hw", pair_hw, ref_pair));

  const CorunSpec four{{a.planned_party(), b.planned_party(1.3),
                        a.planned_party(0.5), b.planned_party(1.7)},
                       hardware_proxy_options()};
  const std::vector<RefParty> ref_four = {a.ref_party(), b.ref_party(1.3),
                                          a.ref_party(0.5), b.ref_party(1.7)};
  report.kernels.push_back(
      measure_corun_kernel("corun_many4_hw", four, ref_four));

  report.kernels.push_back(measure_cell_sweep(a, b, sweep_threads));
  if (!sweep_geometries.empty()) {
    report.geometry_sweep =
        measure_geometry_sweep(a, b, sweep_geometries, sweep_threads.back());
  }
  return report;
}

// ---- Reporting --------------------------------------------------------------

void append_format(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

std::string json_report(const std::vector<PairReport>& pairs) {
  // host_cores gates cross-machine throughput comparison downstream
  // (tools/bench_compare.py); checksums stay exact everywhere.
  std::string out;
  append_format(out,
                "{\"bench\": \"corun_perf\", \"host_cores\": %u,"
                " \"pairs\": [\n",
                std::thread::hardware_concurrency());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const PairReport& r = pairs[p];
    append_format(out,
                  "%s  {\"self\": \"%s\", \"peer\": \"%s\", \"events\": %llu,"
                  " \"kernels\": [",
                  p ? ",\n" : "", r.self.c_str(), r.peer.c_str(),
                  static_cast<unsigned long long>(r.events));
    for (std::size_t i = 0; i < r.kernels.size(); ++i) {
      const KernelReport& k = r.kernels[i];
      append_format(out, "%s{\"name\": \"%s\", \"events_per_sec\": %.0f",
                    i ? ", " : "", k.name, k.events_per_sec);
      if (k.baseline_events_per_sec > 0.0) {
        append_format(out,
                      ", \"baseline_events_per_sec\": %.0f, \"speedup\": %.2f",
                      k.baseline_events_per_sec,
                      k.events_per_sec / k.baseline_events_per_sec);
      }
      // Checksums as hex strings: 64-bit values do not survive the
      // double-precision number path of most JSON consumers.
      append_format(out, ", \"checksum\": \"0x%016llx\"",
                    static_cast<unsigned long long>(k.checksum));
      if (k.sweep.empty()) {
        append_format(out, ", \"baseline_checksum\": \"0x%016llx\"",
                      static_cast<unsigned long long>(k.baseline_checksum));
      } else {
        append_format(out, ", \"sweep\": [");
        for (std::size_t j = 0; j < k.sweep.size(); ++j) {
          const SweepPoint& point = k.sweep[j];
          append_format(out,
                        "%s{\"threads\": %u, \"events_per_sec\": %.0f,"
                        " \"checksum\": \"0x%016llx\"}",
                        j ? ", " : "", point.threads, point.events_per_sec,
                        static_cast<unsigned long long>(point.checksum));
        }
        append_format(out, "]");
      }
      append_format(out, "}");
    }
    append_format(out, "]");
    if (!r.geometry_sweep.empty()) {
      append_format(out, ", \"geometry_sweep\": [");
      for (std::size_t i = 0; i < r.geometry_sweep.size(); ++i) {
        const GeometryPoint& g = r.geometry_sweep[i];
        append_format(out,
                      "%s{\"geometry\": \"%s\", \"events_per_sec\": %.0f,"
                      " \"checksum\": \"0x%016llx\", \"self_amat\": %.4f,"
                      " \"peer_amat\": %.4f}",
                      i ? ", " : "", g.geometry.c_str(), g.events_per_sec,
                      static_cast<unsigned long long>(g.checksum),
                      g.self_amat, g.peer_amat);
      }
      append_format(out, "]");
    }
    append_format(out, "}");
  }
  out += "\n]}\n";
  return out;
}

void print_text(const PairReport& r) {
  std::printf("%s vs %s  (%llu blocks/sim)\n", r.self.c_str(),
              r.peer.c_str(), static_cast<unsigned long long>(r.events));
  for (const KernelReport& k : r.kernels) {
    std::printf("    %-14s %12.0f events/s", k.name, k.events_per_sec);
    if (k.baseline_events_per_sec > 0.0) {
      std::printf(k.sweep.empty()
                      ? "   (per-event %12.0f, speedup %5.2fx)"
                      : "   (1-thread  %12.0f, scaling %5.2fx)",
                  k.baseline_events_per_sec,
                  k.events_per_sec / k.baseline_events_per_sec);
    }
    std::printf("\n");
    for (const SweepPoint& p : k.sweep) {
      std::printf("        %2u thread%s %12.0f events/s  checksum "
                  "0x%016llx\n",
                  p.threads, p.threads == 1 ? " " : "s", p.events_per_sec,
                  static_cast<unsigned long long>(p.checksum));
    }
  }
  for (const GeometryPoint& g : r.geometry_sweep) {
    std::printf("    geometry %-28s %12.0f events/s  checksum 0x%016llx"
                "  amat %.3f / %.3f\n",
                g.geometry.c_str(), g.events_per_sec,
                static_cast<unsigned long long>(g.checksum), g.self_amat,
                g.peer_amat);
  }
}

// ---- CLI --------------------------------------------------------------------

std::vector<WorkloadSpec> parse_workloads(const std::string& list) {
  std::vector<WorkloadSpec> specs;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string name = list.substr(start, comma - start);
    if (!name.empty()) specs.push_back(find_spec(name));
    start = comma + 1;
  }
  return specs;
}

std::vector<unsigned> parse_thread_counts(const std::string& list) {
  std::vector<unsigned> counts;
  const char* cursor = list.c_str();
  while (*cursor != '\0') {
    char* end = nullptr;
    const unsigned long value = std::strtoul(cursor, &end, 10);
    if (end == cursor || value == 0 ||
        (!counts.empty() && value <= counts.back())) {
      std::fprintf(stderr,
                   "--sweep-threads wants a strictly ascending list of "
                   "positive counts, got \"%s\"\n",
                   list.c_str());
      std::exit(2);
    }
    counts.push_back(static_cast<unsigned>(value));
    cursor = *end == ',' ? end + 1 : end;
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

std::vector<HierarchySpec> parse_geometry_list(const std::string& list) {
  std::vector<HierarchySpec> specs;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string text = list.substr(start, comma - start);
    if (!text.empty()) specs.push_back(parse_hierarchy(text));
    start = comma + 1;
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string workload =
      "470.lbm,403.gcc,429.mcf,458.sjeng,403.gcc,416.gamess";
  std::string sweep = "1";
  std::uint64_t max_events = ~std::uint64_t{0};
  CliOptions cli(argv[0],
                 "co-run engine throughput vs the per-event reference");
  cli.flag("--json", &json, "emit the machine-readable report");
  cli.option("--workload", &workload, "A,B,...",
             "consecutive entries form (self, peer) pairs");
  cli.option_u64("--events", &max_events, 1, ~std::uint64_t{0}, "N",
                 "truncate each trace to N events");
  std::string sweep_geometry;
  cli.option("--sweep-threads", &sweep, "1,2,8",
             "fan independent co-run cells out at each width");
  cli.option("--sweep-geometry", &sweep_geometry, "G1,G2,...",
             "re-run each pair under these cache hierarchies "
             "(SIZE/ASSOC/LINE[+l2=SIZE/ASSOC/LINE])");
  cli.parse_or_exit(argc, argv);
  const std::vector<unsigned> thread_counts = parse_thread_counts(sweep);
  const std::vector<HierarchySpec> sweep_geometries =
      parse_geometry_list(sweep_geometry);
  const std::vector<WorkloadSpec> specs = parse_workloads(workload);
  if (specs.size() < 2) {
    std::fprintf(stderr, "--workload needs at least two entries\n");
    return 2;
  }
  if (specs.size() % 2 != 0) {
    std::fprintf(stderr, "odd workload list: the last entry is ignored\n");
  }

  std::vector<PairReport> pairs;
  for (std::size_t i = 0; i + 1 < specs.size(); i += 2) {
    const PreparedWorkloadBench a(specs[i], max_events);
    const PreparedWorkloadBench b(specs[i + 1], max_events);
    pairs.push_back(measure_pair(a, b, thread_counts, sweep_geometries));
    if (!json) print_text(pairs.back());
  }

  if (json) {
    const std::string out = json_report(pairs);
    codelayout::testing::JsonLinter linter(out);
    if (!linter.valid()) {
      std::fprintf(stderr, "FATAL: generated JSON failed the linter: %s\n",
                   linter.error().c_str());
      return 3;
    }
    std::fputs(out.c_str(), stdout);
  }
  if (!g_checksums_ok) return 4;
  return g_geometry_sweep_ok ? 0 : 5;
}
