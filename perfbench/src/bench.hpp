// Shared plumbing of the perfbench binary: clocks, output hashing, order
// statistics, the per-layer ledger of the traced run, and the result record
// each workload fills in.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double wall_now();
/// CPU time of the whole process (every thread), seconds.
double process_cpu_now();

/// Peak resident set of one round. Freed heap is handed back to the kernel
/// first (malloc_trim), so a round is not charged for what an earlier round
/// left cached in the allocator; then a background thread samples the
/// resident set every few milliseconds until stop().
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling (idempotent) and returns the highest sample, MiB.
  double stop();

 private:
  std::atomic<bool> done_{false};
  std::uint64_t max_pages_ = 0;  ///< written by thread_ only until joined
  std::thread thread_;
};

/// FNV-1a over 64-bit words; doubles hash by their bit pattern, strings by
/// length then bytes. Order-sensitive by design: every workload feeds its
/// outputs in a fixed reporting order.
class Fnv {
 public:
  Fnv& add(std::uint64_t v);
  Fnv& add(double v);
  Fnv& add(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// a / b, or 0 when b is 0 (a layer the workload never calls).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// SplitMix64: the seeded draw behind every generated input. Fixed
/// arithmetic, so a seed names the same inputs on any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 0;    ///< resolved: >= 1
  std::string out_dir;     ///< Perfetto files of traced runs
};

/// What one workload run reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t output_hash = 0;
  std::vector<std::string> problems;  ///< failed checks, human-readable
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> notes;  ///< extra provenance

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// The traced run's per-layer ledger. Each layer call made from the
/// benchmark's own code is wrapped in a span (recorded into the program's
/// TraceRecorder, so it lands in the same Perfetto file as the program's
/// internal spans) and charged the process CPU it consumed. Calls are made
/// one at a time from the benchmark thread with every dependency already
/// materialized, so a call's process-CPU delta is that layer's self CPU.
class LayerLedger {
 public:
  class Call {
   public:
    Call(LayerLedger& ledger, const char* layer, const char* what);
    ~Call();
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    LayerLedger& ledger_;
    const char* layer_;
    const char* what_;
    std::uint64_t start_ns_;
    double cpu0_;
  };

  [[nodiscard]] double cpu(const std::string& layer) const;
  [[nodiscard]] double wall(const std::string& layer) const;
  /// CPU charged to any layer.
  [[nodiscard]] double total_cpu() const;

 private:
  std::map<std::string, double> cpu_;
  std::map<std::string, double> wall_;
};

std::string hex64(std::uint64_t v);

}  // namespace perfbench
