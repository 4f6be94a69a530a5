#include "bench.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "support/metrics.hpp"
#include "support/trace_recorder.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::uint64_t resident_pages() {
  std::uint64_t size = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%" SCNu64 " %" SCNu64, &size, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return resident;
}

}  // namespace

RssSampler::RssSampler() {
  malloc_trim(0);
  thread_ = std::thread([this] {
    while (!done_.load(std::memory_order_relaxed)) {
      max_pages_ = std::max(max_pages_, resident_pages());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    max_pages_ = std::max(max_pages_, resident_pages());
  });
}

RssSampler::~RssSampler() { stop(); }

double RssSampler::stop() {
  done_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return static_cast<double>(max_pages_) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

Fnv& Fnv::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
  return *this;
}

Fnv& Fnv::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

Fnv& Fnv::add(std::string_view s) {
  add(std::uint64_t{s.size()});
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  return *this;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

LayerLedger::Call::Call(LayerLedger& ledger, const char* layer,
                        const char* what)
    : ledger_(ledger),
      layer_(layer),
      what_(what),
      start_ns_(codelayout::wall_nanos_now()),
      cpu0_(process_cpu_now()) {}

LayerLedger::Call::~Call() {
  const double cpu = process_cpu_now() - cpu0_;
  const std::uint64_t wall_ns = codelayout::wall_nanos_now() - start_ns_;
  ledger_.cpu_[layer_] += cpu;
  ledger_.wall_[layer_] += static_cast<double>(wall_ns) * 1e-9;
  auto& recorder = codelayout::TraceRecorder::instance();
  if (recorder.enabled()) {
    recorder.record_span(layer_, "perfbench", start_ns_, wall_ns,
                         {{"call", what_},
                          {"cpu_us", static_cast<std::uint64_t>(cpu * 1e6)}});
  }
}

double LayerLedger::cpu(const std::string& layer) const {
  const auto it = cpu_.find(layer);
  return it == cpu_.end() ? 0.0 : it->second;
}

double LayerLedger::wall(const std::string& layer) const {
  const auto it = wall_.find(layer);
  return it == wall_.end() ? 0.0 : it->second;
}

double LayerLedger::total_cpu() const {
  double sum = 0.0;
  for (const auto& [layer, cpu] : cpu_) sum += cpu;
  return sum;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
