// perfbench: the repository's benchmark binary.
//
//   perfbench --workload paper|layout|service --seed N --seconds S
//             --trace 0|1 [--threads T] [--out DIR]
//
// Runs one workload against the library's public API and prints, as its
// last stdout line, one JSON object: the correctness verdict, attempted and
// failed counts, the FNV hash of the workload's outputs, the metrics (the
// end-to-end set untraced, the per-layer set traced) and the run's
// provenance. Every workload sets every per-layer metric, 0 for the layers
// it never calls. perfbench/run.py builds this binary, checks the hash against
// the recorded one and reduces the line to the benchmark's result format.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

unsigned available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper|layout|"
               "service --seed N --seconds S --trace 0|1 [--threads T] "
               "[--out DIR]\n",
               why);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--threads") {
        options.threads = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--out") {
        options.out_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  const unsigned cores = available_cores();
  if (options.threads == 0) options.threads = cores;

  Result result;
  try {
    if (options.workload == "paper") {
      result = run_paper(options);
    } else if (options.workload == "layout") {
      result = run_layout(options);
    } else if (options.workload == "service") {
      result = run_service(options);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // Written by hand rather than with JsonWriter, which rounds doubles to six
  // digits: metric values carry every digit measured.
  std::string line = "{\"correct\":";
  line += result.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"output_hash\":\"" + hex64(result.output_hash) + "\"";
  line += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    line += (first ? "" : ",") + json_string(name) + ":" + buf;
    first = false;
  }
  line += "},\"problems\":[";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    line += (i ? "," : "") + json_string(result.problems[i]);
  }
  line += "],\"provenance\":{";
  line += "\"host_cores\":" + std::to_string(cores);
  line += ",\"threads\":" + std::to_string(options.threads);
  line += ",\"seed\":" + std::to_string(options.seed);
  line += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : result.notes) {
    line += "," + json_string(key) + ":" + json_string(value);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
