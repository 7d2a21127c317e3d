// StoryPivot end-to-end benchmark binary.
//
//   storypivot_bench --workload <bulk_detect|doc_churn>
//                    --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--trace-dir DIR] [--bulk-threads 4]
//
// Generates its input from the seed, drives the program only through its
// public API (datagen, persist, serve, search, eval), checks the outputs,
// and prints one JSON object as the last line of stdout: the correctness
// verdict, operation counts, the metrics (end-to-end untraced, per-layer
// traced) and the run metadata. perfbench/run.py builds and calls it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

namespace storypivot::perfbench {
namespace {

#ifndef STORYPIVOT_BENCH_BUILD_TYPE
#define STORYPIVOT_BENCH_BUILD_TYPE "unknown"
#endif

int Usage(const char* problem) {
  std::fprintf(stderr,
               "%s\nusage: storypivot_bench --workload <name> --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-dir DIR] "
               "[--bulk-threads N]\n",
               problem);
  return 2;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g",
                std::isfinite(value) ? value : 0.0);
  return buffer;
}

void PrintResult(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.gate_failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  out += "}, \"meta\": {";
  first = true;
  for (const auto& [key, value] : result.meta) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(key) + ": " + value;
  }
  out += "}, \"gate_failures\": [";
  for (size_t i = 0; i < result.gate_failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(result.gate_failures[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--bulk-threads") {
      options.bulk_threads = std::strtoul(value.c_str(), nullptr, 10);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds ||
      options.work_dir.empty() || options.bulk_threads == 0) {
    return Usage("missing or invalid arguments");
  }
  bool known = false;
  for (const char* name : kWorkloads) known |= options.workload == name;
  if (!known) return Usage(("unknown workload " + options.workload).c_str());

  RunResult result = RunWorkload(options);
  result.Meta("workload", options.workload);
  result.Meta("seed", static_cast<double>(options.seed));
  result.Meta("seconds", options.seconds);
  result.Meta("trace", options.trace ? 1.0 : 0.0);
  result.Meta("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  result.Meta("build_type", STORYPIVOT_BENCH_BUILD_TYPE);
  for (const std::string& failure : result.gate_failures) {
    std::fprintf(stderr, "gate failed: %s\n", failure.c_str());
  }
  PrintResult(result);
  return result.gate_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace storypivot::perfbench

int main(int argc, char** argv) {
  return storypivot::perfbench::Main(argc, argv);
}
