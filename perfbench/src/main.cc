// tnbench — the tnmine benchmark. Runs one named workload through the
// library's public entry points, checks every output, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1) as one JSON object on the last line of stdout. run.py
// builds this binary and passes it the run length and the metrics of the
// mode, both from BENCHMARK.json.
//
//   tnbench --workload structural|temporal|subdue|gspan|server
//           --seconds S --metrics name:unit,... [--seed N] [--trace 0|1]
//           [--work-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "batch.h"
#include "report.h"
#include "server_bench.h"

namespace {

/// Default workload seeds: the paper-scale generator seed of the ROADMAP
/// baseline, and the small-scale snapshot seed of bench_server_throughput.
constexpr std::uint64_t kBatchSeed = 2005;
constexpr std::uint64_t kServerSeed = 7;

int Usage(const char* why) {
  std::fprintf(stderr,
               "tnbench: %s\nusage: tnbench --workload "
               "structural|temporal|subdue|gspan|server --seconds S "
               "--metrics name:unit,... [--seed N] [--trace 0|1] "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
      seed_given = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--metrics") {
      if (!perfbench::ParseMetricSpecs(value, &options.metrics)) {
        return Usage("bad --metrics");
      }
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool server = options.workload == "server";
  if (!server && !perfbench::IsBatchWorkload(options.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!(options.seconds > 0)) return Usage("missing --seconds");
  if (options.metrics.empty()) return Usage("missing --metrics");
  if (!seed_given) options.seed = server ? kServerSeed : kBatchSeed;

  perfbench::Report report(options.trace, options.metrics);
  try {
    if (server) {
      perfbench::RunServer(options, &report);
    } else {
      perfbench::RunBatch(options, &report);
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("uncaught exception: ") + e.what());
  }
  return report.Finish();
}
