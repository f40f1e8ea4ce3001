#ifndef TNMINE_PERFBENCH_REPORT_H_
#define TNMINE_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Parses "name:unit,name:unit,...", the form in which run.py passes
/// BENCHMARK.json's metrics. Returns false on an empty list or an entry
/// without a name or unit.
bool ParseMetricSpecs(const std::string& text, std::vector<MetricSpec>* specs);

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;  ///< workload seed
  double seconds = 0.0;    ///< measurement window
  bool trace = false;      ///< per-layer (traced) run instead of end-to-end
  /// The metrics to report: BENCHMARK.json's end-to-end metrics, or its
  /// per-layer metrics in a traced run.
  std::vector<MetricSpec> metrics;
  /// Directory for the traced run's span file and the server workload's
  /// socket and snapshot; relative paths keep the socket path short.
  std::string work_dir = ".";
};

/// Collects one run's checks and metrics and prints them.
class Report {
 public:
  Report(bool trace, std::vector<MetricSpec> metrics);

  /// Records one of the declared metrics.
  void Set(const std::string& name, double value);
  /// Counts one attempted operation (a job or a request).
  void Operation(bool ok);
  /// A failed output check: the run is incorrect and exits non-zero.
  void Fail(const std::string& what);
  /// A human-readable line on stdout, ahead of the final JSON line.
  void Line(const char* format, ...) __attribute__((format(printf, 2, 3)));

  /// Prints the failure share and the final JSON line; returns the exit
  /// code (0 only when every check passed). An end-to-end metric the run
  /// did not set fails the run; a per-layer metric it did not set is a
  /// layer the workload does not call, and reads 0.
  int Finish();

 private:
  bool trace_;
  std::vector<MetricSpec> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> values_;  ///< the metrics set so far
};

}  // namespace perfbench

#endif  // TNMINE_PERFBENCH_REPORT_H_
