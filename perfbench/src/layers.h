#ifndef TNMINE_PERFBENCH_LAYERS_H_
#define TNMINE_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/telemetry.h"
#include "report.h"

namespace perfbench {

/// Counter and span-time deltas of telemetry::Registry, summed over one
/// or more measured windows (a traced job's library call, or the server
/// workload's whole window).
class RegistryDeltas {
 public:
  void Add(const tnmine::telemetry::MetricsSnapshot& before,
           const tnmine::telemetry::MetricsSnapshot& after);

  std::uint64_t counter(const std::string& name) const;
  double span_seconds(const std::string& name) const;

  /// Time inside the library's innermost layer spans (the spans under
  /// which the library records no further span on the calling thread),
  /// plus FSG level 1. Time a job spends outside all of them is
  /// unattributed.
  double leaf_seconds() const;

  /// FSG level 1: span fsg/mine minus the fsg/level spans inside it.
  double level1_seconds() const;

  /// Time inside the core drivers (core/structural_mine,
  /// core/temporal_mine) outside the partition and miner spans they
  /// enclose, measured in the same calls.
  double driver_seconds() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> span_nanos_;
};

/// Sets the per-layer metrics read from the registry: the fsg level-1,
/// fsg count-phase, subdue and core-driver shares of `job_seconds`, plus
/// the work counts (divided by `jobs`) and the useful-per-attempt
/// ratios.
void SetRegistryLayers(const RegistryDeltas& deltas, double job_seconds,
                       double jobs, Report* report);

/// `part / whole`, or 0 when `whole` is 0.
double Share(double part, double whole);

}  // namespace perfbench

#endif  // TNMINE_PERFBENCH_LAYERS_H_
