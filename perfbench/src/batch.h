#ifndef TNMINE_PERFBENCH_BATCH_H_
#define TNMINE_PERFBENCH_BATCH_H_

#include <string>

#include "report.h"

namespace perfbench {

/// True for the batch workloads: structural, temporal, subdue, gspan.
bool IsBatchWorkload(const std::string& name);

/// Runs one batch workload: set-up (repeated, median reported), a
/// seed-independent reference run, then jobs until `options.seconds`
/// have passed, each checked against the reference and the first job.
/// With `options.trace`, every second job is traced: a span around the
/// library call, the registry's counter and span deltas over it, and
/// direct calls into the layers beneath it.
void RunBatch(const Options& options, Report* report);

}  // namespace perfbench

#endif  // TNMINE_PERFBENCH_BATCH_H_
