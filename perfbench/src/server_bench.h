#ifndef TNMINE_PERFBENCH_SERVER_BENCH_H_
#define TNMINE_PERFBENCH_SERVER_BENCH_H_

#include "report.h"

namespace perfbench {

/// Runs the server workload: an in-process tnmined Server on a unix
/// socket over the small-scale snapshot, driven for `options.seconds` by
/// closed-loop clients that follow ScheduleGenerator. Every mining
/// response is then checked against the direct library result for its
/// params, and the server's cache counters against the schedule.
void RunServer(const Options& options, Report* report);

}  // namespace perfbench

#endif  // TNMINE_PERFBENCH_SERVER_BENCH_H_
