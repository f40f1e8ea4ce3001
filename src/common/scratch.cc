#include "common/scratch.h"

#include "common/telemetry.h"

namespace tnmine::common {

namespace {

// The registry's scratch/* counters, added to directly rather than
// through TNMINE_COUNTER_ADD: the allocation-freedom contract is asserted
// by tests that must run in every configuration, telemetry-off builds
// included.
struct ScratchCounters {
  telemetry::Counter& acquires;
  telemetry::Counter& reuse_hits;
  telemetry::Counter& fresh_allocs;
};

const ScratchCounters& Counters() {
  static const ScratchCounters counters{
      telemetry::Registry::Global().GetCounter("scratch/acquires"),
      telemetry::Registry::Global().GetCounter("scratch/reuse_hits"),
      telemetry::Registry::Global().GetCounter("scratch/fresh_allocs")};
  return counters;
}

}  // namespace

namespace internal {

void NoteScratchAcquire(bool fresh) {
  const ScratchCounters& counters = Counters();
  counters.acquires.Add(1);
  (fresh ? counters.fresh_allocs : counters.reuse_hits).Add(1);
}

}  // namespace internal

ScratchStats GetScratchStats() {
  const ScratchCounters& counters = Counters();
  return {counters.acquires.Value(), counters.reuse_hits.Value(),
          counters.fresh_allocs.Value()};
}

}  // namespace tnmine::common
