#include "layers.h"

namespace perfbench {

namespace {

// The library's innermost spans. fsg/mine, fsg/level and core/* contain
// other spans, so only their own (self) time can be unattributed; FSG
// level 1, the self time of fsg/mine, is a reported layer and is added in
// leaf_seconds(). gspan/mine counts as a leaf because its per-seed spans
// run on pool lanes, where their sum exceeds the wall time they cover.
constexpr const char* kLeafSpans[] = {
    "partition/split_graph", "partition/by_active_day", "fsg/generate",
    "fsg/count_phase",       "gspan/mine",              "subdue/discover",
};

}  // namespace

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void RegistryDeltas::Add(const tnmine::telemetry::MetricsSnapshot& before,
                         const tnmine::telemetry::MetricsSnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    counters_[name] += value - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, row] : after.spans) {
    const auto it = before.spans.find(name);
    span_nanos_[name] +=
        row.total_nanos -
        (it == before.spans.end() ? 0 : it->second.total_nanos);
  }
}

std::uint64_t RegistryDeltas::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double RegistryDeltas::span_seconds(const std::string& name) const {
  const auto it = span_nanos_.find(name);
  return it == span_nanos_.end() ? 0.0 : it->second * 1e-9;
}

double RegistryDeltas::leaf_seconds() const {
  double total = level1_seconds();
  for (const char* name : kLeafSpans) total += span_seconds(name);
  return total;
}

double RegistryDeltas::level1_seconds() const {
  return span_seconds("fsg/mine") - span_seconds("fsg/level");
}

double RegistryDeltas::driver_seconds() const {
  return span_seconds("core/structural_mine") +
         span_seconds("core/temporal_mine") -
         span_seconds("partition/split_graph") -
         span_seconds("partition/by_active_day") - span_seconds("fsg/mine") -
         span_seconds("gspan/mine");
}

void SetRegistryLayers(const RegistryDeltas& d, double job_seconds,
                       double jobs, Report* report) {
  const auto per_job = [&](const char* counter) {
    return jobs > 0.0 ? static_cast<double>(d.counter(counter)) / jobs : 0.0;
  };
  const auto ratio = [&](const char* num, std::uint64_t den) {
    return Share(static_cast<double>(d.counter(num)),
                 static_cast<double>(den));
  };
  report->Set("fsg.level1_frac", Share(d.level1_seconds(), job_seconds));
  report->Set("fsg.count_frac",
              Share(d.span_seconds("fsg/count_phase"), job_seconds));
  report->Set("subdue.discover_frac",
              Share(d.span_seconds("subdue/discover"), job_seconds));
  report->Set("core.driver_frac", Share(d.driver_seconds(), job_seconds));
  report->Set("fsg.support_checks", per_job("fsg/support_checks"));
  report->Set("fsg.candidates_generated", per_job("fsg/candidates_generated"));
  report->Set("fsg.frequent_per_candidate",
              ratio("fsg/patterns_frequent",
                    d.counter("fsg/candidates_generated")));
  report->Set("gspan.embeddings_materialized",
              per_job("gspan/embeddings_materialized"));
  report->Set("gspan.codes_generated", per_job("gspan/codes_generated"));
  report->Set("gspan.patterns_per_code",
              ratio("gspan/patterns_emitted", d.counter("gspan/codes_generated")));
  report->Set("iso.codes_computed", per_job("iso/codes_computed"));
  report->Set("iso.cache_hit_ratio",
              ratio("iso/cache_hits",
                    d.counter("iso/cache_hits") + d.counter("iso/cache_misses")));
  report->Set("pattern.tidset_intersect_words",
              per_job("tidset/intersect_words"));
  report->Set("pattern.tidset_gallop_steps", per_job("tidset/gallop_steps"));
  report->Set("subdue.instances_grown", per_job("subdue/instances_grown"));
  report->Set("subdue.codes_per_evaluated",
              ratio("iso/codes_computed",
                    d.counter("subdue/substructures_evaluated")));
  report->Set("graph.views_built", per_job("graphview/views_built"));
}

}  // namespace perfbench
