#include "report.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace perfbench {

bool ParseMetricSpecs(const std::string& text,
                      std::vector<MetricSpec>* specs) {
  specs->clear();
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(pos, end - pos);
    const std::size_t colon = entry.find(':');
    if (colon == 0 || colon == std::string::npos || colon + 1 == entry.size()) {
      return false;
    }
    specs->push_back({entry.substr(0, colon), entry.substr(colon + 1)});
    pos = end + 1;
  }
  return !specs->empty();
}

Report::Report(bool trace, std::vector<MetricSpec> metrics)
    : trace_(trace), metrics_(std::move(metrics)) {}

void Report::Set(const std::string& name, double value) {
  bool declared = false;
  for (const MetricSpec& spec : metrics_) declared |= spec.name == name;
  if (!declared) {
    Fail("metric '" + name + "' is not declared for this mode");
    return;
  }
  if (!std::isfinite(value)) {
    Fail("metric '" + name + "' is not a finite number");
    value = 0.0;
  }
  values_[name] = value;
}

void Report::Operation(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void Report::Line(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::putchar('\n');
}

int Report::Finish() {
  if (attempted_ == 0) Fail("no operation was attempted");
  std::string unset;
  for (const MetricSpec& spec : metrics_) {
    if (values_.count(spec.name) != 0) continue;
    if (!trace_) Fail("end-to-end metric '" + spec.name + "' was not measured");
    unset += " " + spec.name;
  }
  if (trace_ && !unset.empty()) {
    Line("layers this workload does not call (reported as 0):%s",
         unset.c_str());
  }
  const bool ok = correct_ && failed_ == 0;
  Line("failed_frac %.6f ratio (%llu of %llu operations failed)",
       attempted_ == 0 ? 0.0
                       : static_cast<double>(failed_) /
                             static_cast<double>(attempted_),
       static_cast<unsigned long long>(failed_),
       static_cast<unsigned long long>(attempted_));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ok ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const MetricSpec& spec : metrics_) {
    const auto it = values_.find(spec.name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", spec.name.c_str(),
                it == values_.end() ? 0.0 : it->second, spec.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace perfbench
