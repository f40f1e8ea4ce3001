#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int SpanRecorder::Begin(const std::string& name, std::uint64_t job,
                        int parent) {
  SpanRecord record;
  record.name = name;
  record.parent = parent;
  record.job = job;
  record.start_nanos = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id) {
  const std::uint64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_nanos = now;
}

std::vector<SpanRecord> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanTotals> SpanRecorder::Aggregate() const {
  const std::vector<SpanRecord> spans = Spans();
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(
          s.start_nanos, s.end_nanos);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    // Covered = the union of the children's intervals.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_nanos;
    for (const auto& [start, end] : kids) {
      const std::uint64_t from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    const std::uint64_t duration = s.end_nanos - s.start_nanos;
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_seconds += duration * 1e-9;
    t.self_seconds += (duration - std::min(covered, duration)) * 1e-9;
  }
  return totals;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<SpanRecord> spans = Spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::uint64_t epoch = spans.empty() ? 0 : spans.front().start_nanos;
  std::fputs("[", out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out,
                 "%s\n {\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d,\"job\":%llu}",
                 i == 0 ? "" : ",", i, s.name.c_str(),
                 static_cast<unsigned long long>(s.start_nanos - epoch),
                 static_cast<unsigned long long>(s.end_nanos - epoch),
                 s.parent, static_cast<unsigned long long>(s.job));
  }
  std::fputs("\n]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
