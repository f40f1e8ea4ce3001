#ifndef TNMINE_PERFBENCH_SPANS_H_
#define TNMINE_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary process-local epoch.
inline std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded span: a timed call the benchmark made into a layer.
struct SpanRecord {
  std::string name;
  std::uint64_t start_nanos = 0;
  std::uint64_t end_nanos = 0;
  int parent = -1;         ///< index of the enclosing span, -1 for a root
  std::uint64_t job = 0;   ///< the job (or request) the span belongs to
};

/// Per-name aggregate of recorded spans.
struct SpanTotals {
  std::size_t count = 0;
  double total_seconds = 0.0;
  /// Duration minus the part of the interval covered by child spans.
  double self_seconds = 0.0;
};

/// In-memory span store for the traced run. Spans are kept in memory and
/// written out once at the end, so recording costs one locked append.
/// Safe to use from several threads; parents are passed explicitly.
class SpanRecorder {
 public:
  /// Opens a span and returns its id (for End and as a child's parent).
  int Begin(const std::string& name, std::uint64_t job, int parent = -1);
  void End(int id);

  std::vector<SpanRecord> Spans() const;

  /// Count, total and self time per span name.
  std::map<std::string, SpanTotals> Aggregate() const;

  /// Writes every span as a JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span that records nothing when `recorder` is null, so untraced
/// jobs run the same code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             std::uint64_t job, int parent = -1)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name, job, parent)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // TNMINE_PERFBENCH_SPANS_H_
