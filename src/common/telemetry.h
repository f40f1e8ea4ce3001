#ifndef TNMINE_COMMON_TELEMETRY_H_
#define TNMINE_COMMON_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/statistics.h"

/// Compile-time kill switch. Configure with -DTNMINE_TELEMETRY=OFF (see the
/// root CMakeLists) to define TNMINE_TELEMETRY_DISABLED and compile every
/// TNMINE_COUNTER_* / TNMINE_GAUGE_* / TNMINE_TRACE_SPAN macro to a no-op
/// that does not evaluate its arguments. The registry classes below still
/// exist in OFF builds (RunReports stay writable, holding only the
/// scratch/* counters, which common/scratch.cc adds to directly); only the
/// instrumentation call sites vanish.
#if defined(TNMINE_TELEMETRY_DISABLED)
#define TNMINE_TELEMETRY_ENABLED 0
#else
#define TNMINE_TELEMETRY_ENABLED 1
#endif

namespace tnmine::telemetry {

/// Worker-lane shards per metric. Each thread hashes to one cache-line-
/// padded slot, so concurrent Add()s from different pool lanes touch
/// different cache lines; reads merge the shards. 16 covers the shared
/// pool on any machine this project targets (contention on a shared slot
/// is still correct, just slower).
inline constexpr std::size_t kMetricShards = 16;

/// Index of the calling thread's metric shard (assigned round-robin on
/// first use, stable for the thread's lifetime).
std::size_t ThisThreadShard();

/// Monotonic counter. Add() is wait-free (one relaxed fetch_add on the
/// calling thread's shard); Value() merges the shards — exact, because
/// every increment lands in exactly one shard.
class Counter {
 public:
  void Add(std::uint64_t n) {
    shards_[ThisThreadShard()].value.fetch_add(n,
                                               std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-write-wins scalar (plus a monotonic-max variant). Used for ratios
/// and sizes that describe a run rather than accumulate over it.
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }
  void SetMax(double v) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (Decode(cur) < v &&
           !bits_.compare_exchange_weak(cur, Encode(v),
                                        std::memory_order_relaxed)) {
    }
  }
  double Value() const {
    return Decode(bits_.load(std::memory_order_relaxed));
  }
  void Reset() { Set(0.0); }

 private:
  static std::uint64_t Encode(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Decode(std::uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

/// Log2-bucketed latency histogram over nanoseconds: bucket i counts
/// durations in [2^i, 2^(i+1)) ns, so 64 buckets cover any uint64
/// duration. Snapshot() renders the occupied range as the same
/// HistogramBucket rows statistics.h produces, keeping bench/report
/// consumers on one bucket vocabulary.
class LatencyHistogram {
 public:
  void RecordNanos(std::uint64_t nanos) {
    buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
    total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }
  std::uint64_t Count() const;
  std::uint64_t TotalNanos() const {
    return total_nanos_.load(std::memory_order_relaxed);
  }
  /// Occupied buckets as [2^i, 2^(i+1)) ranges in seconds.
  std::vector<HistogramBucket> Snapshot() const;
  void Reset();

 private:
  static constexpr std::size_t kBuckets = 64;
  static std::size_t BucketOf(std::uint64_t nanos) {
    return nanos == 0 ? 0 : 63 - static_cast<std::size_t>(
                                     __builtin_clzll(nanos));
  }
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> total_nanos_{0};
};

/// Aggregate statistics for one trace-span name: how many times the span
/// ran and the total wall time inside it. Filled by trace::Span whether or
/// not a trace session is recording, so RunReports always carry span
/// aggregates.
class SpanStat {
 public:
  void Record(std::uint64_t nanos) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }
  std::uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t TotalNanos() const {
    return total_nanos_.load(std::memory_order_relaxed);
  }
  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    total_nanos_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_nanos_{0};
};

/// Point-in-time copy of every metric, sorted by name (the registry's
/// map order), suitable for diffing and serialization.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  struct HistogramRow {
    std::uint64_t count = 0;
    std::uint64_t total_nanos = 0;
    std::vector<HistogramBucket> buckets;
  };
  std::map<std::string, HistogramRow> histograms;
  struct SpanRow {
    std::uint64_t count = 0;
    std::uint64_t total_nanos = 0;
  };
  std::map<std::string, SpanRow> spans;
};

/// Process-wide metric registry. Get*() interns the metric by name and
/// returns a reference that stays valid for the process lifetime (entries
/// are never removed), which is what lets call sites cache the pointer in
/// a function-local static and pay the name lookup exactly once.
///
/// Naming scheme (DESIGN.md §9): `subsystem/verb_noun`, e.g.
/// "gspan/seeds_expanded", "fsg/candidates_pruned", "iso/cache_hits".
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);
  SpanStat& GetSpanStat(std::string_view name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every registered metric (entries stay registered). Benchmarks
  /// call this between timed sections so reports cover one section only.
  void ResetAll();

 private:
  Registry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
  std::map<std::string, std::unique_ptr<SpanStat>, std::less<>> spans_;
};

/// Machine-checkable record of one run: every counter/gauge/histogram/span
/// aggregate plus wall time, hardware_concurrency, and the git SHA
/// (TNMINE_GIT_SHA or GITHUB_SHA env, else the configure-time SHA baked
/// into the library). CI diffs these against committed BENCH_*.json
/// baselines via tools/check_bench_regression.py.
struct RunReportOptions {
  std::string binary;          ///< e.g. "bench_parallel_scaling"
  double wall_seconds = 0.0;   ///< whole-run wall time
  /// Extra flat string fields recorded verbatim (workload knobs etc.).
  std::map<std::string, std::string> extra;
};

/// Serializes the current registry contents as a RunReport JSON object.
std::string RenderRunReport(const RunReportOptions& options);

/// RenderRunReport + write to `path`. Returns false on I/O failure.
bool WriteRunReport(const std::string& path,
                    const RunReportOptions& options);

/// The git SHA a RunReport will record (env override, else build-time).
std::string GitSha();

}  // namespace tnmine::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros. ON expansion: resolve the metric once per call
// site (function-local static), then one relaxed atomic op per hit. OFF
// expansion: nothing — arguments are not evaluated ((void)sizeof only
// typechecks them).

#define TNMINE_INTERNAL_COUNTER_ADD_ON(name, n)                        \
  do {                                                                 \
    static ::tnmine::telemetry::Counter& tnmine_internal_counter =     \
        ::tnmine::telemetry::Registry::Global().GetCounter(name);      \
    tnmine_internal_counter.Add(                                       \
        static_cast<std::uint64_t>(n));                                \
  } while (0)

#define TNMINE_INTERNAL_GAUGE_SET_ON(name, v)                          \
  do {                                                                 \
    static ::tnmine::telemetry::Gauge& tnmine_internal_gauge =         \
        ::tnmine::telemetry::Registry::Global().GetGauge(name);        \
    tnmine_internal_gauge.Set(static_cast<double>(v));                 \
  } while (0)

#define TNMINE_INTERNAL_GAUGE_MAX_ON(name, v)                          \
  do {                                                                 \
    static ::tnmine::telemetry::Gauge& tnmine_internal_gauge =         \
        ::tnmine::telemetry::Registry::Global().GetGauge(name);        \
    tnmine_internal_gauge.SetMax(static_cast<double>(v));              \
  } while (0)

#define TNMINE_INTERNAL_HISTOGRAM_NANOS_ON(name, nanos)                \
  do {                                                                 \
    static ::tnmine::telemetry::LatencyHistogram&                      \
        tnmine_internal_histogram =                                    \
            ::tnmine::telemetry::Registry::Global().GetHistogram(      \
                name);                                                 \
    tnmine_internal_histogram.RecordNanos(                             \
        static_cast<std::uint64_t>(nanos));                            \
  } while (0)

#define TNMINE_INTERNAL_TELEMETRY_NOOP(name, value) \
  do {                                              \
    (void)sizeof(name);                             \
    (void)sizeof(value);                            \
  } while (0)

#if TNMINE_TELEMETRY_ENABLED
#define TNMINE_COUNTER_ADD(name, n) TNMINE_INTERNAL_COUNTER_ADD_ON(name, n)
#define TNMINE_GAUGE_SET(name, v) TNMINE_INTERNAL_GAUGE_SET_ON(name, v)
#define TNMINE_GAUGE_MAX(name, v) TNMINE_INTERNAL_GAUGE_MAX_ON(name, v)
#define TNMINE_HISTOGRAM_NANOS(name, nanos) \
  TNMINE_INTERNAL_HISTOGRAM_NANOS_ON(name, nanos)
#else
#define TNMINE_COUNTER_ADD(name, n) TNMINE_INTERNAL_TELEMETRY_NOOP(name, n)
#define TNMINE_GAUGE_SET(name, v) TNMINE_INTERNAL_TELEMETRY_NOOP(name, v)
#define TNMINE_GAUGE_MAX(name, v) TNMINE_INTERNAL_TELEMETRY_NOOP(name, v)
#define TNMINE_HISTOGRAM_NANOS(name, nanos) \
  TNMINE_INTERNAL_TELEMETRY_NOOP(name, nanos)
#endif

#endif  // TNMINE_COMMON_TELEMETRY_H_
