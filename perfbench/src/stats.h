#ifndef TNMINE_PERFBENCH_STATS_H_
#define TNMINE_PERFBENCH_STATS_H_

#include <sched.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for even sizes);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Indices of the faster half of a run's parts (jobs, set-ups or request
/// phases): the ceil(n/2) parts with the lowest `cost` (seconds per
/// operation), cheapest first. The host the benchmark was built on runs
/// everything up to 1.8x slower for seconds at a time, over 10% to 60% of
/// a run; the faster half is the part of the run that slowdown touched
/// least, so a statistic taken over it stays steady between runs.
std::vector<std::size_t> FasterHalf(const std::vector<double>& cost);

/// `values` at `indices`.
std::vector<double> Pick(const std::vector<double>& values,
                         const std::vector<std::size_t>& indices);

/// A latency percentile chosen by the reporting rule: the highest of
/// p99.9, p99, p90 and p50 that has at least `min_beyond` samples
/// strictly above its rank (nearest-rank definition).
struct Tail {
  bool found = false;       ///< false when no ladder percentile qualifies
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;       ///< the percentile, or the median if none
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples ranked above the percentile
};

/// Applies the rule above. With fewer than 2 * `min_beyond` samples no
/// percentile qualifies: `found` is false and the median stands in.
Tail TailPercentile(std::vector<double> values, std::size_t min_beyond = 10);

/// "p99 of 6033 samples, 60 beyond", or why the median stands in.
std::string Describe(const Tail& tail);

/// Peak resident set size ("VmHWM") parsed out of a /proc/<pid>/status
/// document, in kibibytes. Returns false when the field is missing or
/// malformed.
bool ParsePeakRssKb(std::string_view status, std::uint64_t* kb);

/// This process's peak RSS in MiB (0 when /proc is unavailable).
double PeakRssMb();

/// Returns freed heap memory to the kernel, then resets the peak RSS to
/// the current RSS (Linux >= 4.0: "5" written to /proc/self/clear_refs),
/// so that the next PeakRssMb() covers only what runs in between.
/// Returns false when the reset is not available.
bool ResetPeakRss();

/// Keeps the calling thread on one CPU, the next of the process's CPUs
/// on each use, until destroyed. The host the benchmark was built on
/// slows single CPUs for seconds at a time (one read 1.7x slower for 14 s
/// while the others did not); single-threaded work the scheduler leaves
/// on one CPU samples only that CPU, while rotating spreads its samples
/// over all of them, and the faster half skips the slowed ones. Code run
/// under the pin must start no threads that outlive it: they would
/// inherit the pin.
class RotatingCpuPin {
 public:
  RotatingCpuPin();
  ~RotatingCpuPin();
  RotatingCpuPin(const RotatingCpuPin&) = delete;
  RotatingCpuPin& operator=(const RotatingCpuPin&) = delete;

  /// The CPU the thread is pinned to, or -1 when pinning was not possible
  /// (a single allowed CPU, or no affinity support).
  int cpu() const { return cpu_; }

 private:
  int cpu_ = -1;
  cpu_set_t saved_;  ///< the previous affinity mask
};

/// Set-up times sampled across a run. Before each timed job (or request
/// phase) the workload is set up again until set-up has taken `share` of
/// the run so far, so setup_s, like job_s, is taken over the whole run
/// rather than over one moment of it: the host's speed changes within
/// seconds.
class SetupSampler {
 public:
  explicit SetupSampler(double share) : share_(share) {}
  /// True when no set-up was sampled yet or set-up has taken less than
  /// `share` of `elapsed_s`.
  bool Due(double elapsed_s) const {
    return seconds_.empty() || busy_ < share_ * elapsed_s;
  }
  void Add(double seconds) {
    seconds_.push_back(seconds);
    busy_ += seconds;
  }
  const std::vector<double>& seconds() const { return seconds_; }

 private:
  double share_;
  double busy_ = 0.0;
  std::vector<double> seconds_;
};

/// FNV-1a 64-bit hash, chainable through `seed`.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t seed = 1469598103934665603ull);

/// SplitMix64, the benchmark's own generator: the inputs it makes from a
/// seed must not change when the library's generators do.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform-enough draw in [0, n) for the small n used here.
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Fisher-Yates shuffle of `items` driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>* items, SplitMix64* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

}  // namespace perfbench

#endif  // TNMINE_PERFBENCH_STATS_H_
