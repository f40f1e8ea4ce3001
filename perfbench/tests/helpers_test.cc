// Unit tests of the benchmark's own helpers: the faster half, the
// percentile rule, the peak-RSS reader and its reset, the set-up sampler,
// the CPU pin, the metric list, span self time, and the server workload's
// request schedule. Run with `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "schedule.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);  // 1, 2, ..., n
  return values;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(FasterHalf, KeepsTheCheaperHalfRoundedUp) {
  const std::vector<double> cost = {0.5, 0.3, 0.55, 0.29, 0.31};
  EXPECT_EQ(FasterHalf(cost), (std::vector<std::size_t>{3, 1, 4}));
  EXPECT_EQ(Pick(cost, FasterHalf(cost)),
            (std::vector<double>{0.29, 0.3, 0.31}));
  EXPECT_EQ(FasterHalf({2.0}), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(FasterHalf({}).empty());
}

TEST(TailPercentile, PicksP99WithTenSamplesBeyond) {
  const Tail tail = TailPercentile(Ramp(1000));
  ASSERT_TRUE(tail.found);
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 1000u);
}

TEST(TailPercentile, ClimbsToP999OnceItHasTenBeyond) {
  const Tail tail = TailPercentile(Ramp(10000));
  ASSERT_TRUE(tail.found);
  EXPECT_EQ(tail.percentile, 99.9);
  EXPECT_EQ(tail.value, 9990.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, FallsToP90JustBelowTheP99Threshold) {
  // 999 samples leave only 9 beyond p99.
  const Tail tail = TailPercentile(Ramp(999));
  ASSERT_TRUE(tail.found);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_GE(tail.beyond, 10u);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> values = Ramp(2000);
  std::reverse(values.begin(), values.end());
  std::rotate(values.begin(), values.begin() + 700, values.end());
  const Tail shuffled = TailPercentile(values);
  const Tail sorted = TailPercentile(Ramp(2000));
  EXPECT_EQ(shuffled.value, sorted.value);
  EXPECT_EQ(shuffled.percentile, sorted.percentile);
}

TEST(TailPercentile, NoneWithTooFewSamples) {
  const Tail few = TailPercentile(Ramp(19));
  EXPECT_FALSE(few.found);
  EXPECT_EQ(few.value, 10.0);  // the median stands in
  EXPECT_EQ(few.samples, 19u);
  EXPECT_FALSE(TailPercentile({}).found);
  // 20 samples: p50 has exactly 10 beyond it.
  const Tail tail = TailPercentile(Ramp(20));
  ASSERT_TRUE(tail.found);
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(PeakRss, ParsesVmHwm) {
  const std::string status =
      "Name:\ttnbench\nVmPeak:\t  901234 kB\nVmHWM:\t   20480 kB\n"
      "VmRSS:\t   10240 kB\n";
  std::uint64_t kb = 0;
  ASSERT_TRUE(ParsePeakRssKb(status, &kb));
  EXPECT_EQ(kb, 20480u);
}

TEST(PeakRss, RejectsMissingOrMalformedField) {
  std::uint64_t kb = 7;
  EXPECT_FALSE(ParsePeakRssKb("VmRSS:\t 100 kB\n", &kb));
  EXPECT_FALSE(ParsePeakRssKb("VmHWM:\t abc kB\n", &kb));
  EXPECT_FALSE(ParsePeakRssKb("VmHWM:\t 12 MB\n", &kb));
  EXPECT_FALSE(ParsePeakRssKb("", &kb));
  EXPECT_EQ(kb, 7u);
}

TEST(PeakRss, LiveReadingSeesATouchedBuffer) {
  constexpr std::size_t kBytes = 64u << 20;
  std::vector<char> buffer(kBytes);
  std::memset(buffer.data(), 1, buffer.size());
  EXPECT_GE(PeakRssMb(), 64.0);
  EXPECT_EQ(buffer[kBytes / 2], 1);
}

TEST(PeakRss, ResetDropsTheHighWaterMarkOfFreedMemory) {
  // Mapped directly, so that unmapping surely returns the pages.
  constexpr std::size_t kBytes = 128u << 20;
  void* block = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(block, MAP_FAILED);
  std::memset(block, 1, kBytes);
  ::munmap(block, kBytes);
  const double before = PeakRssMb();
  ASSERT_GE(before, 128.0);
  ASSERT_TRUE(ResetPeakRss());
  EXPECT_LT(PeakRssMb(), before - 100.0);
}

TEST(SetupSampler, KeepsSetUpNearItsShareOfTheRun) {
  SetupSampler setups(0.1);
  EXPECT_TRUE(setups.Due(0.0));  // nothing sampled yet
  setups.Add(0.05);
  EXPECT_FALSE(setups.Due(0.4));  // 0.05 s of 0.4 s is more than 10%
  EXPECT_TRUE(setups.Due(1.0));
  setups.Add(0.05);
  EXPECT_FALSE(setups.Due(1.0));  // 0.1 s of 1 s is the share
  EXPECT_EQ(setups.seconds().size(), 2u);
}

TEST(RotatingCpuPin, PinsToOneCpuInTurnAndRestores) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  if (CPU_COUNT(&before) < 2) GTEST_SKIP() << "a single CPU is allowed";
  std::set<int> used;
  for (int i = 0; i < CPU_COUNT(&before); ++i) {
    RotatingCpuPin pin;
    ASSERT_GE(pin.cpu(), 0);
    cpu_set_t now;
    ASSERT_EQ(sched_getaffinity(0, sizeof(now), &now), 0);
    EXPECT_EQ(CPU_COUNT(&now), 1);
    EXPECT_TRUE(CPU_ISSET(pin.cpu(), &now));
    used.insert(pin.cpu());
  }
  EXPECT_EQ(static_cast<int>(used.size()), CPU_COUNT(&before));
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(MetricSpecs, ParsesTheListRunPyPasses) {
  std::vector<MetricSpec> specs;
  ASSERT_TRUE(ParseMetricSpecs("setup_s:s,throughput_per_s:1/s", &specs));
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[1].name, "throughput_per_s");
  EXPECT_EQ(specs[1].unit, "1/s");
  for (const char* bad :
       {"", "setup_s", "setup_s:", ":s", "a:s,", "a:s,,b:s"}) {
    EXPECT_FALSE(ParseMetricSpecs(bad, &specs)) << bad;
  }
}

TEST(SpanRecorder, SelfTimeIsDurationMinusChildren) {
  SpanRecorder spans;
  {
    ScopedSpan parent(&spans, "parent", 1);
    {
      ScopedSpan child(&spans, "child", 1, parent.id());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  { ScopedSpan untraced(nullptr, "untraced", 1); }
  const std::map<std::string, SpanTotals> totals = spans.Aggregate();
  ASSERT_EQ(totals.size(), 2u);
  const SpanTotals& parent = totals.at("parent");
  const SpanTotals& child = totals.at("child");
  EXPECT_EQ(parent.count, 1u);
  EXPECT_EQ(child.self_seconds, child.total_seconds);
  EXPECT_NEAR(parent.self_seconds,
              parent.total_seconds - child.total_seconds, 1e-9);
  EXPECT_GT(parent.self_seconds, 0.0);
}

std::vector<ScheduledRequest> Take(std::uint64_t seed, std::size_t client,
                                   std::size_t n) {
  ScheduleGenerator schedule(seed, client, 4);
  std::vector<ScheduledRequest> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(schedule.Next());
  return out;
}

std::map<RequestKind, std::size_t> Counts(
    const std::vector<ScheduledRequest>& requests) {
  std::map<RequestKind, std::size_t> counts;
  for (const ScheduledRequest& r : requests) ++counts[r.kind];
  return counts;
}

TEST(Schedule, SameSeedSameSequence) {
  const auto a = Take(7, 1, 3000);
  const auto b = Take(7, 1, 3000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].ToRequest().Serialize(), b[i].ToRequest().Serialize());
  }
  EXPECT_EQ(Counts(a), Counts(b));
}

TEST(Schedule, OtherSeedOtherSequence) {
  const auto a = Take(7, 0, 200);
  const auto b = Take(8, 0, 200);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same += a[i].ToRequest().Serialize() == b[i].ToRequest().Serialize();
  }
  EXPECT_LT(same, a.size() / 2);
}

TEST(Schedule, MixIsNearTheTarget) {
  const auto counts = Counts(Take(7, 2, 10000));
  const auto share = [&](RequestKind k) {
    return counts.count(k) ? counts.at(k) / 10000.0 : 0.0;
  };
  EXPECT_NEAR(share(RequestKind::kNew), 0.15, 0.02);
  EXPECT_NEAR(share(RequestKind::kVariant), 0.15, 0.02);
  EXPECT_NEAR(share(RequestKind::kRepeat), 0.50, 0.02);
  EXPECT_NEAR(share(RequestKind::kControl), 0.20, 0.02);
}

TEST(Schedule, RepeatsHitAndEverythingElseMisses) {
  std::set<std::string> cache;
  for (const ScheduledRequest& r : Take(11, 3, 5000)) {
    switch (r.kind) {
      case RequestKind::kRepeat:
        EXPECT_TRUE(cache.count(r.cache_key)) << r.cache_key;
        break;
      case RequestKind::kNew:
      case RequestKind::kVariant:
        EXPECT_TRUE(cache.insert(r.cache_key).second) << r.cache_key;
        break;
      case RequestKind::kControl:
        EXPECT_TRUE(r.op == "ping" || r.op == "stats");
        EXPECT_TRUE(r.cache_key.empty());
        break;
    }
  }
}

TEST(Schedule, VariantsKeepTheOutputParamsOfAnEarlierRequest) {
  std::set<std::string> outputs;
  for (const ScheduledRequest& r : Take(5, 0, 5000)) {
    if (r.kind == RequestKind::kNew) {
      EXPECT_TRUE(outputs.insert(r.output_key).second) << r.output_key;
    } else if (r.kind == RequestKind::kVariant) {
      EXPECT_TRUE(outputs.count(r.output_key)) << r.output_key;
      EXPECT_NE(r.output_key, r.cache_key);
    }
  }
}

TEST(Schedule, ClientsNeverShareKeys) {
  std::map<std::string, std::size_t> owner;
  for (std::size_t client = 0; client < 4; ++client) {
    for (const ScheduledRequest& r : Take(7, client, 4000)) {
      if (r.kind == RequestKind::kControl) continue;
      for (const std::string& key : {r.cache_key, r.output_key}) {
        const auto [it, inserted] = owner.emplace(key, client);
        EXPECT_TRUE(inserted || it->second == client) << key;
      }
    }
  }
}

}  // namespace
}  // namespace perfbench
