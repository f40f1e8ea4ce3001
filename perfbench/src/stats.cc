#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<std::size_t> FasterHalf(const std::vector<double>& cost) {
  std::vector<std::size_t> order(cost.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] < cost[b];
                   });
  order.resize((order.size() + 1) / 2);
  return order;
}

std::vector<double> Pick(const std::vector<double>& values,
                         const std::vector<std::size_t>& indices) {
  std::vector<double> out;
  for (std::size_t i : indices) out.push_back(values[i]);
  return out;
}

Tail TailPercentile(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Ladder in permille so the rank arithmetic stays integral.
  for (std::size_t permille : {999u, 990u, 900u, 500u}) {
    // Nearest rank: the smallest rank r (1-based) with r/n >= p.
    const std::size_t rank = (permille * n + 999) / 1000;
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    const std::size_t beyond = n - 1 - index;
    if (beyond >= min_beyond) {
      tail.found = true;
      tail.percentile = static_cast<double>(permille) / 10.0;
      tail.value = values[index];
      tail.beyond = beyond;
      return tail;
    }
  }
  tail.percentile = 50.0;
  tail.value = Median(std::move(values));
  return tail;
}

std::string Describe(const Tail& tail) {
  char text[160];
  if (tail.found) {
    std::snprintf(text, sizeof(text), "p%g of %zu samples, %zu beyond",
                  tail.percentile, tail.samples, tail.beyond);
  } else {
    std::snprintf(text, sizeof(text),
                  "median of %zu samples: too few for a percentile with 10 "
                  "beyond it",
                  tail.samples);
  }
  return text;
}

bool ParsePeakRssKb(std::string_view status, std::uint64_t* kb) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t end = status.find('\n', pos);
    if (end == std::string_view::npos) end = status.size();
    std::string_view line = status.substr(pos, end - pos);
    pos = end + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    line.remove_prefix(kKey.size());
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(line.data(), line.data() + line.size(), value);
    if (ec != std::errc() || ptr == line.data()) return false;
    std::string_view unit(ptr, line.data() + line.size() - ptr);
    while (!unit.empty() && unit.front() == ' ') unit.remove_prefix(1);
    if (unit != "kB") return false;
    *kb = value;
    return true;
  }
  return false;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  if (!in.is_open()) return 0.0;
  std::ostringstream text;
  text << in.rdbuf();
  std::uint64_t kb = 0;
  if (!ParsePeakRssKb(text.str(), &kb)) return 0.0;
  return static_cast<double>(kb) / 1024.0;
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  // Freed memory the allocator keeps would otherwise count as resident at
  // the reset, and the next job could reuse it unseen.
  malloc_trim(0);
#endif
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good();
}

RotatingCpuPin::RotatingCpuPin() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count < 2) return;
  static int next = 0;
  int skip = next++ % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = cpu;
    return;
  }
}

RotatingCpuPin::~RotatingCpuPin() {
  if (cpu_ >= 0) sched_setaffinity(0, sizeof(saved_), &saved_);
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
