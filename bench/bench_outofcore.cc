// Out-of-core sharded mining bench (DESIGN.md §16): proves the miners
// handle a dataset a configurable multiple (default 10x) of the memory
// ceiling while the process's resident set stays bounded, and that the
// sharded path is byte-identical to in-memory mining at every shard cut
// and thread count.
//
// Three phases:
//
//   build   generates a KK synthetic transaction set one shard at a
//           time (chunked seeds, so peak build memory is one shard)
//           until the shard payload reaches --max-memory-mb x
//           --data-multiple megabytes.
//   mine    runs FSG over the shard directory through a
//           ShardedTransactionSource with an LRU of
//           --max-resident-shards and a --max-memory-mb budget, then
//           asserts the mining working set is at most --max-memory-mb +
//           --rss-slack-mb. The working set is the highest current RSS
//           sampled (/proc/self/statm, every millisecond, on a thread)
//           while FSG runs, minus the current RSS before it starts. A
//           miner that secretly materialized the whole dataset would
//           blow this by the data multiple.
//   equiv   mines a small set in RAM and through shard files at three
//           shard cuts x threads {1,2,4} (FSG and gSpan) and fails
//           unless every run's (code, support, tids) stream is
//           byte-identical to the in-memory reference and every FSG run
//           answers as many checks from witnesses (fsg/witness_hits).
//
// Emits BENCH_outofcore.json ("seconds" tracked; RSS figures are
// printed and attached to the RunReport, not used as row keys — they
// are machine-dependent) plus RUNREPORT_outofcore.json whose
// shard/shards_loaded + shard/evictions counters the CI outofcore-smoke
// job asserts via check_bench_regression.py --require-counter.
//
// Exit code: nonzero on an RSS violation or an equivalence mismatch.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/budget.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "fsg/fsg.h"
#include "graph/shard_store.h"
#include "graph/transaction_source.h"
#include "gspan/gspan.h"
#include "pattern/pattern.h"
#include "synth/kk_generator.h"
#include "tools/flag_parser.h"

using namespace tnmine;

namespace {

/// Lifetime peak resident set, in MB (ru_maxrss is KB on Linux).
std::size_t PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) / 1024;
}

/// Current resident set in bytes, from /proc/self/statm (0 when
/// unreadable).
std::uint64_t CurrentRssBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &size, &resident);
  std::fclose(statm);
  return fields == 2
             ? resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE))
             : 0;
}

/// Runs `work` while a thread samples the current RSS every millisecond;
/// returns the highest sample minus the RSS before `work`, in MB.
template <typename Work>
double RssGrowthMb(Work&& work) {
  const std::uint64_t before = CurrentRssBytes();
  std::uint64_t peak = before;
  {
    std::jthread sampler([&](std::stop_token stop) {
      while (!stop.stop_requested()) {
        peak = std::max(peak, CurrentRssBytes());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    work();
  }  // stops and joins the sampler, also when `work` throws
  peak = std::max(peak, CurrentRssBytes());
  return static_cast<double>(peak - before) / (1 << 20);
}

struct BuildResult {
  std::size_t num_transactions = 0;
  std::size_t num_shards = 0;
  std::uint64_t payload_bytes = 0;
};

/// Generates KK transactions one shard at a time until the accumulated
/// shard payload reaches `target_bytes`. Chunked seeds keep the chunks
/// independent; peak memory is one chunk of LabeledGraphs plus one
/// shard's serialized payload.
bool BuildShards(const std::string& dir, std::size_t shard_size,
                 std::uint64_t target_bytes, BuildResult* out) {
  synth::KkOptions kk;
  kk.avg_transaction_edges = 27.4;
  kk.num_seed_patterns = 10;
  kk.avg_pattern_edges = 4.0;
  // Few labels: single-edge types recur across every chunk, so the big
  // run has genuinely frequent patterns even though each chunk embeds
  // its own seed-pattern pool.
  kk.num_vertex_labels = 6;
  kk.num_edge_labels = 2;
  kk.num_transactions = shard_size;
  while (out->payload_bytes < target_bytes) {
    kk.seed = 2005 + out->num_shards;
    const synth::KkResult batch = synth::GenerateKkTransactions(kk);
    graph::ShardWriter writer(dir + "/" +
                              graph::ShardFileName(out->num_shards));
    for (const graph::LabeledGraph& g : batch.transactions) writer.Add(g);
    std::string error;
    if (!writer.Finish(&error)) {
      std::fprintf(stderr, "shard write failed: %s\n", error.c_str());
      return false;
    }
    out->payload_bytes += writer.payload_bytes();
    out->num_transactions += batch.transactions.size();
    ++out->num_shards;
  }
  return true;
}

/// (code, support, tids) stream of a pattern list — byte-identical runs
/// compare equal, nothing else does.
std::string Flatten(const std::vector<pattern::FrequentPattern>& patterns) {
  std::string out;
  for (const pattern::FrequentPattern& p : patterns) {
    out += p.code;
    out += '|';
    out += std::to_string(p.support);
    out += '|';
    for (const std::uint32_t tid : p.tids.ToVector()) {
      out += std::to_string(tid);
      out += ',';
    }
    out += '\n';
  }
  return out;
}

/// Current value of telemetry counter `name` (0 when absent).
std::uint64_t CounterValue(const char* name) {
  const auto counters = telemetry::Registry::Global().Snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Runs FSG and returns its output stream; `witness_hits` receives the
/// growth of fsg/witness_hits during the run.
template <typename Source>
std::string MineFsgCounted(Source& source, const fsg::FsgOptions& options,
                           std::uint64_t* witness_hits) {
  const std::uint64_t before = CounterValue("fsg/witness_hits");
  std::string out = Flatten(fsg::MineFsg(source, options).patterns);
  *witness_hits = CounterValue("fsg/witness_hits") - before;
  return out;
}

void RemoveShardDir(const std::string& dir, std::size_t num_shards) {
  for (std::size_t i = 0; i < num_shards; ++i)
    unlink((dir + "/" + graph::ShardFileName(i)).c_str());
  rmdir(dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunReportScope report("outofcore");
  bench::JsonRowWriter json("BENCH_outofcore.json");
  const tools::Flags flags(argc, argv, 1);

  const auto ceiling_mb = static_cast<std::uint64_t>(
      std::max(1L, flags.GetInt("max-memory-mb", 8)));
  const auto data_multiple = static_cast<std::uint64_t>(
      std::max(1L, flags.GetInt("data-multiple", 10)));
  const auto shard_size = static_cast<std::size_t>(
      std::max(1L, flags.GetInt("shard-size", 1024)));
  const auto max_resident = static_cast<std::size_t>(
      std::max(1L, flags.GetInt("max-resident-shards", 2)));
  const auto rss_slack_mb = static_cast<std::size_t>(
      std::max(0L, flags.GetInt("rss-slack-mb", 48)));
  const auto threads =
      static_cast<std::size_t>(std::max(0L, flags.GetInt("threads", 2)));

  std::string root = flags.Get("out-dir", "");
  bool cleanup = false;
  if (root.empty()) {
    char tmpl[] = "/tmp/bench-outofcore-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    root = tmpl;
    cleanup = true;
  } else {
    mkdir(root.c_str(), 0755);
  }

  // --- build ------------------------------------------------------------
  bench::Section("Out-of-core: build " +
                 std::to_string(ceiling_mb * data_multiple) +
                 " MB of shards (ceiling " + std::to_string(ceiling_mb) +
                 " MB)");
  const std::string big_dir = root + "/big";
  mkdir(big_dir.c_str(), 0755);
  Stopwatch build_watch;
  BuildResult built;
  if (!BuildShards(big_dir, shard_size,
                   ceiling_mb * data_multiple << 20, &built)) {
    return 1;
  }
  const double build_seconds = build_watch.ElapsedSeconds();
  bench::Row("transactions", built.num_transactions);
  bench::Row("shards", built.num_shards);
  bench::Row("payload_mb",
             static_cast<std::size_t>(built.payload_bytes >> 20));
  bench::Row("build_seconds", build_seconds);
  json.BeginRow();
  json.Field("bench", "outofcore_build");
  json.Field("shard_size", shard_size);
  json.Field("transactions", built.num_transactions);
  json.Field("shards", built.num_shards);
  json.Field("seconds", build_seconds);
  json.EndRow();

  // --- mine under the ceiling -------------------------------------------
  int rc = 0;
  {
    bench::Section("Out-of-core: FSG over " +
                   std::to_string(built.num_shards) + " shards, " +
                   std::to_string(max_resident) + " resident");
    common::BudgetLimits limits;
    limits.max_memory_bytes = ceiling_mb << 20;
    graph::ShardedTransactionSource::Options source_options;
    source_options.max_resident_shards = max_resident;
    source_options.budget = common::ResourceBudget(limits);
    std::string error;
    const auto source = graph::ShardedTransactionSource::Open(
        big_dir, source_options, &error);
    if (source == nullptr) {
      std::fprintf(stderr, "cannot open %s: %s\n", big_dir.c_str(),
                   error.c_str());
      return 1;
    }
    fsg::FsgOptions options;
    options.min_support = built.num_transactions / 4;
    options.max_edges = 2;
    options.parallelism = common::Parallelism{threads};
    options.budget = source_options.budget;
    Stopwatch watch;
    fsg::FsgResult result;
    const double rss_delta_mb =
        RssGrowthMb([&] { result = fsg::MineFsg(*source, options); });
    const double mine_seconds = watch.ElapsedSeconds();

    const std::size_t rss_limit_mb =
        static_cast<std::size_t>(ceiling_mb) + rss_slack_mb;
    char delta_text[32];
    std::snprintf(delta_text, sizeof(delta_text), "%.1f", rss_delta_mb);
    bench::Row("patterns", result.patterns.size());
    bench::Row("outcome", std::string(common::ToString(result.outcome)));
    bench::Row("mine_seconds", mine_seconds);
    bench::Row("peak_rss_mb", PeakRssMb());
    bench::Row("rss_delta_mb (mining working set)", rss_delta_mb);
    bench::Row("rss_limit_mb (ceiling + slack)", rss_limit_mb);
    report.AddField("rss_delta_mb", delta_text);
    report.AddField("data_mb",
                    std::to_string(built.payload_bytes >> 20));
    json.BeginRow();
    json.Field("bench", "outofcore_mine");
    json.Field("miner", "fsg");
    json.Field("shard_size", shard_size);
    json.Field("max_resident_shards", max_resident);
    json.Field("transactions", built.num_transactions);
    json.Field("patterns", result.patterns.size());
    json.Field("seconds", mine_seconds);
    json.EndRow();
    if (rss_delta_mb > static_cast<double>(rss_limit_mb)) {
      std::fprintf(stderr,
                   "RSS VIOLATION: mining grew the resident set by %.1f "
                   "MB, limit %zu MB (ceiling %llu + slack %zu)\n",
                   rss_delta_mb, rss_limit_mb,
                   static_cast<unsigned long long>(ceiling_mb),
                   rss_slack_mb);
      rc = 1;
    }
    if (result.patterns.empty()) {
      std::fprintf(stderr, "suspicious: big run mined zero patterns\n");
      rc = 1;
    }
  }

  // --- equivalence sweep -------------------------------------------------
  bench::Section(
      "Out-of-core: byte-identity, 3 shard cuts x threads {1,2,4}");
  synth::KkOptions kk;
  kk.num_transactions = 150;
  kk.avg_transaction_edges = 12.0;
  kk.num_seed_patterns = 8;
  kk.avg_pattern_edges = 3.0;
  kk.num_vertex_labels = 10;
  kk.num_edge_labels = 3;
  kk.seed = 7;
  const synth::KkResult small = synth::GenerateKkTransactions(kk);
  fsg::FsgOptions fsg_ref;
  fsg_ref.min_support = 8;
  fsg_ref.max_edges = 3;
  gspan::GspanOptions gspan_ref;
  gspan_ref.min_support = 8;
  gspan_ref.max_edges = 3;
  std::uint64_t hits_expected = 0;
  const std::string fsg_expected =
      MineFsgCounted(small.transactions, fsg_ref, &hits_expected);
  const std::string gspan_expected =
      Flatten(gspan::MineGspan(small.transactions, gspan_ref).patterns);

  std::vector<std::pair<std::string, std::size_t>> sweep_dirs;
  for (const std::size_t cut : {13u, 40u, 75u}) {
    const std::string dir = root + "/equiv" + std::to_string(cut);
    mkdir(dir.c_str(), 0755);
    std::size_t shards = 0;
    for (std::size_t start = 0; start < small.transactions.size();
         start += cut) {
      graph::ShardWriter writer(dir + "/" + graph::ShardFileName(shards));
      for (std::size_t i = start;
           i < std::min(start + cut, small.transactions.size()); ++i) {
        writer.Add(small.transactions[i]);
      }
      std::string error;
      if (!writer.Finish(&error)) {
        std::fprintf(stderr, "shard write failed: %s\n", error.c_str());
        return 1;
      }
      ++shards;
    }
    sweep_dirs.emplace_back(dir, shards);

    for (const std::size_t t : {1u, 2u, 4u}) {
      graph::ShardedTransactionSource::Options source_options;
      source_options.max_resident_shards = 2;
      std::string error;
      const auto source = graph::ShardedTransactionSource::Open(
          dir, source_options, &error);
      if (source == nullptr) {
        std::fprintf(stderr, "cannot open %s: %s\n", dir.c_str(),
                     error.c_str());
        return 1;
      }
      fsg::FsgOptions fo = fsg_ref;
      fo.parallelism = common::Parallelism{t};
      gspan::GspanOptions go = gspan_ref;
      go.parallelism = common::Parallelism{t};
      Stopwatch watch;
      std::uint64_t hits = 0;
      const bool fsg_ok = MineFsgCounted(*source, fo, &hits) == fsg_expected &&
                          hits == hits_expected;
      const bool gspan_ok =
          Flatten(gspan::MineGspan(*source, go).patterns) ==
          gspan_expected;
      const double seconds = watch.ElapsedSeconds();
      bench::Row("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(t),
                 std::string(fsg_ok && gspan_ok ? "byte-identical"
                                                : "MISMATCH"));
      json.BeginRow();
      json.Field("bench", "outofcore_equiv");
      json.Field("shards", shards);
      json.Field("threads", t);
      json.Field("match", fsg_ok && gspan_ok);
      json.Field("seconds", seconds);
      json.EndRow();
      if (!fsg_ok || !gspan_ok) rc = 1;
    }
  }

  if (cleanup) {
    RemoveShardDir(big_dir, built.num_shards);
    for (const auto& [dir, shards] : sweep_dirs)
      RemoveShardDir(dir, shards);
    rmdir(root.c_str());
  }
  bench::Section(rc == 0 ? "OK" : "FAILED");
  return rc;
}
