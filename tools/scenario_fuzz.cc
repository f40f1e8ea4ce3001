// Differential scenario fuzzer: seeded end-to-end mining scenarios checked
// against cross-implementation oracles (the buzz-house "query oracle"
// style — two paths that must agree, disagreement is a bug in one of them).
//
// Each iteration draws a ScenarioConfig (synth/scenario.h): KK-generator
// parameters including the transportation-texture knobs (hub skew,
// seasonality, disruptions, motif concentration), an optional re-cut
// through the multilevel partitioner, a support threshold (0 and 1 are
// drawn on purpose), a pattern-size cap, a thread count, and a budget
// fraction. The scenario's transaction set is then mined along several
// legs and the oracles assert:
//
//   miner_equiv      gSpan and FSG produce the identical canonical-code ->
//                    {support, tid-set} map; at min_support <= 1 the two
//                    degenerate thresholds (0 and 1) also agree per miner.
//   parallel         N-thread runs are byte-identical to sequential runs
//                    (both miners promise this in their option docs).
//   encoding         Forced-sparse and forced-bitmap TidSet encodings
//                    yield byte-identical mined output (DESIGN.md §12).
//   budget_prefix    A tick-budgeted FSG run is an exact prefix of the
//                    unbudgeted pattern list; a tick-budgeted gSpan run
//                    keeps a prefix of each seed subtree's patterns (the
//                    subtrees have separate tick slices; DESIGN.md §13).
//   support_monotone Raising min_support only removes patterns; survivors
//                    keep their exact support and tid set.
//   partition        Algorithm 1 with m repetitions covers every pattern
//                    an m'<m run finds (at >= the support), and the
//                    structural driver agrees across the two miners.
//   shard_equiv      Mining through a sharded TransactionSource — two
//                    in-memory shard cuts plus a real mmapped shard
//                    directory (DESIGN.md §16) — is byte-identical to
//                    the classic in-RAM run, for both miners, at
//                    multiple thread counts.
//   subdue_instances SUBDUE on the transactions as one disjoint-union host:
//                    every reported instance's edges form a graph with the
//                    substructure's canonical code, instances are pairwise
//                    distinct and within max_instances, and the disjoint
//                    count equals a greedy recount.
//   symmetric        miner_equiv, parallel, budget_prefix and shard_equiv
//                    on scenarios from synth::DrawSymmetricScenario: one
//                    vertex label, stars and cycles, max_edges 5, where
//                    FSG's core-table lookups meet symmetric cores.
//   label_rich       The same four on scenarios from
//                    synth::DrawLabelRichScenario: 40-200 vertex labels,
//                    so most edge types are infrequent and FSG's level-1
//                    wedge index leaves out the wedges no lookup reaches.
//
// Usage:
//   scenario_fuzz [--seed N] [--iters M]
//                 [--oracle miner_equiv|parallel|encoding|budget_prefix|
//                           support_monotone|partition|shard_equiv|
//                           subdue_instances|symmetric|label_rich|all]
//                 [--artifact-dir DIR] [--replay FILE] [--corpus DIR]
//
// Exit status 0 when every iteration passes; 1 on the first failure after
// printing the oracle, seed, iteration, and detail needed to reproduce it
// (replay: scenario_fuzz --oracle X --seed <iter seed> --iters 1). With
// --artifact-dir, a sidecar recipe file is also written there containing a
// greedily minimized ScenarioConfig that still fails, replayable with
// --replay FILE; CI uploads the directory on failure (same shape as
// fuzz_io). --corpus replays every *.scenario file in a directory — the
// checked-in regression corpus under tests/scenario_corpus/ runs through
// this in the scenario_smoke ctest label.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/budget.h"
#include "common/check.h"
#include "common/parse.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/miner.h"
#include "fsg/fsg.h"
#include "graph/graph_view.h"
#include "graph/labeled_graph.h"
#include "graph/shard_store.h"
#include "graph/transaction_source.h"
#include "gspan/dfs_code.h"
#include "gspan/gspan.h"
#include "iso/canonical.h"
#include "partition/multilevel.h"
#include "pattern/pattern.h"
#include "pattern/tid_set.h"
#include "subdue/subdue.h"
#include "synth/kk_generator.h"
#include "synth/scenario.h"

namespace {

using tnmine::Rng;
using tnmine::common::BudgetLimits;
using tnmine::common::MiningOutcome;
using tnmine::common::Parallelism;
using tnmine::common::ResourceBudget;
using tnmine::graph::LabeledGraph;
using tnmine::pattern::FrequentPattern;
using tnmine::pattern::TidSet;
using tnmine::synth::ScenarioConfig;
using tnmine::synth::ScenarioPartitioner;

/// code -> (support, ascending tids); the encoding- and order-independent
/// view two legs must agree on exactly.
using PatternMap =
    std::map<std::string, std::pair<std::size_t, std::vector<std::uint32_t>>>;

PatternMap ToMap(const std::vector<FrequentPattern>& patterns) {
  PatternMap map;
  for (const FrequentPattern& p : patterns) {
    map[p.code] = {p.support, p.tids.ToVector()};
  }
  return map;
}

/// One line per pattern, in emission order: "code#support@t0,t1,...".
/// Byte-identical fingerprints mean byte-identical mined output.
std::string Fingerprint(const std::vector<FrequentPattern>& patterns) {
  std::string out;
  for (const FrequentPattern& p : patterns) {
    out += p.code;
    out += '#';
    out += std::to_string(p.support);
    out += '@';
    bool first = true;
    for (const std::uint32_t tid : p.tids) {
      if (!first) out += ',';
      out += std::to_string(tid);
      first = false;
    }
    out += '\n';
  }
  return out;
}

/// gSpan output split by seed subtree (the first entry of each pattern's
/// minimal DFS code), each subtree fingerprinted in emission order.
std::map<tnmine::gspan::DfsEdge, std::string> SeedBlocks(
    const std::vector<FrequentPattern>& patterns) {
  std::map<tnmine::gspan::DfsEdge, std::string> blocks;
  for (const FrequentPattern& p : patterns) {
    blocks[tnmine::gspan::MinimalDfsCode(p.graph).edges().front()] +=
        Fingerprint({p});
  }
  return blocks;
}

/// Disjoint union of the transactions (vertex ids offset per graph) — the
/// "whole network" a partitioning scenario re-cuts.
LabeledGraph FlattenDisjoint(const std::vector<LabeledGraph>& transactions) {
  LabeledGraph flat;
  for (const LabeledGraph& txn : transactions) {
    std::vector<tnmine::graph::VertexId> map(txn.num_vertices());
    for (tnmine::graph::VertexId v = 0; v < txn.num_vertices(); ++v) {
      map[v] = flat.AddVertex(txn.vertex_label(v));
    }
    txn.ForEachEdge([&](tnmine::graph::EdgeId e) {
      const auto& edge = txn.edge(e);
      flat.AddEdge(map[edge.src], map[edge.dst], edge.label);
    });
  }
  return flat;
}

/// Materializes the scenario's transaction set (generator, then the
/// optional multilevel re-cut). Every returned graph is dense.
std::vector<LabeledGraph> BuildTransactions(const ScenarioConfig& config) {
  std::vector<LabeledGraph> txns =
      tnmine::synth::GenerateKkTransactions(config.generator).transactions;
  if (config.partitioner == ScenarioPartitioner::kNone) return txns;
  const LabeledGraph flat = FlattenDisjoint(txns);
  if (flat.num_edges() == 0) return {};
  tnmine::partition::MultilevelOptions options;
  options.num_partitions = std::max<std::size_t>(1, config.num_partitions);
  options.seed = config.generator.seed;
  const tnmine::partition::MultilevelResult cut =
      tnmine::partition::MultilevelPartition(flat, options);
  return tnmine::partition::ExtractPartitions(flat, cut.assignment);
}

tnmine::gspan::GspanResult RunGspan(const std::vector<LabeledGraph>& txns,
                                    const ScenarioConfig& config,
                                    std::size_t threads,
                                    const ResourceBudget& budget = {}) {
  tnmine::gspan::GspanOptions options;
  options.min_support = config.min_support;
  options.max_edges = config.max_edges;
  options.parallelism = Parallelism{threads};
  options.budget = budget;
  return tnmine::gspan::MineGspan(txns, options);
}

tnmine::fsg::FsgResult RunFsg(const std::vector<LabeledGraph>& txns,
                              const ScenarioConfig& config,
                              std::size_t threads,
                              const ResourceBudget& budget = {}) {
  tnmine::fsg::FsgOptions options;
  options.min_support = config.min_support;
  options.max_edges = config.max_edges;
  options.parallelism = Parallelism{threads};
  options.budget = budget;
  return tnmine::fsg::MineFsg(txns, options);
}

/// Source-based legs for the shard_equiv oracle (same knobs as
/// RunGspan/RunFsg, mined through a TransactionSource).
tnmine::gspan::GspanResult RunGspanSource(
    tnmine::graph::TransactionSource& source, const ScenarioConfig& config,
    std::size_t threads) {
  tnmine::gspan::GspanOptions options;
  options.min_support = config.min_support;
  options.max_edges = config.max_edges;
  options.parallelism = Parallelism{threads};
  return tnmine::gspan::MineGspan(source, options);
}

tnmine::fsg::FsgResult RunFsgSource(
    tnmine::graph::TransactionSource& source, const ScenarioConfig& config,
    std::size_t threads) {
  tnmine::fsg::FsgOptions options;
  options.min_support = config.min_support;
  options.max_edges = config.max_edges;
  options.parallelism = Parallelism{threads};
  return tnmine::fsg::MineFsg(source, options);
}

std::string DescribeMapDiff(const PatternMap& a, const char* a_name,
                            const PatternMap& b, const char* b_name) {
  for (const auto& [code, payload] : a) {
    auto it = b.find(code);
    if (it == b.end()) {
      return "pattern '" + code + "' (support " +
             std::to_string(payload.first) + ") found by " + a_name +
             " but not by " + b_name;
    }
    if (it->second.first != payload.first) {
      return "pattern '" + code + "' support " +
             std::to_string(payload.first) + " (" + a_name + ") vs " +
             std::to_string(it->second.first) + " (" + b_name + ")";
    }
    if (it->second.second != payload.second) {
      return "pattern '" + code + "' tid sets differ between " + a_name +
             " and " + b_name;
    }
  }
  for (const auto& [code, payload] : b) {
    if (a.find(code) == a.end()) {
      return "pattern '" + code + "' (support " +
             std::to_string(payload.first) + ") found by " + b_name +
             " but not by " + a_name;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Oracles. Each returns nullopt on agreement, a human-readable detail on
// disagreement. They all take the already-built transaction set so one
// generator run feeds every leg.

std::optional<std::string> OracleMinerEquiv(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  const PatternMap gspan = ToMap(RunGspan(txns, config, 1).patterns);
  const PatternMap fsg = ToMap(RunFsg(txns, config, 1).patterns);
  std::string diff = DescribeMapDiff(gspan, "gspan", fsg, "fsg");
  if (!diff.empty()) return "miner_equiv: " + diff;
  if (config.min_support <= 1) {
    // The degenerate-threshold contract (GspanOptions / FsgOptions): 0 and
    // 1 are the same threshold, for both miners.
    ScenarioConfig zero = config;
    zero.min_support = 0;
    ScenarioConfig one = config;
    one.min_support = 1;
    if (Fingerprint(RunGspan(txns, zero, 1).patterns) !=
        Fingerprint(RunGspan(txns, one, 1).patterns)) {
      return "miner_equiv: gspan min_support=0 differs from min_support=1";
    }
    if (Fingerprint(RunFsg(txns, zero, 1).patterns) !=
        Fingerprint(RunFsg(txns, one, 1).patterns)) {
      return "miner_equiv: fsg min_support=0 differs from min_support=1";
    }
  }
  return std::nullopt;
}

std::optional<std::string> OracleParallel(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  const std::size_t threads =
      static_cast<std::size_t>(std::max(2, config.num_threads));
  if (Fingerprint(RunGspan(txns, config, 1).patterns) !=
      Fingerprint(RunGspan(txns, config, threads).patterns)) {
    return "parallel: gspan with " + std::to_string(threads) +
           " threads is not byte-identical to sequential";
  }
  if (Fingerprint(RunFsg(txns, config, 1).patterns) !=
      Fingerprint(RunFsg(txns, config, threads).patterns)) {
    return "parallel: fsg with " + std::to_string(threads) +
           " threads is not byte-identical to sequential";
  }
  return std::nullopt;
}

std::optional<std::string> OracleEncoding(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  std::string sparse_gspan, sparse_fsg, bitmap_gspan, bitmap_fsg;
  {
    TidSet::ScopedEncodingPolicy policy(
        TidSet::EncodingPolicy::kForceSparse);
    sparse_gspan = Fingerprint(RunGspan(txns, config, 1).patterns);
    sparse_fsg = Fingerprint(RunFsg(txns, config, 1).patterns);
  }
  {
    TidSet::ScopedEncodingPolicy policy(
        TidSet::EncodingPolicy::kForceBitmap);
    bitmap_gspan = Fingerprint(RunGspan(txns, config, 1).patterns);
    bitmap_fsg = Fingerprint(RunFsg(txns, config, 1).patterns);
  }
  if (sparse_gspan != bitmap_gspan) {
    return "encoding: gspan output depends on the TidSet encoding";
  }
  if (sparse_fsg != bitmap_fsg) {
    return "encoding: fsg output depends on the TidSet encoding";
  }
  return std::nullopt;
}

std::optional<std::string> OracleBudgetPrefix(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  // Accounting-only budget (active, tick-unlimited): measures the
  // scenario's full deterministic tick cost without truncating anything.
  const auto accounting = [] { return ResourceBudget(BudgetLimits{}); };

  const tnmine::fsg::FsgResult fsg_full =
      RunFsg(txns, config, 1, accounting());
  if (fsg_full.work_ticks > 0) {
    BudgetLimits limits;
    limits.max_work_ticks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(fsg_full.work_ticks) *
               config.budget_fraction));
    const tnmine::fsg::FsgResult fsg_cut =
        RunFsg(txns, config, 1, ResourceBudget(limits));
    const std::string full = Fingerprint(fsg_full.patterns);
    const std::string cut = Fingerprint(fsg_cut.patterns);
    if (cut.size() > full.size() || full.compare(0, cut.size(), cut) != 0) {
      return "budget_prefix: tick-truncated fsg output is not a prefix of "
             "the unbudgeted pattern list (allotment " +
             std::to_string(limits.max_work_ticks) + " of " +
             std::to_string(fsg_full.work_ticks) + " ticks)";
    }
    if (fsg_cut.outcome == MiningOutcome::kComplete && cut != full) {
      return "budget_prefix: fsg reported kComplete but dropped patterns";
    }
  }

  const tnmine::gspan::GspanResult gspan_full =
      RunGspan(txns, config, 1, accounting());
  if (gspan_full.work_ticks > 0) {
    BudgetLimits limits;
    limits.max_work_ticks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(gspan_full.work_ticks) *
               config.budget_fraction));
    const tnmine::gspan::GspanResult gspan_cut =
        RunGspan(txns, config, 1, ResourceBudget(limits));
    // Seed subtrees are disjoint and each is mined depth-first on its own
    // tick slice, so the truncated output keeps a prefix of every seed's
    // unbudgeted patterns, with identical metadata (DESIGN.md §13).
    const auto full_blocks = SeedBlocks(gspan_full.patterns);
    for (const auto& [seed, cut] : SeedBlocks(gspan_cut.patterns)) {
      const auto it = full_blocks.find(seed);
      if (it == full_blocks.end() || cut.size() > it->second.size() ||
          it->second.compare(0, cut.size(), cut) != 0) {
        return "budget_prefix: tick-truncated gspan output for seed " +
               tnmine::gspan::DfsCode({seed}).ToString() +
               " is not a prefix of that seed's unbudgeted patterns";
      }
    }
    if (gspan_cut.outcome == MiningOutcome::kComplete &&
        Fingerprint(gspan_cut.patterns) != Fingerprint(gspan_full.patterns)) {
      return "budget_prefix: gspan reported kComplete but its output "
             "differs from the unbudgeted run";
    }
  }
  return std::nullopt;
}

std::optional<std::string> OracleSupportMonotone(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  const std::size_t low = std::max<std::size_t>(1, config.min_support);
  ScenarioConfig low_config = config;
  low_config.min_support = low;
  ScenarioConfig high_config = config;
  high_config.min_support = low + 1;
  const PatternMap at_low = ToMap(RunGspan(txns, low_config, 1).patterns);
  const PatternMap at_high = ToMap(RunGspan(txns, high_config, 1).patterns);
  for (const auto& [code, payload] : at_low) {
    if (payload.first < low) {
      return "support_monotone: pattern '" + code + "' reported support " +
             std::to_string(payload.first) + " below the threshold " +
             std::to_string(low);
    }
  }
  for (const auto& [code, payload] : at_high) {
    if (payload.first < low + 1) {
      return "support_monotone: pattern '" + code +
             "' survived min_support " + std::to_string(low + 1) +
             " with support " + std::to_string(payload.first);
    }
    auto it = at_low.find(code);
    if (it == at_low.end()) {
      return "support_monotone: pattern '" + code +
             "' found at min_support " + std::to_string(low + 1) +
             " but not at " + std::to_string(low);
    }
    if (it->second != payload) {
      return "support_monotone: pattern '" + code +
             "' changed support/tids when the threshold rose";
    }
  }
  return std::nullopt;
}

std::optional<std::string> OraclePartition(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  // Algorithm 1 over the flattened network: more repetitions may only add
  // patterns (the union keeps the max support), and the driver's result
  // must not depend on which miner ran underneath.
  const LabeledGraph flat = FlattenDisjoint(txns);
  if (flat.num_edges() == 0) return std::nullopt;
  auto run = [&](tnmine::core::MinerKind miner, std::size_t reps) {
    tnmine::core::StructuralMiningOptions options;
    options.num_partitions = std::max<std::size_t>(1, config.num_partitions);
    options.repetitions = reps;
    options.min_support = config.min_support;
    options.max_pattern_edges = config.max_edges;
    options.miner = miner;
    options.seed = config.generator.seed;
    options.parallelism = Parallelism{1};
    return tnmine::core::MineStructuralPatterns(flat, options);
  };
  const auto one = run(tnmine::core::MinerKind::kFsg, 1);
  const auto three = run(tnmine::core::MinerKind::kFsg, 3);
  for (const FrequentPattern* p : one.registry.SortedBySupport()) {
    const FrequentPattern* in_three = three.registry.Find(p->code);
    if (in_three == nullptr) {
      return "partition: pattern '" + p->code +
             "' from the 1-repetition union is missing from the "
             "3-repetition union";
    }
    if (in_three->support < p->support) {
      return "partition: pattern '" + p->code + "' support dropped from " +
             std::to_string(p->support) + " (1 rep) to " +
             std::to_string(in_three->support) + " (3 reps)";
    }
  }
  const auto three_gspan = run(tnmine::core::MinerKind::kGspan, 3);
  if (three_gspan.registry.size() != three.registry.size()) {
    return "partition: structural driver found " +
           std::to_string(three.registry.size()) + " patterns under fsg vs " +
           std::to_string(three_gspan.registry.size()) + " under gspan";
  }
  for (const FrequentPattern* p : three.registry.SortedBySupport()) {
    const FrequentPattern* other = three_gspan.registry.Find(p->code);
    if (other == nullptr || other->support != p->support) {
      return "partition: structural driver disagrees across miners on "
             "pattern '" +
             p->code + "'";
    }
  }
  return std::nullopt;
}

std::optional<std::string> OracleShardEquiv(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  const std::string fsg_ref = Fingerprint(RunFsg(txns, config, 1).patterns);
  const std::string gspan_ref =
      Fingerprint(RunGspan(txns, config, 1).patterns);
  const std::size_t threads =
      static_cast<std::size_t>(std::max(2, config.num_threads));

  std::vector<tnmine::graph::GraphView> views;
  views.reserve(txns.size());
  for (const LabeledGraph& t : txns) views.emplace_back(t);

  const std::size_t n = txns.size();
  const auto check = [&](tnmine::graph::TransactionSource& source,
                         const std::string& leg)
      -> std::optional<std::string> {
    for (const std::size_t t : {std::size_t{1}, threads}) {
      if (Fingerprint(RunFsgSource(source, config, t).patterns) !=
          fsg_ref) {
        return "shard_equiv: fsg over " + leg + " with " +
               std::to_string(t) +
               " threads is not byte-identical to the in-memory run";
      }
      if (Fingerprint(RunGspanSource(source, config, t).patterns) !=
          gspan_ref) {
        return "shard_equiv: gspan over " + leg + " with " +
               std::to_string(t) +
               " threads is not byte-identical to the in-memory run";
      }
    }
    return std::nullopt;
  };

  // In-memory shard cuts: the file-free multi-shard aggregation path.
  for (const std::size_t cut : {std::max<std::size_t>(1, n / 3),
                                std::max<std::size_t>(1, (n + 1) / 2)}) {
    tnmine::graph::InMemoryTransactionSource source(views, cut);
    if (auto diff = check(source, "in-memory shards of " +
                                      std::to_string(cut))) {
      return diff;
    }
  }

  // Real shard files: serialize, mmap, and mine through the LRU cache.
  if (n > 0) {
    char tmpl[] = "/tmp/shard-equiv-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      return std::string("shard_equiv: mkdtemp failed");
    }
    const std::string dir = tmpl;
    const std::size_t cut = std::max<std::size_t>(1, (n + 2) / 3);
    std::size_t shards = 0;
    std::string error;
    bool write_ok = true;
    for (std::size_t start = 0; start < n && write_ok; start += cut) {
      tnmine::graph::ShardWriter writer(
          dir + "/" + tnmine::graph::ShardFileName(shards));
      for (std::size_t i = start; i < std::min(start + cut, n); ++i) {
        writer.Add(views[i]);
      }
      write_ok = writer.Finish(&error);
      ++shards;
    }
    std::optional<std::string> diff;
    if (!write_ok) {
      diff = "shard_equiv: shard write failed: " + error;
    } else {
      tnmine::graph::ShardedTransactionSource::Options options;
      options.max_resident_shards = 2;
      options.verify_fingerprints = true;
      const auto source = tnmine::graph::ShardedTransactionSource::Open(
          dir, options, &error);
      diff = source == nullptr
                 ? std::optional<std::string>(
                       "shard_equiv: cannot open shard dir: " + error)
                 : check(*source, "mmapped shard files of " +
                                      std::to_string(cut));
    }
    for (std::size_t i = 0; i < shards; ++i) {
      unlink((dir + "/" + tnmine::graph::ShardFileName(i)).c_str());
    }
    rmdir(dir.c_str());
    if (diff.has_value()) return diff;
  }
  return std::nullopt;
}

std::optional<std::string> OracleSubdueInstances(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  using tnmine::graph::EdgeId;
  using tnmine::graph::VertexId;
  namespace subdue = tnmine::subdue;
  const LabeledGraph host = FlattenDisjoint(txns);
  // SUBDUE's knobs are drawn from the generator seed, so a replay (and a
  // minimized sidecar, which keeps the seed) reruns the same search.
  Rng rng(config.generator.seed ^ 0x5B0D0E5ULL);
  constexpr subdue::EvalMethod kMethods[] = {subdue::EvalMethod::kMdl,
                                             subdue::EvalMethod::kSize,
                                             subdue::EvalMethod::kSetCover};
  subdue::SubdueOptions options;
  options.method = kMethods[rng.NextBounded(3)];
  options.allow_overlap = rng.NextBool();
  options.max_instances = rng.NextBool() ? 0 : 1 + rng.NextBounded(6);
  options.beam_width = 2 + rng.NextBounded(3);
  options.limit = 8 + rng.NextBounded(33);
  options.num_best = options.limit;  // report every evaluated substructure
  options.max_pattern_edges = config.max_edges;
  const subdue::SubdueResult result =
      subdue::DiscoverSubstructures(host, options);
  const std::string where =
      " (method " + std::to_string(static_cast<int>(options.method)) +
      ", max_instances " + std::to_string(options.max_instances) + ")";
  for (const subdue::Substructure& sub : result.best) {
    if (options.max_instances != 0 &&
        sub.instances.size() > options.max_instances) {
      return "subdue_instances: substructure '" + sub.code + "' keeps " +
             std::to_string(sub.instances.size()) + " instances" + where;
    }
    std::set<std::pair<std::vector<VertexId>, std::vector<EdgeId>>> seen;
    std::vector<char> used(host.num_vertices(), 0);
    std::size_t disjoint = 0;
    for (const subdue::Instance& inst : sub.instances) {
      // The instance's own local graph, vertices in instance order.
      LabeledGraph local;
      std::vector<VertexId> position(host.num_vertices(),
                                     tnmine::graph::kInvalidVertex);
      for (const VertexId v : inst.vertices) {
        if (v >= host.num_vertices()) {
          return "subdue_instances: an instance of '" + sub.code +
                 "' names vertex " + std::to_string(v) + where;
        }
        position[v] = local.AddVertex(host.vertex_label(v));
      }
      for (const EdgeId e : inst.edges) {
        if (e >= host.edge_capacity() ||
            position[host.edge(e).src] == tnmine::graph::kInvalidVertex ||
            position[host.edge(e).dst] == tnmine::graph::kInvalidVertex) {
          return "subdue_instances: an instance of '" + sub.code +
                 "' has an edge outside its vertex list" + where;
        }
        const auto& edge = host.edge(e);
        local.AddEdge(position[edge.src], position[edge.dst], edge.label);
      }
      if (tnmine::iso::CanonicalCode(local) != sub.code) {
        return "subdue_instances: an instance of '" + sub.code +
               "' is a '" + tnmine::iso::CanonicalCode(local) + "'" + where;
      }
      std::vector<VertexId> vertices = inst.vertices;
      std::vector<EdgeId> edges = inst.edges;
      std::sort(vertices.begin(), vertices.end());
      std::sort(edges.begin(), edges.end());
      if (!seen.emplace(std::move(vertices), std::move(edges)).second) {
        return "subdue_instances: substructure '" + sub.code +
               "' lists one instance twice" + where;
      }
      if (std::none_of(inst.vertices.begin(), inst.vertices.end(),
                       [&](VertexId v) { return used[v] != 0; })) {
        for (const VertexId v : inst.vertices) used[v] = 1;
        ++disjoint;
      }
    }
    if (disjoint != sub.non_overlapping_instances) {
      return "subdue_instances: substructure '" + sub.code + "' reports " +
             std::to_string(sub.non_overlapping_instances) +
             " disjoint instances, a greedy recount finds " +
             std::to_string(disjoint) + where;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------

/// The FSG-centred oracles again, on the scenarios of another draw; `leg`
/// names the draw in a failure.
std::optional<std::string> OracleFsgCentred(
    const char* leg, const std::vector<LabeledGraph>& txns,
    const ScenarioConfig& config) {
  for (const auto& oracle : {OracleMinerEquiv, OracleParallel,
                             OracleBudgetPrefix, OracleShardEquiv}) {
    if (std::optional<std::string> failure = oracle(txns, config)) {
      return leg + (": " + *failure);
    }
  }
  return std::nullopt;
}

std::optional<std::string> OracleSymmetric(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  return OracleFsgCentred("symmetric", txns, config);
}

std::optional<std::string> OracleLabelRich(
    const std::vector<LabeledGraph>& txns, const ScenarioConfig& config) {
  return OracleFsgCentred("label_rich", txns, config);
}

struct Oracle {
  const char* name;
  std::function<std::optional<std::string>(const std::vector<LabeledGraph>&,
                                           const ScenarioConfig&)>
      check;
  /// Draws an iteration's scenario.
  ScenarioConfig (*draw)(Rng&) = tnmine::synth::DrawScenario;
};

const std::vector<Oracle>& Oracles() {
  static const std::vector<Oracle> oracles = {
      {"miner_equiv", OracleMinerEquiv},
      {"parallel", OracleParallel},
      {"encoding", OracleEncoding},
      {"budget_prefix", OracleBudgetPrefix},
      {"support_monotone", OracleSupportMonotone},
      {"partition", OraclePartition},
      {"shard_equiv", OracleShardEquiv},
      {"subdue_instances", OracleSubdueInstances},
      {"symmetric", OracleSymmetric, tnmine::synth::DrawSymmetricScenario},
      {"label_rich", OracleLabelRich, tnmine::synth::DrawLabelRichScenario},
  };
  return oracles;
}

/// Runs one oracle over one scenario, translating crashes-by-exception
/// into failure details (a thrown TNMINE_CHECK inside a miner is exactly
/// the kind of edge-case bug the fuzzer exists to flush out).
std::optional<std::string> RunOracle(const Oracle& oracle,
                                     const ScenarioConfig& config) {
  try {
    const std::vector<LabeledGraph> txns = BuildTransactions(config);
    return oracle.check(txns, config);
  } catch (const std::exception& e) {
    return std::string("uncaught exception: ") + e.what();
  }
}

/// Greedy scenario shrinking: repeatedly tries simpler configs (texture
/// knobs off, fewer/smaller transactions, no partitioner, fewer labels)
/// and keeps any that still fail the same oracle. Bounded work: each pass
/// tries a fixed candidate list, and every accepted candidate strictly
/// shrinks the scenario.
ScenarioConfig MinimizeScenario(const Oracle& oracle, ScenarioConfig config) {
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 16) {
    changed = false;
    std::vector<ScenarioConfig> candidates;
    auto push = [&](auto&& mutate) {
      ScenarioConfig c = config;
      mutate(c);
      candidates.push_back(c);
    };
    if (config.partitioner != ScenarioPartitioner::kNone) {
      push([](ScenarioConfig& c) {
        c.partitioner = ScenarioPartitioner::kNone;
      });
    }
    if (config.generator.hub_skew > 0) {
      push([](ScenarioConfig& c) { c.generator.hub_skew = 0; });
    }
    if (config.generator.seasonality_period > 0) {
      push([](ScenarioConfig& c) { c.generator.seasonality_period = 0; });
    }
    if (config.generator.disruption_rate > 0) {
      push([](ScenarioConfig& c) { c.generator.disruption_rate = 0; });
    }
    if (config.generator.motif_concentration > 0) {
      push([](ScenarioConfig& c) { c.generator.motif_concentration = 0; });
    }
    if (config.generator.num_transactions > 1) {
      push([](ScenarioConfig& c) { c.generator.num_transactions /= 2; });
      push([](ScenarioConfig& c) { c.generator.num_transactions -= 1; });
    }
    if (config.generator.num_seed_patterns > 0) {
      push([](ScenarioConfig& c) { c.generator.num_seed_patterns -= 1; });
    }
    if (config.generator.avg_transaction_edges > 2.0) {
      push([](ScenarioConfig& c) { c.generator.avg_transaction_edges /= 2; });
    }
    if (config.generator.num_vertex_labels > 1) {
      push([](ScenarioConfig& c) { c.generator.num_vertex_labels = 1; });
    }
    if (config.generator.num_edge_labels > 1) {
      push([](ScenarioConfig& c) { c.generator.num_edge_labels = 1; });
    }
    if (config.max_edges > 1) {
      push([](ScenarioConfig& c) { c.max_edges -= 1; });
    }
    for (const ScenarioConfig& candidate : candidates) {
      if (RunOracle(oracle, candidate).has_value()) {
        config = candidate;
        changed = true;
        break;
      }
    }
  }
  return config;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--iters M] [--oracle NAME|all]\n"
      "          [--artifact-dir DIR] [--replay FILE] [--corpus DIR]\n"
      "oracles: miner_equiv parallel encoding budget_prefix "
      "support_monotone partition shard_equiv subdue_instances "
      "symmetric label_rich\n",
      argv0);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = bytes.empty() ||
                  std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                      bytes.size();
  return std::fclose(f) == 0 && ok;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n = 0;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// Persists the failing scenario's recipe sidecar (fuzz_io shape): replay
/// metadata first, then the minimized config — the whole file parses back
/// through ParseScenario (metadata keys are ignored by the parser).
void WriteFailureArtifact(const std::string& dir, const Oracle& oracle,
                          std::uint64_t base_seed, std::uint64_t iteration,
                          std::uint64_t iter_seed, const std::string& detail,
                          const ScenarioConfig& minimized) {
  const std::string path = dir + "/failing_scenario_" +
                           std::string(oracle.name) + "_" +
                           std::to_string(iter_seed) + ".scenario";
  std::string meta;
  meta += "oracle: " + std::string(oracle.name) + "\n";
  meta += "base_seed: " + std::to_string(base_seed) + "\n";
  meta += "iteration: " + std::to_string(iteration) + "\n";
  meta += "iter_seed: " + std::to_string(iter_seed) + "\n";
  meta += "detail: " + detail + "\n";
  meta += "replay: scenario_fuzz --oracle " + std::string(oracle.name) +
          " --seed " + std::to_string(iter_seed) + " --iters 1\n";
  meta += "minimized_replay: scenario_fuzz --replay " + path + "\n";
  meta += tnmine::synth::SerializeScenario(minimized);
  if (!WriteFile(path, meta)) {
    std::fprintf(stderr, "scenario_fuzz: cannot write artifact under %s\n",
                 dir.c_str());
    return;
  }
  std::fprintf(stderr, "scenario_fuzz: failing scenario saved to %s\n",
               path.c_str());
}

/// Replays one scenario file against its recorded oracle (or all oracles
/// when the file carries no "oracle:" line). Returns true on agreement.
bool ReplayFile(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "scenario_fuzz: cannot read %s\n", path.c_str());
    return false;
  }
  ScenarioConfig config;
  std::string error;
  if (!tnmine::synth::ParseScenario(text, &config, &error)) {
    std::fprintf(stderr, "scenario_fuzz: %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  std::string oracle_name = "all";
  tnmine::ForEachLine(text, [&](std::size_t, std::string_view line) {
    if (line.rfind("oracle:", 0) == 0) {
      std::string_view v = line.substr(std::strlen("oracle:"));
      while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
      oracle_name = std::string(v);
      return false;
    }
    return true;
  });
  bool ok = true;
  for (const Oracle& oracle : Oracles()) {
    if (oracle_name != "all" && oracle_name != oracle.name) continue;
    const std::optional<std::string> failure = RunOracle(oracle, config);
    if (failure.has_value()) {
      std::fprintf(stderr, "scenario_fuzz: %s: %s FAILS: %s\n", path.c_str(),
                   oracle.name, failure->c_str());
      ok = false;
    }
  }
  if (ok) {
    std::printf("scenario_fuzz: %s OK (%s)\n", path.c_str(),
                oracle_name.c_str());
  }
  return ok;
}

/// Replays every *.scenario file under `dir`, in name order.
bool ReplayCorpus(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    std::fprintf(stderr, "scenario_fuzz: cannot open corpus dir %s\n",
                 dir.c_str());
    return false;
  }
  std::vector<std::string> files;
  while (const dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    const std::string suffix = ".scenario";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      files.push_back(dir + "/" + name);
    }
  }
  closedir(d);
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "scenario_fuzz: no *.scenario files in %s\n",
                 dir.c_str());
    return false;
  }
  bool ok = true;
  for (const std::string& file : files) ok = ReplayFile(file) && ok;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t iters = 200;
  std::string oracle_name = "all";
  std::string artifact_dir;
  std::string replay_path;
  std::string corpus_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "scenario_fuzz: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (arg == "--iters") {
      iters = std::strtoull(next("--iters"), nullptr, 10);
    } else if (arg == "--oracle") {
      oracle_name = next("--oracle");
    } else if (arg == "--artifact-dir") {
      artifact_dir = next("--artifact-dir");
    } else if (arg == "--replay") {
      replay_path = next("--replay");
    } else if (arg == "--corpus") {
      corpus_dir = next("--corpus");
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "scenario_fuzz: unknown argument '%s'\n",
                   arg.c_str());
      return Usage(argv[0]);
    }
  }

  if (!replay_path.empty()) return ReplayFile(replay_path) ? 0 : 1;
  if (!corpus_dir.empty()) return ReplayCorpus(corpus_dir) ? 0 : 1;

  bool matched = false;
  for (const Oracle& oracle : Oracles()) {
    if (oracle_name != "all" && oracle_name != oracle.name) continue;
    matched = true;
    for (std::uint64_t i = 0; i < iters; ++i) {
      // Independent per-iteration seed (golden-ratio stride), so a failure
      // replays alone: --seed <iter seed> --iters 1.
      const std::uint64_t iter_seed = seed + i * 0x9E3779B97F4A7C15ULL;
      Rng rng(iter_seed);
      const ScenarioConfig config = oracle.draw(rng);
      const std::optional<std::string> failure = RunOracle(oracle, config);
      if (!failure.has_value()) continue;
      std::fprintf(stderr,
                   "scenario_fuzz FAILURE\n  oracle:    %s\n  base seed: "
                   "%llu\n  iteration: %llu\n  iter seed: %llu\n  detail:  "
                   "  %s\n",
                   oracle.name, static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(iter_seed),
                   failure->c_str());
      if (!artifact_dir.empty()) {
        const ScenarioConfig minimized = MinimizeScenario(oracle, config);
        WriteFailureArtifact(artifact_dir, oracle, seed, i, iter_seed,
                             *failure, minimized);
      }
      return 1;
    }
    std::printf("scenario_fuzz: %-16s %llu iterations OK\n", oracle.name,
                static_cast<unsigned long long>(iters));
  }
  if (!matched) {
    std::fprintf(stderr, "scenario_fuzz: unknown oracle '%s'\n",
                 oracle_name.c_str());
    return Usage(argv[0]);
  }
  return 0;
}
