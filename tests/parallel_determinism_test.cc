// Determinism contract of the parallel mining core: for any thread count,
// gSpan, FSG and the Algorithm-1 repetition driver must return exactly
// what the single-threaded run returns — same patterns, same order, same
// graphs, supports and tids — and the canonical-code cache must never
// change an answer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/scratch.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/miner.h"
#include "fsg/fsg.h"
#include "graph/graph_view.h"
#include "gspan/gspan.h"
#include "iso/canonical.h"
#include "iso/vf2.h"
#include "pattern/tid_set.h"
#include "synth/kk_generator.h"
#include "synth/planted.h"

namespace tnmine {
namespace {

using pattern::FrequentPattern;

/// Seeded paper-style transaction set (the KK generator the paper's
/// footnote-3 experiments use).
std::vector<graph::LabeledGraph> TestTransactions(std::uint64_t seed) {
  synth::KkOptions options;
  options.num_transactions = 80;
  options.avg_transaction_edges = 14;
  options.num_seed_patterns = 8;
  options.avg_pattern_edges = 3;
  options.num_vertex_labels = 6;
  options.num_edge_labels = 3;
  options.seed = seed;
  return synth::GenerateKkTransactions(options).transactions;
}

void ExpectIdenticalPatternLists(const std::vector<FrequentPattern>& a,
                                 const std::vector<FrequentPattern>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].code, b[i].code) << "index " << i;
    EXPECT_EQ(a[i].support, b[i].support) << "index " << i;
    EXPECT_EQ(a[i].tids, b[i].tids) << "index " << i;
    EXPECT_TRUE(a[i].graph.StructurallyEqual(b[i].graph)) << "index " << i;
  }
}

class ParallelGspanTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelGspanTest, ParallelEqualsSequentialExactly) {
  const auto txns = TestTransactions(GetParam());
  gspan::GspanOptions options;
  options.min_support = 4;
  options.max_edges = 4;
  options.parallelism = common::Parallelism::Serial();
  const gspan::GspanResult sequential = gspan::MineGspan(txns, options);
  ASSERT_FALSE(sequential.patterns.empty());

  for (std::size_t threads : {2u, 4u, 7u}) {
    options.parallelism = common::Parallelism{threads};
    const gspan::GspanResult parallel = gspan::MineGspan(txns, options);
    ExpectIdenticalPatternLists(sequential.patterns, parallel.patterns);
    EXPECT_EQ(sequential.patterns_explored, parallel.patterns_explored);
    EXPECT_EQ(sequential.max_level, parallel.max_level);
  }
}

class ParallelFsgTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelFsgTest, ParallelEqualsSequentialExactly) {
  const auto txns = TestTransactions(GetParam());
  fsg::FsgOptions options;
  options.min_support = 4;
  options.max_edges = 3;
  options.parallelism = common::Parallelism::Serial();
  const fsg::FsgResult sequential = fsg::MineFsg(txns, options);
  ASSERT_FALSE(sequential.patterns.empty());

  for (std::size_t threads : {2u, 4u, 7u}) {
    options.parallelism = common::Parallelism{threads};
    const fsg::FsgResult parallel = fsg::MineFsg(txns, options);
    ExpectIdenticalPatternLists(sequential.patterns, parallel.patterns);
    EXPECT_EQ(sequential.levels_completed, parallel.levels_completed);
    EXPECT_EQ(sequential.candidates_per_level,
              parallel.candidates_per_level);
    EXPECT_EQ(sequential.frequent_per_level, parallel.frequent_per_level);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelGspanTest,
                         ::testing::Values(301, 302, 303));
INSTANTIATE_TEST_SUITE_P(Seeds, ParallelFsgTest,
                         ::testing::Values(301, 302, 303));

// The TID-set encoding is an implementation detail: forcing every set
// sparse or every set bitmap must mine byte-identical patterns — same
// order, codes, supports, tid lists — at 1, 2 and 4 threads, with the
// same tick ledger (DESIGN.md §12).
class FsgEncodingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsgEncodingTest, BitmapAndSparseMineIdenticalPatternsAtAnyThreads) {
  const auto txns = TestTransactions(GetParam());
  fsg::FsgOptions options;
  options.min_support = 4;
  options.max_edges = 3;

  std::vector<fsg::FsgResult> results;
  for (const pattern::TidSet::EncodingPolicy policy :
       {pattern::TidSet::EncodingPolicy::kForceSparse,
        pattern::TidSet::EncodingPolicy::kForceBitmap}) {
    const pattern::TidSet::ScopedEncodingPolicy scoped(policy);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      options.parallelism = threads == 1 ? common::Parallelism::Serial()
                                         : common::Parallelism{threads};
      results.push_back(fsg::MineFsg(txns, options));
    }
  }
  ASSERT_FALSE(results.front().patterns.empty());
  for (std::size_t i = 1; i < results.size(); ++i) {
    ExpectIdenticalPatternLists(results.front().patterns,
                                results[i].patterns);
    EXPECT_EQ(results.front().work_ticks, results[i].work_ticks);
    EXPECT_EQ(results.front().frequent_per_level,
              results[i].frequent_per_level);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsgEncodingTest,
                         ::testing::Values(311, 312));

TEST(ParallelStructuralMiningTest, ParallelRepetitionsEqualSequential) {
  synth::PlantedOptions planted;
  planted.num_patterns = 4;
  planted.pattern_edges = 3;
  planted.instances_per_pattern = 30;
  planted.noise_vertices = 50;
  planted.noise_edges = 100;
  planted.seed = 17;
  const synth::PlantedResult data = synth::GeneratePlantedGraph(planted);

  core::StructuralMiningOptions options;
  options.num_partitions = 30;
  options.repetitions = 4;
  options.min_support = 10;
  options.max_pattern_edges = 3;
  options.seed = 5;
  options.parallelism = common::Parallelism::Serial();
  const auto sequential = core::MineStructuralPatterns(data.graph, options);
  options.parallelism = common::Parallelism{4};
  const auto parallel = core::MineStructuralPatterns(data.graph, options);

  EXPECT_EQ(sequential.partitions_per_repetition,
            parallel.partitions_per_repetition);
  EXPECT_EQ(sequential.patterns_per_repetition,
            parallel.patterns_per_repetition);
  ASSERT_EQ(sequential.registry.size(), parallel.registry.size());
  const auto seq_sorted = sequential.registry.SortedBySupport();
  const auto par_sorted = parallel.registry.SortedBySupport();
  for (std::size_t i = 0; i < seq_sorted.size(); ++i) {
    EXPECT_EQ(seq_sorted[i]->code, par_sorted[i]->code);
    EXPECT_EQ(seq_sorted[i]->support, par_sorted[i]->support);
  }
}

// The flat-memory VF2 kernel under concurrency: many lanes matching
// against shared GraphView snapshots (each lane with its own matcher —
// matchers hold per-run state) must produce the sequential counts.
TEST(ParallelVf2Test, SharedViewsMatchSequentialCounts) {
  const auto txns = TestTransactions(404);
  gspan::GspanOptions mine;
  mine.min_support = 4;
  mine.max_edges = 2;
  mine.parallelism = common::Parallelism::Serial();
  std::vector<graph::LabeledGraph> patterns;
  for (const auto& p : gspan::MineGspan(txns, mine).patterns) {
    if (p.graph.num_edges() == 2) patterns.push_back(p.graph);
  }
  ASSERT_FALSE(patterns.empty());

  std::vector<graph::GraphView> views;
  views.reserve(txns.size());
  for (const auto& t : txns) views.emplace_back(t);

  std::vector<std::uint64_t> sequential(patterns.size() * views.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    iso::SubgraphMatcher matcher(patterns[p]);
    for (std::size_t t = 0; t < views.size(); ++t) {
      sequential[p * views.size() + t] = matcher.CountEmbeddings(views[t]);
    }
  }
  for (std::size_t threads : {2u, 4u}) {
    const std::vector<std::uint64_t> parallel =
        common::ParallelMap<std::uint64_t>(
            common::Parallelism{threads}, sequential.size(),
            [&](std::size_t i) {
              iso::SubgraphMatcher matcher(patterns[i / views.size()]);
              return matcher.CountEmbeddings(views[i % views.size()]);
            });
    EXPECT_EQ(parallel, sequential) << threads << " threads";
  }
}

/// Deltas of the snapshot/scratch telemetry across one mining run. Unlike
/// threadpool/*, these are part of the determinism contract (DESIGN.md
/// §9): graphview/*, FSG's generation and witness counters, the
/// canonical-code cache's misses and codes (from a cleared cache) and
/// scratch/acquires must not depend on the thread count.
/// (scratch/reuse_hits and scratch/fresh_allocs DO depend on which thread
/// ran what, and are deliberately absent here.)
std::vector<std::uint64_t> KernelCounterDeltas(std::size_t threads) {
  static const char* kNames[] = {"graphview/views_built",
                                 "graphview/vertices_snapshot",
                                 "graphview/edges_snapshot",
                                 "fsg/witness_hits",
                                 "fsg/parent_searches",
                                 "fsg/closure_lookups",
                                 "fsg/closure_fallbacks",
                                 "fsg/extensions_not_canonical",
                                 "iso/cache_misses",
                                 "iso/codes_computed"};
  const auto txns = TestTransactions(505);
  const auto before = telemetry::Registry::Global().Snapshot().counters;
  const common::ScratchStats scratch_before = common::GetScratchStats();
  fsg::FsgOptions fsg_options;
  fsg_options.min_support = 4;
  fsg_options.max_edges = 4;
  fsg_options.parallelism = common::Parallelism{threads};
  iso::ClearCanonicalCodeCache();  // cache state must not leak across runs
  (void)fsg::MineFsg(txns, fsg_options);
  gspan::GspanOptions gspan_options;
  gspan_options.min_support = 4;
  gspan_options.max_edges = 3;
  gspan_options.parallelism = common::Parallelism{threads};
  iso::ClearCanonicalCodeCache();  // cache state must not leak across runs
  (void)gspan::MineGspan(txns, gspan_options);
  const auto after = telemetry::Registry::Global().Snapshot().counters;
  std::vector<std::uint64_t> deltas;
  for (const char* name : kNames) {
    const auto get = [](const std::map<std::string, std::uint64_t>& m,
                        const char* key) {
      const auto it = m.find(key);
      return it == m.end() ? std::uint64_t{0} : it->second;
    };
    deltas.push_back(get(after, name) - get(before, name));
  }
  deltas.push_back(common::GetScratchStats().acquires -
                   scratch_before.acquires);
  return deltas;
}

TEST(KernelTelemetryTest, SnapshotAndScratchCountersAreScheduleIndependent) {
  iso::ClearCanonicalCodeCache();
  const auto serial = KernelCounterDeltas(1);
  EXPECT_EQ(KernelCounterDeltas(2), serial);
  EXPECT_EQ(KernelCounterDeltas(4), serial);
}

TEST(CanonicalCodeCacheTest, CachedCodeMatchesUncachedOnRepeatedLookups) {
  iso::ClearCanonicalCodeCache();
  const auto txns = TestTransactions(909);
  for (const auto& g : txns) {
    const std::string expected = iso::CanonicalCode(g);
    EXPECT_EQ(iso::CanonicalCodeCached(g), expected);  // miss
    EXPECT_EQ(iso::CanonicalCodeCached(g), expected);  // hit
  }
  const auto stats = iso::GetCanonicalCacheStats();
  EXPECT_GE(stats.hits, txns.size());
  EXPECT_GE(stats.misses, 1u);
}

TEST(CanonicalCodeCacheTest, ConcurrentLookupsAreConsistent) {
  iso::ClearCanonicalCodeCache();
  const auto txns = TestTransactions(910);
  std::vector<std::string> expected;
  expected.reserve(txns.size());
  for (const auto& g : txns) expected.push_back(iso::CanonicalCode(g));
  // Hammer the cache from many lanes, repeatedly visiting each graph.
  constexpr std::size_t kRounds = 8;
  const std::vector<std::string> got =
      common::ParallelMap<std::string>(
          common::Parallelism{8}, txns.size() * kRounds,
          [&](std::size_t i) {
            return iso::CanonicalCodeCached(txns[i % txns.size()]);
          });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i % txns.size()]);
  }
}

TEST(CanonicalCodeCacheTest, ConcurrentMissesComputeEachCodeOnce) {
  // Rounds of graphs the cache has never seen, each asked for by 8 lanes
  // at once: one lane misses and codes it, the others wait for that code
  // and count hits. The graphs are circulants (every vertex alike), so
  // each code's search runs long enough for the asks to overlap.
  constexpr std::size_t kRounds = 6;
  constexpr std::size_t kGraphs = 16;
  constexpr std::size_t kAsks = 8;
  auto codes_computed = [] {
    const auto counters = telemetry::Registry::Global().Snapshot().counters;
    const auto it = counters.find("iso/codes_computed");
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  iso::ClearCanonicalCodeCache();
  std::uint64_t computed = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<graph::LabeledGraph> graphs;
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < kGraphs; ++i) {
      // Edge labels unique to (round, i) make every graph new.
      const auto label = static_cast<graph::Label>(1 + round * kGraphs + i);
      graph::LabeledGraph g;
      for (int v = 0; v < 12; ++v) g.AddVertex(0);
      for (graph::VertexId v = 0; v < 12; ++v) {
        g.AddEdge(v, (v + 1) % 12, label);
        g.AddEdge(v, (v + 3) % 12, label);
      }
      expected.push_back(iso::CanonicalCode(g));
      graphs.push_back(std::move(g));
    }
    const std::uint64_t before = codes_computed();
    const std::vector<std::string> got = common::ParallelMap<std::string>(
        common::Parallelism{8}, kGraphs * kAsks, [&](std::size_t i) {
          return iso::CanonicalCodeCached(graphs[i / kAsks]);
        });
    computed += codes_computed() - before;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i / kAsks]);
    }
  }
  const auto stats = iso::GetCanonicalCacheStats();
  EXPECT_EQ(stats.misses, kRounds * kGraphs);
  EXPECT_EQ(stats.hits, kRounds * kGraphs * (kAsks - 1));
#if TNMINE_TELEMETRY_ENABLED
  EXPECT_EQ(computed, kRounds * kGraphs);
#endif
  (void)computed;
}

TEST(CanonicalCodeCacheTest, ClearResetsStats) {
  iso::ClearCanonicalCodeCache();
  const auto stats = iso::GetCanonicalCacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

}  // namespace
}  // namespace tnmine
