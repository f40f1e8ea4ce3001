#include "gspan/gspan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "fsg/fsg.h"
#include "graph/algorithms.h"
#include "iso/canonical.h"
#include "iso/vf2.h"

namespace tnmine::gspan {
namespace {

using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

LabeledGraph Edge1(Label a, Label b, Label e) {
  LabeledGraph g;
  const VertexId va = g.AddVertex(a);
  const VertexId vb = g.AddVertex(b);
  g.AddEdge(va, vb, e);
  return g;
}

LabeledGraph Chain(int edges, Label v, Label e) {
  LabeledGraph g;
  VertexId prev = g.AddVertex(v);
  for (int i = 0; i < edges; ++i) {
    const VertexId next = g.AddVertex(v);
    g.AddEdge(prev, next, e);
    prev = next;
  }
  return g;
}

std::vector<LabeledGraph> RandomTransactions(std::uint64_t seed,
                                             std::size_t count,
                                             std::size_t vertices,
                                             std::size_t edges, int vlabels,
                                             int elabels) {
  Rng rng(seed);
  std::vector<LabeledGraph> txns;
  for (std::size_t t = 0; t < count; ++t) {
    LabeledGraph g;
    for (std::size_t i = 0; i < vertices; ++i) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(vlabels)));
    }
    for (std::size_t i = 0; i < edges; ++i) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(vertices)),
                static_cast<VertexId>(rng.NextBounded(vertices)),
                static_cast<Label>(rng.NextBounded(elabels)));
    }
    txns.push_back(std::move(g));
  }
  return txns;
}

TEST(GspanTest, EmptyInput) {
  GspanOptions options;
  options.min_support = 1;
  EXPECT_TRUE(MineGspan({}, options).patterns.empty());
}

TEST(GspanTest, SingleEdgeSupport) {
  std::vector<LabeledGraph> txns = {Edge1(0, 1, 5), Edge1(0, 1, 5),
                                    Edge1(2, 1, 5)};
  GspanOptions options;
  options.min_support = 2;
  const GspanResult r = MineGspan(txns, options);
  ASSERT_EQ(r.patterns.size(), 1u);
  EXPECT_EQ(r.patterns[0].support, 2u);
  EXPECT_EQ(r.patterns[0].tids.ToVector(), (std::vector<std::uint32_t>{0, 1}));
}

TEST(GspanTest, FindsChainsOfAllLengths) {
  std::vector<LabeledGraph> txns = {Chain(4, 0, 1), Chain(4, 0, 1),
                                    Chain(2, 0, 1)};
  GspanOptions options;
  options.min_support = 2;
  const GspanResult r = MineGspan(txns, options);
  // Chains of 1..4 edges are frequent (1- and 2-edge chains in all three).
  std::map<std::size_t, std::size_t> support_by_size;
  for (const auto& p : r.patterns) {
    if (p.graph.num_edges() > 0) {
      support_by_size[p.graph.num_edges()] =
          std::max(support_by_size[p.graph.num_edges()], p.support);
    }
  }
  EXPECT_EQ(support_by_size[1], 3u);
  EXPECT_EQ(support_by_size[2], 3u);
  EXPECT_EQ(support_by_size[3], 2u);
  EXPECT_EQ(support_by_size[4], 2u);
  EXPECT_EQ(support_by_size.count(5), 0u);
}

TEST(GspanTest, SupportsAreExactAgainstVf2) {
  const auto txns = RandomTransactions(13, 10, 5, 7, 2, 2);
  GspanOptions options;
  options.min_support = 3;
  options.max_edges = 3;
  const GspanResult r = MineGspan(txns, options);
  ASSERT_FALSE(r.patterns.empty());
  for (const auto& p : r.patterns) {
    std::size_t expect = 0;
    for (const auto& t : txns) {
      expect += iso::ContainsSubgraph(p.graph, t);
    }
    EXPECT_EQ(p.support, expect) << p.graph.DebugString();
    EXPECT_GE(p.support, options.min_support);
  }
}

TEST(GspanTest, MaxEdgesRespected) {
  std::vector<LabeledGraph> txns = {Chain(6, 0, 1), Chain(6, 0, 1)};
  GspanOptions options;
  options.min_support = 2;
  options.max_edges = 3;
  const GspanResult r = MineGspan(txns, options);
  for (const auto& p : r.patterns) {
    EXPECT_LE(p.graph.num_edges(), 3u);
  }
  EXPECT_EQ(r.max_level, 3u);
}

TEST(GspanTest, NoDuplicatePatternClasses) {
  const auto txns = RandomTransactions(17, 8, 6, 9, 2, 2);
  GspanOptions options;
  options.min_support = 2;
  options.max_edges = 4;
  const GspanResult r = MineGspan(txns, options);
  std::set<std::string> codes;
  for (const auto& p : r.patterns) {
    EXPECT_TRUE(codes.insert(p.code).second) << "duplicate " << p.code;
  }
}

// The headline property: FSG and gSpan produce identical pattern sets
// (same isomorphism classes, same supports) on the same input.
class MinerEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MinerEquivalenceTest, FsgAndGspanAgree) {
  const auto txns = RandomTransactions(GetParam(), 12, 6, 8, 2, 2);
  const std::size_t min_support = 3;

  fsg::FsgOptions fsg_options;
  fsg_options.min_support = min_support;
  fsg_options.max_edges = 4;
  const fsg::FsgResult fsg_result = fsg::MineFsg(txns, fsg_options);

  GspanOptions gspan_options;
  gspan_options.min_support = min_support;
  gspan_options.max_edges = 4;
  const GspanResult gspan_result = MineGspan(txns, gspan_options);

  std::map<std::string, std::size_t> fsg_map, gspan_map;
  for (const auto& p : fsg_result.patterns) fsg_map[p.code] = p.support;
  for (const auto& p : gspan_result.patterns) gspan_map[p.code] = p.support;
  EXPECT_EQ(fsg_map, gspan_map);
  EXPECT_FALSE(fsg_map.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinerEquivalenceTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

TEST(GspanTest, MemoryCeilingStopsGrowthWithExactPatterns) {
  // A dense uniform blob: the seed's extensions hold far more projection
  // bytes than the ceiling, so growth stops there and says so, and what
  // was emitted is exact.
  const auto txns = RandomTransactions(19, 4, 6, 14, 1, 1);
  GspanOptions options;
  options.min_support = 2;
  options.max_edges = 3;
  const GspanResult full = MineGspan(txns, options);
  ASSERT_EQ(full.outcome, common::MiningOutcome::kComplete);

  common::BudgetLimits limits;
  limits.max_memory_bytes = 64;
  options.budget = common::ResourceBudget(limits);
  const GspanResult bounded = MineGspan(txns, options);
  EXPECT_EQ(bounded.outcome, common::MiningOutcome::kMemoryBudgetExceeded);
  EXPECT_FALSE(bounded.patterns.empty());
  EXPECT_LT(bounded.patterns.size(), full.patterns.size());
  std::map<std::string, const pattern::FrequentPattern*> by_code;
  for (const auto& p : full.patterns) by_code[p.code] = &p;
  for (const auto& p : bounded.patterns) {
    const auto it = by_code.find(p.code);
    ASSERT_NE(it, by_code.end()) << p.code;
    EXPECT_EQ(p.support, it->second->support);
    EXPECT_EQ(p.tids.ToVector(), it->second->tids.ToVector());
  }
}

}  // namespace
}  // namespace tnmine::gspan
