#include "gspan/dfs_code.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/random.h"
#include "iso/canonical.h"

namespace tnmine::gspan {
namespace {

using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

LabeledGraph Permute(const LabeledGraph& g,
                     const std::vector<VertexId>& perm) {
  LabeledGraph out;
  std::vector<VertexId> inverse(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inverse[perm[i]] = static_cast<VertexId>(i);
  }
  for (std::size_t i = 0; i < perm.size(); ++i) {
    out.AddVertex(g.vertex_label(inverse[i]));
  }
  g.ForEachEdge([&](graph::EdgeId e) {
    const auto& edge = g.edge(e);
    out.AddEdge(perm[edge.src], perm[edge.dst], edge.label);
  });
  return out;
}

/// Random connected graph: random tree plus extra edges.
LabeledGraph RandomConnected(Rng& rng, std::size_t vertices,
                             std::size_t extra_edges, int vlabels,
                             int elabels) {
  LabeledGraph g;
  for (std::size_t i = 0; i < vertices; ++i) {
    g.AddVertex(static_cast<Label>(rng.NextBounded(vlabels)));
  }
  for (VertexId v = 1; v < vertices; ++v) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(v));
    if (rng.NextBool()) {
      g.AddEdge(u, v, static_cast<Label>(rng.NextBounded(elabels)));
    } else {
      g.AddEdge(v, u, static_cast<Label>(rng.NextBounded(elabels)));
    }
  }
  for (std::size_t i = 0; i < extra_edges; ++i) {
    g.AddEdge(static_cast<VertexId>(rng.NextBounded(vertices)),
              static_cast<VertexId>(rng.NextBounded(vertices)),
              static_cast<Label>(rng.NextBounded(elabels)));
  }
  return g;
}

/// Random connected multigraph: a random tree, then extra edges that are
/// self-loops, parallel or antiparallel copies of a tree edge, or fresh
/// pairs.
LabeledGraph RandomMultigraph(Rng& rng, std::size_t vertices,
                              std::size_t extra_edges, int vlabels,
                              int elabels) {
  LabeledGraph g = RandomConnected(rng, vertices, 0, vlabels, elabels);
  for (std::size_t i = 0; i < extra_edges; ++i) {
    const auto label = static_cast<Label>(rng.NextBounded(elabels));
    const auto v = static_cast<VertexId>(rng.NextBounded(vertices));
    const graph::Edge base =
        g.edge(static_cast<graph::EdgeId>(rng.NextBounded(vertices - 1)));
    switch (rng.NextBounded(4)) {
      case 0:
        g.AddEdge(v, v, label);
        break;
      case 1:
        g.AddEdge(base.src, base.dst, label);
        break;
      case 2:
        g.AddEdge(base.dst, base.src, label);
        break;
      default:
        g.AddEdge(v, static_cast<VertexId>(rng.NextBounded(vertices)),
                  label);
    }
  }
  return g;
}

TEST(DfsCodeTest, SingleEdge) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(3);
  const VertexId b = g.AddVertex(5);
  g.AddEdge(a, b, 7);
  const DfsCode code = MinimalDfsCode(g);
  ASSERT_EQ(code.size(), 1u);
  EXPECT_EQ(code.edges()[0].from, 0u);
  EXPECT_EQ(code.edges()[0].to, 1u);
  EXPECT_EQ(code.edges()[0].edge_label, 7);
  EXPECT_TRUE(IsMinimalDfsCode(code));
}

TEST(DfsCodeTest, SelfLoop) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(2);
  g.AddEdge(a, a, 9);
  const DfsCode code = MinimalDfsCode(g);
  ASSERT_EQ(code.size(), 1u);
  EXPECT_EQ(code.edges()[0].from, 0u);
  EXPECT_EQ(code.edges()[0].to, 0u);
  EXPECT_TRUE(iso::AreIsomorphic(code.ToGraph(), g));
}

TEST(DfsCodeTest, DirectionMatters) {
  LabeledGraph path;
  VertexId a = path.AddVertex(0);
  VertexId b = path.AddVertex(0);
  VertexId c = path.AddVertex(0);
  path.AddEdge(a, b, 1);
  path.AddEdge(b, c, 1);
  LabeledGraph fan;
  a = fan.AddVertex(0);
  b = fan.AddVertex(0);
  c = fan.AddVertex(0);
  fan.AddEdge(b, a, 1);
  fan.AddEdge(b, c, 1);
  EXPECT_NE(MinimalDfsCode(path), MinimalDfsCode(fan));
}

TEST(DfsCodeTest, ParallelEdges) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(0);
  const VertexId b = g.AddVertex(0);
  g.AddEdge(a, b, 1);
  g.AddEdge(a, b, 1);
  const DfsCode code = MinimalDfsCode(g);
  EXPECT_EQ(code.size(), 2u);
  EXPECT_TRUE(iso::AreIsomorphic(code.ToGraph(), g));
}

TEST(DfsCodeTest, ToGraphRoundTripIsomorphic) {
  Rng rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    const LabeledGraph g = RandomConnected(rng, 5, 3, 2, 2);
    const DfsCode code = MinimalDfsCode(g);
    EXPECT_EQ(code.size(), g.num_edges());
    EXPECT_TRUE(iso::AreIsomorphic(code.ToGraph(), g))
        << g.DebugString() << code.ToString();
  }
}

// gSpan prunes every child whose code is not minimal, so it finds a
// pattern only if each prefix of the pattern's minimal code is minimal
// too. The DFS order must guarantee that on multigraphs with self-loops,
// parallel and antiparallel edges, and the greedy construction must
// place every edge without backtracking.
TEST(DfsCodeTest, EveryPrefixOfAMinimalCodeIsMinimal) {
  Rng rng(2005);
  for (int trial = 0; trial < 3000; ++trial) {
    const LabeledGraph g = RandomMultigraph(
        rng, 2 + rng.NextBounded(4), rng.NextBounded(5), 2, 2);
    const DfsCode code = MinimalDfsCode(g);
    ASSERT_EQ(code.size(), g.num_edges()) << g.DebugString();
    for (std::size_t k = 1; k <= code.size(); ++k) {
      const DfsCode prefix(std::vector<DfsEdge>(
          code.edges().begin(), code.edges().begin() + k));
      ASSERT_TRUE(IsMinimalDfsCode(prefix))
          << "prefix " << prefix.ToString() << " of " << code.ToString();
    }
  }
}

TEST(DfsCodeTest, NonMinimalCodeRejected) {
  // Build a path 0->1->2 and write a deliberately bad (but valid-shape)
  // code that starts from the middle: its reconstruction is isomorphic,
  // but the code differs from the minimum.
  LabeledGraph g;
  const VertexId a = g.AddVertex(1);
  const VertexId b = g.AddVertex(2);
  const VertexId c = g.AddVertex(3);
  g.AddEdge(a, b, 0);
  g.AddEdge(b, c, 0);
  const DfsCode minimal = MinimalDfsCode(g);
  // Alternative traversal starting at c.
  DfsCode other({DfsEdge{0, 1, 3, 0, false, 2},
                 DfsEdge{1, 2, 2, 0, false, 1}});
  ASSERT_TRUE(iso::AreIsomorphic(other.ToGraph(), g));
  EXPECT_NE(other, minimal);
  EXPECT_FALSE(IsMinimalDfsCode(other));
  EXPECT_TRUE(IsMinimalDfsCode(minimal));
}

// The headline property: minimal DFS codes and the library's canonical
// codes agree on isomorphism classification — two completely independent
// canonical forms cross-validate each other.
class DfsCodeCrossCheckTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DfsCodeCrossCheckTest, AgreesWithCanonicalCodes) {
  Rng rng(GetParam());
  std::vector<LabeledGraph> pool;
  for (int i = 0; i < 10; ++i) {
    pool.push_back(RandomConnected(rng, 4, 2, 2, 2));
  }
  // Add permuted copies so positives exist.
  const std::size_t originals = pool.size();
  for (std::size_t i = 0; i < originals; i += 3) {
    std::vector<VertexId> perm(pool[i].num_vertices());
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(perm);
    pool.push_back(Permute(pool[i], perm));
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      const bool dfs_equal =
          MinimalDfsCode(pool[i]) == MinimalDfsCode(pool[j]);
      const bool canonical_equal = iso::AreIsomorphic(pool[i], pool[j]);
      ASSERT_EQ(dfs_equal, canonical_equal)
          << pool[i].DebugString() << pool[j].DebugString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsCodeCrossCheckTest,
                         ::testing::Values(31, 32, 33, 34));

TEST(DfsCodeTest, MinimalIsInvariantUnderPermutation) {
  Rng rng(41);
  const LabeledGraph g = RandomConnected(rng, 6, 4, 2, 3);
  const DfsCode code = MinimalDfsCode(g);
  std::vector<VertexId> perm(g.num_vertices());
  std::iota(perm.begin(), perm.end(), 0);
  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(perm);
    EXPECT_EQ(MinimalDfsCode(Permute(g, perm)), code);
  }
}

}  // namespace
}  // namespace tnmine::gspan
