#include "iso/vf2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "graph/graph_view.h"

namespace tnmine::iso {
namespace {

using graph::EdgeId;
using graph::GraphView;
using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

LabeledGraph Path3(Label v, Label e) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(v);
  const VertexId b = g.AddVertex(v);
  const VertexId c = g.AddVertex(v);
  g.AddEdge(a, b, e);
  g.AddEdge(b, c, e);
  return g;
}

/// Brute-force reference: tries every injective vertex assignment and
/// counts assignments where every pattern edge has enough matching target
/// edges (multigraph-aware).
std::uint64_t BruteForceCount(const LabeledGraph& pattern,
                              const LabeledGraph& target) {
  const std::size_t np = pattern.num_vertices();
  const std::size_t nt = target.num_vertices();
  if (np > nt) return 0;
  std::vector<VertexId> targets(nt);
  std::iota(targets.begin(), targets.end(), 0);
  std::vector<VertexId> assignment(np);
  std::vector<char> used(nt, 0);
  std::uint64_t count = 0;
  // Recursive lambda over pattern vertices in id order.
  auto feasible_complete = [&]() {
    // Count pattern-edge multiplicities per (mapped src, mapped dst, label)
    // and compare with target multiplicities.
    std::map<std::tuple<VertexId, VertexId, Label>, int> need, have;
    bool ok = true;
    pattern.ForEachEdge([&](EdgeId e) {
      const auto& edge = pattern.edge(e);
      ++need[{assignment[edge.src], assignment[edge.dst], edge.label}];
    });
    target.ForEachEdge([&](EdgeId e) {
      const auto& edge = target.edge(e);
      ++have[{edge.src, edge.dst, edge.label}];
    });
    for (const auto& [key, n] : need) {
      const auto it = have.find(key);
      if (it == have.end() || it->second < n) {
        ok = false;
        break;
      }
    }
    return ok;
  };
  std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == np) {
      if (feasible_complete()) ++count;
      return;
    }
    for (VertexId t = 0; t < nt; ++t) {
      if (used[t] || target.vertex_label(t) != pattern.vertex_label(i)) {
        continue;
      }
      used[t] = 1;
      assignment[i] = t;
      rec(i + 1);
      used[t] = 0;
    }
  };
  rec(0);
  return count;
}

TEST(Vf2Test, FindsExactCopy) {
  const LabeledGraph g = Path3(1, 2);
  EXPECT_TRUE(ContainsSubgraph(g, g));
  EXPECT_EQ(CountEmbeddings(g, g), 1u);
}

TEST(Vf2Test, LabelsMustMatch) {
  EXPECT_FALSE(ContainsSubgraph(Path3(1, 2), Path3(1, 3)));
  EXPECT_FALSE(ContainsSubgraph(Path3(1, 2), Path3(2, 2)));
}

TEST(Vf2Test, DirectionMatters) {
  LabeledGraph fwd;
  VertexId a = fwd.AddVertex(0);
  VertexId b = fwd.AddVertex(0);
  fwd.AddEdge(a, b, 1);
  LabeledGraph bwd;
  a = bwd.AddVertex(0);
  b = bwd.AddVertex(0);
  bwd.AddEdge(b, a, 1);
  // Both single-edge graphs are isomorphic as graphs, so both match each
  // other (the edge just maps the other way).
  EXPECT_TRUE(ContainsSubgraph(fwd, bwd));
  // But a directed 2-cycle does not embed in a path.
  LabeledGraph cycle;
  a = cycle.AddVertex(0);
  b = cycle.AddVertex(0);
  cycle.AddEdge(a, b, 1);
  cycle.AddEdge(b, a, 1);
  EXPECT_FALSE(ContainsSubgraph(cycle, fwd));
}

TEST(Vf2Test, NonInducedSemantics) {
  // Pattern: a -> b. Target: triangle with extra edges. The extra target
  // edges must not block the match.
  LabeledGraph pattern;
  VertexId a = pattern.AddVertex(0);
  VertexId b = pattern.AddVertex(0);
  pattern.AddEdge(a, b, 1);
  LabeledGraph target;
  const VertexId x = target.AddVertex(0);
  const VertexId y = target.AddVertex(0);
  target.AddEdge(x, y, 1);
  target.AddEdge(y, x, 1);
  target.AddEdge(x, y, 2);
  EXPECT_TRUE(ContainsSubgraph(pattern, target));
  EXPECT_EQ(CountEmbeddings(pattern, target), 2u);  // x->y and y->x
}

TEST(Vf2Test, MultigraphMultiplicityRespected) {
  // Pattern needs two parallel a->b edges with label 1.
  LabeledGraph pattern;
  VertexId a = pattern.AddVertex(0);
  VertexId b = pattern.AddVertex(0);
  pattern.AddEdge(a, b, 1);
  pattern.AddEdge(a, b, 1);
  LabeledGraph single;
  a = single.AddVertex(0);
  b = single.AddVertex(0);
  single.AddEdge(a, b, 1);
  EXPECT_FALSE(ContainsSubgraph(pattern, single));
  single.AddEdge(a, b, 1);
  EXPECT_TRUE(ContainsSubgraph(pattern, single));
}

TEST(Vf2Test, SelfLoopHandling) {
  LabeledGraph pattern;
  const VertexId a = pattern.AddVertex(0);
  pattern.AddEdge(a, a, 7);
  LabeledGraph target;
  const VertexId x = target.AddVertex(0);
  const VertexId y = target.AddVertex(0);
  target.AddEdge(x, y, 7);
  EXPECT_FALSE(ContainsSubgraph(pattern, target));
  target.AddEdge(y, y, 7);
  EXPECT_TRUE(ContainsSubgraph(pattern, target));
}

TEST(Vf2Test, SingleVertexPattern) {
  LabeledGraph pattern;
  pattern.AddVertex(3);
  LabeledGraph target;
  target.AddVertex(3);
  target.AddVertex(4);
  target.AddVertex(3);
  EXPECT_EQ(CountEmbeddings(pattern, target), 2u);
}

TEST(Vf2Test, DisconnectedPattern) {
  // Pattern: two isolated labeled vertices; target has them in separate
  // components.
  LabeledGraph pattern;
  pattern.AddVertex(1);
  pattern.AddVertex(2);
  LabeledGraph target;
  target.AddVertex(1);
  target.AddVertex(2);
  target.AddVertex(2);
  EXPECT_EQ(CountEmbeddings(pattern, target), 2u);
}

TEST(Vf2Test, HubAndSpokeEmbeddingCount) {
  // Pattern: hub with 2 out-spokes (same labels). Target: hub with 4
  // out-spokes. Count = P(4,2) = 12 vertex maps.
  LabeledGraph pattern;
  const VertexId hub = pattern.AddVertex(0);
  for (int i = 0; i < 2; ++i) pattern.AddEdge(hub, pattern.AddVertex(0), 1);
  LabeledGraph target;
  const VertexId thub = target.AddVertex(0);
  for (int i = 0; i < 4; ++i) target.AddEdge(thub, target.AddVertex(0), 1);
  EXPECT_EQ(CountEmbeddings(pattern, target), 12u);
}

TEST(Vf2Test, ForbiddenVerticesBlockEmbeddings) {
  LabeledGraph pattern;
  VertexId a = pattern.AddVertex(0);
  VertexId b = pattern.AddVertex(0);
  pattern.AddEdge(a, b, 1);
  LabeledGraph target;
  const VertexId x = target.AddVertex(0);
  const VertexId y = target.AddVertex(0);
  const VertexId z = target.AddVertex(0);
  target.AddEdge(x, y, 1);
  target.AddEdge(y, z, 1);
  SubgraphMatcher matcher(pattern);
  const GraphView view(target);
  MatchOptions options;
  std::vector<char> forbidden(target.num_vertices(), 0);
  forbidden[y] = 1;
  options.forbidden_target_vertices = &forbidden;
  EXPECT_FALSE(matcher.Contains(view, options));
}

TEST(Vf2Test, ForbiddenEdgesBlockEmbeddings) {
  LabeledGraph pattern;
  VertexId a = pattern.AddVertex(0);
  VertexId b = pattern.AddVertex(0);
  pattern.AddEdge(a, b, 1);
  LabeledGraph target;
  const VertexId x = target.AddVertex(0);
  const VertexId y = target.AddVertex(0);
  const EdgeId only = target.AddEdge(x, y, 1);
  SubgraphMatcher matcher(pattern);
  const GraphView view(target);
  MatchOptions options;
  std::vector<char> forbidden(target.edge_capacity(), 0);
  forbidden[only] = 1;
  options.forbidden_target_edges = &forbidden;
  EXPECT_FALSE(matcher.Contains(view, options));
}

TEST(Vf2Test, EmbeddingMapsAreConsistent) {
  LabeledGraph pattern = Path3(5, 9);
  LabeledGraph target;
  std::vector<VertexId> vs;
  for (int i = 0; i < 6; ++i) vs.push_back(target.AddVertex(5));
  for (int i = 0; i + 1 < 6; ++i) target.AddEdge(vs[i], vs[i + 1], 9);
  SubgraphMatcher matcher(pattern);
  const GraphView view(target);
  std::size_t checked = 0;
  matcher.ForEachEmbedding(view, {}, [&](const Embedding& emb) {
    ++checked;
    std::set<EdgeId> used_edges;
    pattern.ForEachEdge([&](EdgeId pe) {
      const EdgeId te = emb.edge_map[pe];
      ASSERT_TRUE(target.edge_alive(te));
      EXPECT_TRUE(used_edges.insert(te).second) << "edge reused";
      const auto& pedge = pattern.edge(pe);
      const auto& tedge = target.edge(te);
      EXPECT_EQ(emb.vertex_map[pedge.src], tedge.src);
      EXPECT_EQ(emb.vertex_map[pedge.dst], tedge.dst);
      EXPECT_EQ(pedge.label, tedge.label);
    });
    return true;
  });
  EXPECT_EQ(checked, 4u);  // 4 positions for a 2-edge path in a 5-edge path
}

TEST(Vf2Test, TombstonedTargetEdgesInvisible) {
  LabeledGraph pattern;
  VertexId a = pattern.AddVertex(0);
  VertexId b = pattern.AddVertex(0);
  pattern.AddEdge(a, b, 1);
  LabeledGraph target;
  const VertexId x = target.AddVertex(0);
  const VertexId y = target.AddVertex(0);
  const EdgeId e = target.AddEdge(x, y, 1);
  EXPECT_TRUE(ContainsSubgraph(pattern, target));
  target.RemoveEdge(e);
  EXPECT_FALSE(ContainsSubgraph(pattern, target));
}

TEST(Vf2Test, SearchStepBudgetAborts) {
  // A pattern of identical vertices against a large uniform clique-ish
  // target: with a step budget of 1 the matcher must give up and report no
  // embeddings rather than hang.
  LabeledGraph pattern = Path3(0, 0);
  LabeledGraph target;
  std::vector<VertexId> vs;
  for (int i = 0; i < 10; ++i) vs.push_back(target.AddVertex(0));
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (i != j) target.AddEdge(vs[i], vs[j], 0);
    }
  }
  SubgraphMatcher matcher(pattern);
  const GraphView view(target);
  MatchOptions options;
  options.max_search_steps = 1;
  EXPECT_EQ(matcher.CountEmbeddings(view, 0, options), 0u);
  EXPECT_TRUE(matcher.exhausted());
  std::vector<VertexId> images;
  EXPECT_FALSE(matcher.FirstOccurrence(view, options, &images));
  EXPECT_TRUE(matcher.exhausted());
  // The same matcher without the cap: a complete search, not exhausted.
  EXPECT_EQ(matcher.CountEmbeddings(view), 10u * 9u * 8u);
  EXPECT_FALSE(matcher.exhausted());
}

TEST(Vf2Test, LabelDegreeFloorRejectsWrongLabelMix) {
  // The pattern hub needs two out-arcs labelled 1 and one in-arc
  // labelled 2. Each target hub has enough arcs in total but lacks one
  // of those (label, direction) pairs; only the last one has them all.
  LabeledGraph pattern;
  const VertexId hub = pattern.AddVertex(0);
  pattern.AddEdge(hub, pattern.AddVertex(0), 1);
  pattern.AddEdge(hub, pattern.AddVertex(0), 1);
  pattern.AddEdge(pattern.AddVertex(0), hub, 2);
  LabeledGraph target;
  auto add_hub = [&](Label out_a, Label out_b, Label in) {
    const VertexId h = target.AddVertex(0);
    target.AddEdge(h, target.AddVertex(0), out_a);
    target.AddEdge(h, target.AddVertex(0), out_b);
    target.AddEdge(target.AddVertex(0), h, in);
    return h;
  };
  add_hub(1, 2, 2);  // one label-1 out-arc short
  add_hub(1, 1, 1);  // in-arc has the wrong label
  SubgraphMatcher matcher(pattern);
  EXPECT_FALSE(matcher.Contains(GraphView(target)));
  const VertexId good = add_hub(1, 1, 2);
  const GraphView view(target);
  std::vector<VertexId> images;
  ASSERT_TRUE(matcher.FirstOccurrence(view, {}, &images));
  EXPECT_EQ(images[hub], good);
  EXPECT_EQ(matcher.CountEmbeddings(view), 2u);  // the two leaves swap
}

TEST(Vf2InducedTest, ExtraEdgeBlocksInducedMatch) {
  // Pattern: a -> b only. Target: a -> b plus b -> a. Non-induced matches;
  // induced does not (the back edge is extra).
  LabeledGraph pattern;
  const VertexId a = pattern.AddVertex(0);
  const VertexId b = pattern.AddVertex(0);
  pattern.AddEdge(a, b, 1);
  LabeledGraph target;
  const VertexId x = target.AddVertex(0);
  const VertexId y = target.AddVertex(0);
  target.AddEdge(x, y, 1);
  target.AddEdge(y, x, 1);
  EXPECT_TRUE(ContainsSubgraph(pattern, target));
  EXPECT_FALSE(ContainsInducedSubgraph(pattern, target));
}

TEST(Vf2InducedTest, ExactMultiplicityRequired) {
  LabeledGraph pattern;
  const VertexId a = pattern.AddVertex(0);
  const VertexId b = pattern.AddVertex(0);
  pattern.AddEdge(a, b, 1);
  LabeledGraph doubled;
  const VertexId x = doubled.AddVertex(0);
  const VertexId y = doubled.AddVertex(0);
  doubled.AddEdge(x, y, 1);
  doubled.AddEdge(x, y, 1);
  EXPECT_TRUE(ContainsSubgraph(pattern, doubled));
  EXPECT_FALSE(ContainsInducedSubgraph(pattern, doubled));
}

TEST(Vf2InducedTest, MatchesWhenNeighborhoodExact) {
  // Target has an extra vertex with edges elsewhere; the induced pair
  // (x, y) is exactly the pattern.
  LabeledGraph pattern;
  const VertexId a = pattern.AddVertex(0);
  const VertexId b = pattern.AddVertex(0);
  pattern.AddEdge(a, b, 1);
  LabeledGraph target;
  const VertexId x = target.AddVertex(0);
  const VertexId y = target.AddVertex(0);
  const VertexId z = target.AddVertex(0);
  target.AddEdge(x, y, 1);
  target.AddEdge(y, z, 2);
  target.AddEdge(z, x, 3);
  EXPECT_TRUE(ContainsInducedSubgraph(pattern, target));
}

TEST(Vf2InducedTest, SelfLoopExactness) {
  LabeledGraph pattern;
  const VertexId a = pattern.AddVertex(0);
  pattern.AddEdge(a, a, 1);
  LabeledGraph target;
  const VertexId x = target.AddVertex(0);
  target.AddEdge(x, x, 1);
  EXPECT_TRUE(ContainsInducedSubgraph(pattern, target));
  target.AddEdge(x, x, 2);  // extra loop with a different label
  EXPECT_FALSE(ContainsInducedSubgraph(pattern, target));
}

/// Adds `count` random edges to `g` over `edge_labels` labels. Some are
/// repeated (parallel edges) and some are self-loops, so the graphs are
/// genuine multigraphs.
void AddRandomMultiEdges(Rng& rng, LabeledGraph& g, std::size_t count,
                         std::uint64_t edge_labels) {
  const std::size_t n = g.num_vertices();
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<VertexId>(rng.NextBounded(n));
    const auto dst = rng.NextBounded(5) == 0
                         ? src
                         : static_cast<VertexId>(rng.NextBounded(n));
    const auto label = static_cast<Label>(rng.NextBounded(edge_labels));
    g.AddEdge(src, dst, label);
    if (rng.NextBounded(4) == 0) g.AddEdge(src, dst, label);
  }
}

/// True when `images` maps `pattern` into `target` as a monomorphism:
/// injective, label-preserving, with enough parallel target edges of each
/// (src, dst, label).
bool IsEmbedding(const LabeledGraph& pattern, const LabeledGraph& target,
                 const std::vector<VertexId>& images) {
  if (images.size() != pattern.num_vertices()) return false;
  std::set<VertexId> distinct(images.begin(), images.end());
  if (distinct.size() != images.size()) return false;
  for (VertexId p = 0; p < pattern.num_vertices(); ++p) {
    if (images[p] >= target.num_vertices() ||
        pattern.vertex_label(p) != target.vertex_label(images[p])) {
      return false;
    }
  }
  std::map<std::tuple<VertexId, VertexId, Label>, int> need;
  pattern.ForEachEdge([&](EdgeId e) {
    const auto& edge = pattern.edge(e);
    ++need[{images[edge.src], images[edge.dst], edge.label}];
  });
  target.ForEachEdge([&](EdgeId e) {
    const auto& edge = target.edge(e);
    --need[{edge.src, edge.dst, edge.label}];
  });
  for (const auto& [key, missing] : need) {
    if (missing > 0) return false;
  }
  return true;
}

// Property test: VF2 count equals brute force on random small multigraphs
// with several edge labels, parallel edges and self-loops; the
// first-occurrence query agrees with Contains, with the count, and with
// the first embedding the enumeration visits.
class Vf2RandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Vf2RandomTest, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    // Random target: 4-6 vertices, 3-12 edge draws, 2 vertex labels and
    // 3 edge labels.
    LabeledGraph target;
    const std::size_t nt = 4 + rng.NextBounded(3);
    for (std::size_t i = 0; i < nt; ++i) {
      target.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    AddRandomMultiEdges(rng, target, 3 + rng.NextBounded(10), 3);
    // Random pattern: 2-4 vertices, 1-4 edge draws.
    LabeledGraph pattern;
    const std::size_t np = 2 + rng.NextBounded(3);
    for (std::size_t i = 0; i < np; ++i) {
      pattern.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    AddRandomMultiEdges(rng, pattern, 1 + rng.NextBounded(4), 3);
    const std::uint64_t expected = BruteForceCount(pattern, target);
    SubgraphMatcher matcher(pattern);
    const GraphView view(target);
    const std::uint64_t actual = matcher.CountEmbeddings(view);
    ASSERT_EQ(actual, expected)
        << "trial " << trial << "\npattern:\n" << pattern.DebugString()
        << "target:\n" << target.DebugString();
    std::vector<VertexId> first_visited;
    matcher.ForEachEmbedding(view, {}, [&](const Embedding& emb) {
      first_visited = emb.vertex_map;
      return false;
    });
    std::vector<VertexId> images;
    const bool found = matcher.FirstOccurrence(view, {}, &images);
    EXPECT_FALSE(matcher.exhausted());
    ASSERT_EQ(found, expected > 0) << "trial " << trial;
    ASSERT_EQ(matcher.Contains(view), found) << "trial " << trial;
    if (found) {
      EXPECT_TRUE(IsEmbedding(pattern, target, images)) << "trial " << trial;
      EXPECT_EQ(images, first_visited) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Vf2RandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace tnmine::iso
