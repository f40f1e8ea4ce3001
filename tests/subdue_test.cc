#include "subdue/subdue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/budget.h"
#include "common/random.h"
#include "iso/canonical.h"
#include "subdue/mdl.h"

namespace tnmine::subdue {
namespace {

using graph::EdgeId;
using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

/// k disjoint copies of the pattern A -[1]-> B -[2]-> C, plus `noise`
/// random extra edges among fresh vertices.
LabeledGraph RepeatedChains(int copies, int noise, std::uint64_t seed) {
  LabeledGraph g;
  for (int i = 0; i < copies; ++i) {
    const VertexId a = g.AddVertex(10);
    const VertexId b = g.AddVertex(11);
    const VertexId c = g.AddVertex(12);
    g.AddEdge(a, b, 1);
    g.AddEdge(b, c, 2);
  }
  Rng rng(seed);
  std::vector<VertexId> extras;
  for (int i = 0; i < noise; ++i) {
    extras.push_back(g.AddVertex(static_cast<Label>(20 + rng.NextBounded(3))));
  }
  for (int i = 0; i + 1 < noise; ++i) {
    g.AddEdge(extras[i], extras[rng.NextBounded(extras.size())],
              static_cast<Label>(5 + rng.NextBounded(2)));
  }
  return g;
}

TEST(MdlTest, DescriptionLengthBasics) {
  LabeledGraph empty;
  EXPECT_EQ(DescriptionLengthBits(empty), 0.0);
  LabeledGraph one;
  one.AddVertex(0);
  const double dl1 = DescriptionLengthBits(one);
  LabeledGraph two = one;
  two.AddVertex(1);
  two.AddEdge(0, 1, 0);
  const double dl2 = DescriptionLengthBits(two);
  EXPECT_GT(dl2, dl1);
  // Bigger alphabet => more bits per label.
  EXPECT_GT(DescriptionLengthBits(two, 16, 16), dl2);
}

TEST(MdlTest, MoreEdgesMoreBits) {
  LabeledGraph g;
  for (int i = 0; i < 6; ++i) g.AddVertex(0);
  double prev = DescriptionLengthBits(g);
  for (int i = 0; i < 5; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1), 1);
    const double now = DescriptionLengthBits(g);
    EXPECT_GT(now, prev);
    prev = now;
  }
}

TEST(MdlTest, GraphSizeIsVerticesPlusEdges) {
  const LabeledGraph g = RepeatedChains(2, 0, 1);
  EXPECT_EQ(GraphSize(g), 6u + 4u);
}

TEST(CompressTest, ReplacesDisjointInstances) {
  const LabeledGraph g = RepeatedChains(3, 0, 1);
  // Substructure: the full chain pattern with its three instances.
  Substructure sub;
  const VertexId a = sub.pattern.AddVertex(10);
  const VertexId b = sub.pattern.AddVertex(11);
  const VertexId c = sub.pattern.AddVertex(12);
  sub.pattern.AddEdge(a, b, 1);
  sub.pattern.AddEdge(b, c, 2);
  for (int i = 0; i < 3; ++i) {
    Instance inst;
    inst.vertices = {static_cast<VertexId>(3 * i),
                     static_cast<VertexId>(3 * i + 1),
                     static_cast<VertexId>(3 * i + 2)};
    inst.edges = {static_cast<graph::EdgeId>(2 * i),
                  static_cast<graph::EdgeId>(2 * i + 1)};
    sub.instances.push_back(inst);
  }
  const LabeledGraph compressed = CompressGraph(g, sub, 99);
  EXPECT_EQ(compressed.num_vertices(), 3u);  // one vertex per instance
  EXPECT_EQ(compressed.num_edges(), 0u);
  for (VertexId v = 0; v < compressed.num_vertices(); ++v) {
    EXPECT_EQ(compressed.vertex_label(v), 99);
  }
}

TEST(CompressTest, BoundaryEdgesReattach) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(1);
  const VertexId b = g.AddVertex(2);
  const VertexId x = g.AddVertex(3);
  const graph::EdgeId ab = g.AddEdge(a, b, 1);
  g.AddEdge(x, a, 7);  // boundary edge into the instance
  g.AddEdge(b, x, 8);  // boundary edge out of the instance
  Substructure sub;
  const VertexId pa = sub.pattern.AddVertex(1);
  const VertexId pb = sub.pattern.AddVertex(2);
  sub.pattern.AddEdge(pa, pb, 1);
  sub.instances.push_back(Instance{{a, b}, {ab}});
  const LabeledGraph compressed = CompressGraph(g, sub, 50);
  EXPECT_EQ(compressed.num_vertices(), 2u);  // instance vertex + x
  EXPECT_EQ(compressed.num_edges(), 2u);     // both boundary edges kept
  compressed.ForEachEdge([&](graph::EdgeId e) {
    const auto& edge = compressed.edge(e);
    EXPECT_TRUE(edge.label == 7 || edge.label == 8);
  });
}

TEST(CompressTest, InternalNonInstanceEdgeBecomesSelfLoop) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(1);
  const VertexId b = g.AddVertex(2);
  const graph::EdgeId ab = g.AddEdge(a, b, 1);
  g.AddEdge(b, a, 9);  // not part of the instance
  Substructure sub;
  sub.pattern.AddVertex(1);
  sub.pattern.AddVertex(2);
  sub.pattern.AddEdge(0, 1, 1);
  sub.instances.push_back(Instance{{a, b}, {ab}});
  const LabeledGraph compressed = CompressGraph(g, sub, 50);
  EXPECT_EQ(compressed.num_vertices(), 1u);
  EXPECT_EQ(compressed.num_edges(), 1u);
  compressed.ForEachEdge([&](graph::EdgeId e) {
    EXPECT_EQ(compressed.edge(e).src, compressed.edge(e).dst);
    EXPECT_EQ(compressed.edge(e).label, 9);
  });
}

TEST(SubdueTest, FindsRepeatedChainWithMdl) {
  const LabeledGraph g = RepeatedChains(8, 6, 3);
  SubdueOptions options;
  options.method = EvalMethod::kMdl;
  options.beam_width = 4;
  options.num_best = 3;
  options.limit = 200;
  const SubdueResult r = DiscoverSubstructures(g, options);
  ASSERT_FALSE(r.best.empty());
  const Substructure& top = r.best.front();
  EXPECT_GT(top.value, 1.0);  // it compresses
  EXPECT_GE(top.pattern.num_edges(), 1u);
  EXPECT_GE(top.non_overlapping_instances, 8u);
  // The best substructure is (part of) the planted chain.
  LabeledGraph chain;
  const VertexId a = chain.AddVertex(10);
  const VertexId b = chain.AddVertex(11);
  const VertexId c = chain.AddVertex(12);
  chain.AddEdge(a, b, 1);
  chain.AddEdge(b, c, 2);
  EXPECT_EQ(top.code, iso::CanonicalCode(chain));
}

TEST(SubdueTest, RespectsNumBestAndOrdering) {
  const LabeledGraph g = RepeatedChains(5, 4, 5);
  SubdueOptions options;
  options.num_best = 5;
  options.limit = 100;
  const SubdueResult r = DiscoverSubstructures(g, options);
  ASSERT_LE(r.best.size(), 5u);
  for (std::size_t i = 1; i < r.best.size(); ++i) {
    EXPECT_GE(r.best[i - 1].value, r.best[i].value);
  }
}

TEST(SubdueTest, LimitBoundsEvaluations) {
  const LabeledGraph g = RepeatedChains(6, 10, 7);
  SubdueOptions options;
  options.limit = 10;
  const SubdueResult r = DiscoverSubstructures(g, options);
  EXPECT_LE(r.substructures_evaluated, 10u);
}

TEST(SubdueTest, MaxPatternEdgesCapsGrowth) {
  const LabeledGraph g = RepeatedChains(6, 0, 9);
  SubdueOptions options;
  options.max_pattern_edges = 1;
  options.limit = 100;
  const SubdueResult r = DiscoverSubstructures(g, options);
  for (const Substructure& sub : r.best) {
    EXPECT_LE(sub.pattern.num_edges(), 1u);
  }
}

TEST(SubdueTest, OverlapCountsDiffer) {
  // A star: spokes share the hub, so instances of the 1-edge pattern all
  // overlap at the hub.
  LabeledGraph g;
  const VertexId hub = g.AddVertex(0);
  for (int i = 0; i < 6; ++i) g.AddEdge(hub, g.AddVertex(1), 1);
  SubdueOptions options;
  options.method = EvalMethod::kSetCover;
  options.max_pattern_edges = 1;
  options.limit = 50;
  options.allow_overlap = false;
  const SubdueResult no_overlap = DiscoverSubstructures(g, options);
  options.allow_overlap = true;
  const SubdueResult with_overlap = DiscoverSubstructures(g, options);
  // Find the hub->spoke 1-edge substructure in both results.
  auto find_edge_sub = [](const SubdueResult& r) -> const Substructure* {
    for (const Substructure& s : r.best) {
      if (s.pattern.num_edges() == 1) return &s;
    }
    return nullptr;
  };
  const Substructure* a = find_edge_sub(no_overlap);
  const Substructure* b = find_edge_sub(with_overlap);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->non_overlapping_instances, 1u);  // hub used once
  EXPECT_EQ(a->value, 1.0);
  EXPECT_EQ(b->value, 6.0);  // all six overlapping instances counted
}

TEST(SubdueTest, SizePrincipleFindsLargerPatternThanMdlOnUniformLabels) {
  // Uniform vertex labels (the paper's structural-similarity setting):
  // MDL favors tiny patterns; Size with a pattern-size floor behaves
  // better. Here we verify both run and produce compressing results, and
  // that the Size run can reach larger patterns.
  Rng rng(21);
  LabeledGraph g;
  // Plant 6 copies of a 4-edge "bow-tie-ish" motif with uniform vertex
  // labels but distinctive edge labels.
  for (int i = 0; i < 6; ++i) {
    const VertexId a = g.AddVertex(0);
    const VertexId b = g.AddVertex(0);
    const VertexId c = g.AddVertex(0);
    const VertexId d = g.AddVertex(0);
    g.AddEdge(a, b, 1);
    g.AddEdge(b, c, 2);
    g.AddEdge(b, d, 3);
    g.AddEdge(d, a, 4);
  }
  for (int i = 0; i < 8; ++i) {
    const VertexId x = g.AddVertex(0);
    const VertexId y = g.AddVertex(0);
    g.AddEdge(x, y, static_cast<Label>(1 + rng.NextBounded(4)));
  }
  SubdueOptions options;
  options.limit = 400;
  options.beam_width = 5;
  options.num_best = 5;
  options.method = EvalMethod::kSize;
  options.max_pattern_edges = 4;
  const SubdueResult size_result = DiscoverSubstructures(g, options);
  ASSERT_FALSE(size_result.best.empty());
  std::size_t size_max_edges = 0;
  for (const auto& s : size_result.best) {
    size_max_edges = std::max(size_max_edges, s.pattern.num_edges());
  }
  EXPECT_EQ(size_max_edges, 4u);  // reaches the planted motif
  EXPECT_GT(size_result.best.front().value, 1.0);
}

TEST(SubdueTest, HierarchicalCompressionShrinksGraph) {
  const LabeledGraph g = RepeatedChains(8, 4, 11);
  SubdueOptions options;
  options.limit = 150;
  const auto levels = HierarchicalDiscover(g, options, 3);
  ASSERT_FALSE(levels.empty());
  std::size_t prev_size = GraphSize(g);
  for (const HierarchyLevel& level : levels) {
    const std::size_t now = GraphSize(level.compressed);
    EXPECT_LT(now, prev_size);
    prev_size = now;
  }
}

TEST(SubdueTest, EmptyEdgeGraph) {
  LabeledGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  SubdueOptions options;
  options.limit = 10;
  const SubdueResult r = DiscoverSubstructures(g, options);
  // Only the single-vertex substructure exists; nothing compresses.
  ASSERT_FALSE(r.best.empty());
  EXPECT_EQ(r.best.front().pattern.num_edges(), 0u);
}

/// A multigraph with every texture SUBDUE's instance grouping must tell
/// apart: several vertex and edge labels (some negative), self-loops,
/// parallel and antiparallel pairs, and a hub touching most vertices.
LabeledGraph TexturedMultigraph(std::uint64_t seed) {
  constexpr Label kVertexLabels[] = {-2, -1, 0, 3};
  constexpr Label kEdgeLabels[] = {-1, 0, 2};
  Rng rng(seed);
  auto edge_label = [&] { return kEdgeLabels[rng.NextBounded(3)]; };
  LabeledGraph g;
  const auto n = static_cast<VertexId>(12 + rng.NextBounded(6));
  for (VertexId v = 0; v < n; ++v) {
    g.AddVertex(kVertexLabels[rng.NextBounded(4)]);
  }
  const VertexId hub = 0;
  for (VertexId v = 1; v < n;
       v += static_cast<VertexId>(1 + rng.NextBounded(2))) {
    const Label label = edge_label();
    if (rng.NextBool()) {
      g.AddEdge(hub, v, label);
    } else {
      g.AddEdge(v, hub, label);
    }
  }
  for (VertexId i = 0; i < 2 * n; ++i) {
    const auto a = static_cast<VertexId>(rng.NextBounded(n));
    const auto b = static_cast<VertexId>(rng.NextBounded(n));
    const Label label = edge_label();
    g.AddEdge(a, b, label);  // a == b is a self-loop
    switch (rng.NextBounded(4)) {
      case 0:
        g.AddEdge(a, b, label);  // parallel twin
        break;
      case 1:
        g.AddEdge(b, a, edge_label());  // antiparallel partner
        break;
      default:
        break;
    }
  }
  return g;
}

/// FNV-1a of everything a SubdueResult reports, chained through `h`.
std::uint64_t HashResult(const SubdueResult& r, std::uint64_t h) {
  std::string text;
  char buf[64];
  auto add = [&](const char* format, auto value) {
    std::snprintf(buf, sizeof(buf), format, value);
    text += buf;
  };
  add("outcome %d ", static_cast<int>(r.outcome));
  add("evaluated %zu ", r.substructures_evaluated);
  add("ticks %llu ", static_cast<unsigned long long>(r.work_ticks));
  add("base %.17g\n", r.base_cost);
  for (const Substructure& sub : r.best) {
    text += sub.code;
    add(" value %.17g", sub.value);
    add(" disjoint %zu\n", sub.non_overlapping_instances);
    for (VertexId v = 0; v < sub.pattern.num_vertices(); ++v) {
      add("%d ", sub.pattern.vertex_label(v));
    }
    sub.pattern.ForEachEdge([&](EdgeId e) {
      const graph::Edge& edge = sub.pattern.edge(e);
      add("%u>", edge.src);
      add("%u:", edge.dst);
      add("%d ", edge.label);
    });
    text += '\n';
    for (const Instance& inst : sub.instances) {
      for (const VertexId v : inst.vertices) add("%u ", v);
      text += '|';
      for (const EdgeId e : inst.edges) add(" %u", e);
      text += '\n';
    }
  }
  for (const unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Pins the full output of every run (patterns, codes, values, instance
/// lists in order, evaluation counts, ticks, outcome) over graphs that mix
/// labels, loops, parallel and antiparallel pairs and a hub, under every
/// evaluation method, with overlap on and off, with instance caps off and
/// binding, and with the tick budget cut at 50%, 10% and 1%. Any change to
/// how grown instances are keyed, grouped, ordered or capped moves a hash.
TEST(SubdueTest, PinnedOutputOnTexturedMultigraphs) {
  struct Pin {
    std::uint64_t seed;
    EvalMethod method;
    std::uint64_t fnv;
  };
  const Pin pins[] = {
      {11, EvalMethod::kMdl, 0xb4fe061adcfa29b3ULL},
      {11, EvalMethod::kSize, 0x8bf1933670d7c8cfULL},
      {11, EvalMethod::kSetCover, 0x37a5abca2b952493ULL},
      {12, EvalMethod::kMdl, 0x2d19eae01e7e5c43ULL},
      {12, EvalMethod::kSize, 0x6134e59e404fdc29ULL},
      {12, EvalMethod::kSetCover, 0x1fa5f655ce223c23ULL},
      {13, EvalMethod::kMdl, 0x73a692287c8a4315ULL},
      {13, EvalMethod::kSize, 0xb0ac93358f649dc3ULL},
      {13, EvalMethod::kSetCover, 0x551168884ffcb25cULL},
      {14, EvalMethod::kMdl, 0xa791413fd8220e6fULL},
      {14, EvalMethod::kSize, 0x2af4bac42a4d463fULL},
      {14, EvalMethod::kSetCover, 0xb28be2c956133102ULL},
  };
  constexpr std::size_t kCap = 3;
  bool cap_bound = false;
  for (const Pin& pin : pins) {
    const LabeledGraph g = TexturedMultigraph(pin.seed);
    std::uint64_t h = 1469598103934665603ULL;
    for (const bool overlap : {false, true}) {
      for (const std::size_t cap : {std::size_t{0}, kCap}) {
        SubdueOptions options;
        options.method = pin.method;
        options.beam_width = 4;
        options.num_best = 4;
        options.limit = 200;
        options.allow_overlap = overlap;
        options.max_instances = cap;
        // Accounting-only budget: active, tick-unlimited.
        options.budget = common::ResourceBudget(common::BudgetLimits{});
        const SubdueResult full = DiscoverSubstructures(g, options);
        ASSERT_EQ(full.outcome, common::MiningOutcome::kComplete);
        h = HashResult(full, h);
        for (const Substructure& sub : full.best) {
          cap_bound = cap_bound || (cap != 0 && sub.instances.size() == cap);
        }
        for (const double fraction : {0.5, 0.1, 0.01}) {
          common::BudgetLimits limits;
          limits.max_work_ticks = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(
                     static_cast<double>(full.work_ticks) * fraction));
          options.budget = common::ResourceBudget(limits);
          h = HashResult(DiscoverSubstructures(g, options), h);
        }
      }
    }
    EXPECT_EQ(h, pin.fnv) << "seed " << pin.seed << " method "
                          << static_cast<int>(pin.method) << ": got 0x"
                          << std::hex << h;
  }
  EXPECT_TRUE(cap_bound);
}

}  // namespace
}  // namespace tnmine::subdue
