#include "fsg/fsg.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/telemetry.h"
#include "graph/algorithms.h"
#include "graph/graph_view.h"
#include "graph/shard_store.h"
#include "graph/transaction_source.h"
#include "gspan/gspan.h"
#include "iso/canonical.h"
#include "iso/vf2.h"

namespace tnmine::fsg {
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

LabeledGraph Triangle(Label v, Label e) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(v);
  const VertexId b = g.AddVertex(v);
  const VertexId c = g.AddVertex(v);
  g.AddEdge(a, b, e);
  g.AddEdge(b, c, e);
  g.AddEdge(c, a, e);
  return g;
}

TEST(FsgTest, EmptyTransactionsGiveNothing) {
  FsgOptions options;
  options.min_support = 1;
  const FsgResult r = MineFsg({}, options);
  EXPECT_TRUE(r.patterns.empty());
}

TEST(FsgTest, SingleEdgeSupportCounting) {
  std::vector<LabeledGraph> txns = {Edge1(0, 1, 5), Edge1(0, 1, 5),
                                    Edge1(0, 1, 6)};
  FsgOptions options;
  options.min_support = 2;
  const FsgResult r = MineFsg(txns, options);
  ASSERT_EQ(r.patterns.size(), 1u);
  EXPECT_EQ(r.patterns[0].support, 2u);
  EXPECT_EQ(r.patterns[0].tids.ToVector(), (std::vector<std::uint32_t>{0, 1}));
}

TEST(FsgTest, FindsPlantedTriangle) {
  std::vector<LabeledGraph> txns;
  for (int i = 0; i < 4; ++i) txns.push_back(Triangle(0, 1));
  txns.push_back(Edge1(0, 0, 1));  // noise transaction
  FsgOptions options;
  options.min_support = 4;
  const FsgResult r = MineFsg(txns, options);
  // Frequent: single edge (support 5), 2-edge path / 2-in / 2-out shapes
  // from the triangle, and the triangle itself (support 4).
  bool found_triangle = false;
  for (const auto& p : r.patterns) {
    if (p.graph.num_edges() == 3) {
      EXPECT_EQ(p.support, 4u);
      EXPECT_EQ(p.code, iso::CanonicalCode(Triangle(0, 1)));
      found_triangle = true;
    }
  }
  EXPECT_TRUE(found_triangle);
}

TEST(FsgTest, AllReportedPatternsConnected) {
  Rng rng(3);
  std::vector<LabeledGraph> txns;
  for (int t = 0; t < 10; ++t) {
    LabeledGraph g;
    for (int i = 0; i < 6; ++i) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    for (int i = 0; i < 8; ++i) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(6)),
                static_cast<VertexId>(rng.NextBounded(6)),
                static_cast<Label>(rng.NextBounded(2)));
    }
    txns.push_back(std::move(g));
  }
  FsgOptions options;
  options.min_support = 3;
  options.max_edges = 4;
  const FsgResult r = MineFsg(txns, options);
  for (const auto& p : r.patterns) {
    EXPECT_TRUE(graph::IsWeaklyConnected(p.graph)) << p.graph.DebugString();
  }
}

TEST(FsgTest, SupportsAreExact) {
  // Independent verification: every reported pattern's support must match
  // a from-scratch VF2 scan of all transactions, and no pattern may be
  // reported below min_support.
  Rng rng(7);
  std::vector<LabeledGraph> txns;
  for (int t = 0; t < 12; ++t) {
    LabeledGraph g;
    for (int i = 0; i < 5; ++i) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    for (int i = 0; i < 7; ++i) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(5)),
                static_cast<VertexId>(rng.NextBounded(5)),
                static_cast<Label>(rng.NextBounded(2)));
    }
    txns.push_back(std::move(g));
  }
  FsgOptions options;
  options.min_support = 4;
  options.max_edges = 3;
  const FsgResult r = MineFsg(txns, options);
  ASSERT_FALSE(r.patterns.empty());
  for (const auto& p : r.patterns) {
    std::vector<std::uint32_t> expect_tids;
    for (std::uint32_t tid = 0; tid < txns.size(); ++tid) {
      if (iso::ContainsSubgraph(p.graph, txns[tid])) {
        expect_tids.push_back(tid);
      }
    }
    EXPECT_EQ(p.tids.ToVector(), expect_tids) << p.graph.DebugString();
    EXPECT_EQ(p.support, expect_tids.size());
    EXPECT_GE(p.support, options.min_support);
  }
}

TEST(FsgTest, MaxEdgesBoundsPatternSize) {
  std::vector<LabeledGraph> txns = {Triangle(0, 1), Triangle(0, 1)};
  FsgOptions options;
  options.min_support = 2;
  options.max_edges = 2;
  const FsgResult r = MineFsg(txns, options);
  for (const auto& p : r.patterns) {
    EXPECT_LE(p.graph.num_edges(), 2u);
  }
  EXPECT_EQ(r.levels_completed, 2u);
}

TEST(FsgTest, ParallelEdgePatternsNeedMultiplicity) {
  // One transaction has a doubled edge, two have single edges.
  LabeledGraph doubled = Edge1(0, 1, 5);
  doubled.AddEdge(0, 1, 5);
  std::vector<LabeledGraph> txns = {doubled, Edge1(0, 1, 5), Edge1(0, 1, 5)};
  FsgOptions options;
  options.min_support = 1;
  options.max_edges = 2;
  const FsgResult r = MineFsg(txns, options);
  bool found_parallel = false;
  for (const auto& p : r.patterns) {
    if (p.graph.num_edges() == 2 && p.graph.num_vertices() == 2) {
      // The doubled-edge pattern: supported only by transaction 0.
      bool parallel_same = true;
      p.graph.ForEachEdge([&](graph::EdgeId e) {
        parallel_same = parallel_same && p.graph.edge(e).src == 0 &&
                        p.graph.edge(e).dst == 1 &&
                        p.graph.edge(e).label == 5;
      });
      if (parallel_same) {
        found_parallel = true;
        EXPECT_EQ(p.support, 1u);
        EXPECT_EQ(p.tids.ToVector(), (std::vector<std::uint32_t>{0}));
      }
    }
  }
  EXPECT_TRUE(found_parallel);
}

TEST(FsgTest, MemoryBudgetAborts) {
  Rng rng(11);
  std::vector<LabeledGraph> txns;
  for (int t = 0; t < 8; ++t) {
    LabeledGraph g;
    for (int i = 0; i < 8; ++i) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(4)));
    }
    for (int i = 0; i < 14; ++i) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(8)),
                static_cast<VertexId>(rng.NextBounded(8)),
                static_cast<Label>(rng.NextBounded(4)));
    }
    txns.push_back(std::move(g));
  }
  FsgOptions options;
  options.min_support = 2;
  common::BudgetLimits limits;
  limits.max_memory_bytes = 512;  // absurdly small: must trip
  options.budget = common::ResourceBudget(limits);
  const FsgResult r = MineFsg(txns, options);
  EXPECT_EQ(r.outcome, common::MiningOutcome::kMemoryBudgetExceeded);
  // Level-1 patterns are still reported (the abort happens at candidate
  // generation, as FSG's real OOM did).
  EXPECT_FALSE(r.patterns.empty());
  EXPECT_EQ(r.levels_completed, 1u);
  EXPECT_GT(r.peak_candidate_bytes, 512u);
  EXPECT_EQ(options.budget.memory_charged(), 0u);
}

TEST(FsgTest, LevelDiagnosticsConsistent) {
  std::vector<LabeledGraph> txns = {Triangle(0, 1), Triangle(0, 1),
                                    Triangle(0, 2)};
  FsgOptions options;
  options.min_support = 2;
  const FsgResult r = MineFsg(txns, options);
  ASSERT_EQ(r.candidates_per_level.size(), r.frequent_per_level.size());
  std::size_t total = 0;
  for (std::size_t f : r.frequent_per_level) total += f;
  EXPECT_EQ(total, r.patterns.size());
  for (std::size_t i = 0; i < r.frequent_per_level.size(); ++i) {
    EXPECT_LE(r.frequent_per_level[i], r.candidates_per_level[i]);
  }
}

// Level-2 wedge edge cases. Every vertex carries label 0, as in the OD
// partitions, so only the edges' labels and how they share endpoints tell
// the 2-edge patterns apart.

/// A graph on `n` vertices labelled 0 with (src, dst, label) edges.
LabeledGraph Multigraph(
    std::size_t n,
    std::initializer_list<std::tuple<VertexId, VertexId, Label>> edges) {
  LabeledGraph g;
  for (std::size_t v = 0; v < n; ++v) g.AddVertex(0);
  for (const auto& [src, dst, label] : edges) g.AddEdge(src, dst, label);
  return g;
}

/// The TID set FSG reports for `pattern` (empty when not reported).
std::vector<std::uint32_t> TidsOf(const FsgResult& r,
                                  const LabeledGraph& pattern) {
  const std::string code = iso::CanonicalCode(pattern);
  for (const auto& p : r.patterns) {
    if (p.code == code) return p.tids.ToVector();
  }
  return {};
}

FsgResult MineWedges(const std::vector<LabeledGraph>& txns) {
  FsgOptions options;
  options.min_support = 1;
  options.max_edges = 2;
  return MineFsg(txns, options);
}

using Tids = std::vector<std::uint32_t>;

TEST(FsgTest, WedgeParallelEdgesAreNotAnOutStar) {
  const std::vector<LabeledGraph> txns = {
      Multigraph(2, {{0, 1, 5}, {0, 1, 5}}),  // parallel pair only
      Multigraph(3, {{0, 1, 5}, {0, 2, 5}}),  // out-star
  };
  const FsgResult r = MineWedges(txns);
  EXPECT_EQ(TidsOf(r, Multigraph(2, {{0, 1, 5}, {0, 1, 5}})), Tids{0});
  EXPECT_EQ(TidsOf(r, Multigraph(3, {{0, 1, 5}, {0, 2, 5}})), Tids{1});
}

TEST(FsgTest, WedgeTwoCycleIsNotATwoPath) {
  const std::vector<LabeledGraph> txns = {
      Multigraph(2, {{0, 1, 5}, {1, 0, 5}}),  // u <-> v only
      Multigraph(3, {{0, 1, 5}, {1, 2, 5}}),  // 2-path
  };
  const FsgResult r = MineWedges(txns);
  EXPECT_EQ(TidsOf(r, Multigraph(2, {{0, 1, 5}, {1, 0, 5}})), Tids{0});
  EXPECT_EQ(TidsOf(r, Multigraph(3, {{0, 1, 5}, {1, 2, 5}})), Tids{1});
}

TEST(FsgTest, WedgeTwoSelfLoopsShareTheirVertex) {
  const std::vector<LabeledGraph> txns = {
      Multigraph(1, {{0, 0, 5}, {0, 0, 5}}),             // same label
      Multigraph(1, {{0, 0, 5}, {0, 0, 6}}),             // two labels
      Multigraph(2, {{0, 0, 5}, {0, 1, 5}, {1, 1, 5}}),  // loops apart
  };
  const FsgResult r = MineWedges(txns);
  EXPECT_EQ(TidsOf(r, Multigraph(1, {{0, 0, 5}, {0, 0, 5}})), Tids{0});
  EXPECT_EQ(TidsOf(r, Multigraph(1, {{0, 0, 5}, {0, 0, 6}})), Tids{1});
  EXPECT_EQ(TidsOf(r, Multigraph(2, {{0, 0, 5}, {0, 1, 5}})), Tids{2});
}

TEST(FsgTest, WedgeSelfLoopPlusOutEdge) {
  const std::vector<LabeledGraph> txns = {
      Multigraph(2, {{0, 0, 5}, {0, 1, 5}}),
      Multigraph(2, {{0, 0, 5}, {0, 1, 5}, {0, 1, 5}}),
      Multigraph(3, {{0, 1, 5}, {0, 2, 5}}),
  };
  const FsgResult r = MineWedges(txns);
  EXPECT_EQ(TidsOf(r, Multigraph(2, {{0, 0, 5}, {0, 1, 5}})), (Tids{0, 1}));
  EXPECT_EQ(TidsOf(r, Multigraph(2, {{0, 1, 5}, {0, 1, 5}})), Tids{1});
  EXPECT_EQ(TidsOf(r, Multigraph(3, {{0, 1, 5}, {0, 2, 5}})), Tids{2});
}

TEST(FsgTest, WedgeHubWithParallelEdgesToOneNeighbour) {
  const std::vector<LabeledGraph> txns = {
      // Three edges to one neighbour and one to another.
      Multigraph(3, {{0, 1, 5}, {0, 1, 5}, {0, 1, 5}, {0, 2, 5}}),
      Multigraph(2, {{0, 1, 5}, {0, 1, 5}, {0, 1, 5}}),
  };
  const FsgResult r = MineWedges(txns);
  EXPECT_EQ(TidsOf(r, Multigraph(3, {{0, 1, 5}, {0, 2, 5}})), Tids{0});
  EXPECT_EQ(TidsOf(r, Multigraph(2, {{0, 1, 5}, {0, 1, 5}})), (Tids{0, 1}));
}

// Wedge check at levels 3 and 4: an extension is skipped when a wedge
// its new edge forms with a parent edge is not a frequent 2-edge pattern,
// so the check must give each such wedge its true roles. Every 3- and
// 4-edge pattern below is reachable only by adding an edge parallel to a
// parent edge, antiparallel to one, or a self-loop beside a parent
// self-loop, and the wedge with the other role is absent from the data.
// gSpan, which has no such check, is the oracle.

/// Canonical code -> (support, TID list) of every mined pattern.
using ByCodeMap = std::map<std::string, std::pair<std::size_t, Tids>>;

ByCodeMap ByCode(const std::vector<pattern::FrequentPattern>& patterns) {
  ByCodeMap by_code;
  for (const auto& p : patterns) {
    by_code.emplace(p.code, std::make_pair(p.support, p.tids.ToVector()));
  }
  return by_code;
}

TEST(FsgTest, WedgeCheckRolesMatchGspan) {
  const std::vector<LabeledGraph> txns = {
      // Parallel edges.
      Multigraph(2, {{0, 1, 1}, {0, 1, 1}, {0, 1, 1}, {0, 1, 1}}),
      Multigraph(2, {{0, 1, 1}, {0, 1, 1}, {0, 1, 1}, {0, 1, 1}}),
      Multigraph(2, {{0, 1, 1}, {0, 1, 1}, {0, 1, 1}}),
      // Edges both ways: labels 5 and 7 run 0 -> 1, labels 6 and 8 back.
      Multigraph(2, {{0, 1, 5}, {1, 0, 6}, {0, 1, 7}, {1, 0, 8}}),
      Multigraph(2, {{0, 1, 5}, {1, 0, 6}, {0, 1, 7}, {1, 0, 8}}),
      Multigraph(2, {{0, 1, 5}, {1, 0, 6}, {0, 1, 7}}),
      // Self-loops.
      Multigraph(1, {{0, 0, 2}, {0, 0, 2}, {0, 0, 3}, {0, 0, 4}}),
      Multigraph(1, {{0, 0, 2}, {0, 0, 2}, {0, 0, 3}, {0, 0, 4}}),
      Multigraph(1, {{0, 0, 2}, {0, 0, 3}, {0, 0, 4}}),
  };
  FsgOptions options;
  options.min_support = 2;
  options.max_edges = 4;
  const FsgResult fsg = MineFsg(txns, options);
  gspan::GspanOptions gspan_options;
  gspan_options.min_support = 2;
  gspan_options.max_edges = 4;
  EXPECT_EQ(ByCode(fsg.patterns),
            ByCode(gspan::MineGspan(txns, gspan_options).patterns));

  // Each transaction graph is itself a frequent 3- or 4-edge pattern.
  EXPECT_EQ(TidsOf(fsg, txns[0]), (Tids{0, 1}));
  EXPECT_EQ(TidsOf(fsg, txns[2]), (Tids{0, 1, 2}));
  EXPECT_EQ(TidsOf(fsg, txns[3]), (Tids{3, 4}));
  EXPECT_EQ(TidsOf(fsg, txns[5]), (Tids{3, 4, 5}));
  EXPECT_EQ(TidsOf(fsg, txns[6]), (Tids{6, 7}));
  EXPECT_EQ(TidsOf(fsg, txns[8]), (Tids{6, 7, 8}));
}

// Witness-first counting (DESIGN.md §12). A candidate's check first
// extends one stored occurrence of its generating parent by the added
// edge and runs VF2 only when that fails, so each Witness case below has
// a transaction where the parent's first occurrence does not extend.

/// A graph with the given vertex labels and (src, dst, label) edges.
LabeledGraph Labeled(
    std::initializer_list<Label> labels,
    std::initializer_list<std::tuple<VertexId, VertexId, Label>> edges) {
  LabeledGraph g;
  for (const Label label : labels) g.AddVertex(label);
  for (const auto& [src, dst, label] : edges) g.AddEdge(src, dst, label);
  return g;
}

/// Every mined pattern's TID set must equal the transactions that
/// SubgraphMatcher::Contains finds it in.
void ExpectTidsExact(const FsgResult& r,
                     const std::vector<LabeledGraph>& txns) {
  std::vector<graph::GraphView> views(txns.begin(), txns.end());
  for (const auto& p : r.patterns) {
    iso::SubgraphMatcher matcher(p.graph);
    Tids expect;
    for (std::uint32_t tid = 0; tid < views.size(); ++tid) {
      if (matcher.Contains(views[tid])) expect.push_back(tid);
    }
    EXPECT_EQ(p.tids.ToVector(), expect) << p.graph.DebugString();
    EXPECT_EQ(p.support, expect.size());
  }
}

/// The growth of counter `name` while `fn` runs (0 when telemetry is
/// compiled out).
template <typename Fn>
std::uint64_t CounterDelta(const char* name, Fn&& fn) {
  auto read = [&] {
    const auto counters = telemetry::Registry::Global().Snapshot().counters;
    const auto it = counters.find(name);
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t before = read();
  fn();
  return read() - before;
}

FsgResult MineUpTo(const std::vector<LabeledGraph>& txns, std::size_t edges) {
  FsgOptions options;
  options.min_support = 1;
  options.max_edges = edges;
  return MineFsg(txns, options);
}

TEST(FsgTest, WitnessInnerEdgeNeedsEveryParallelTargetEdge) {
  // The triple a -> b needs three parallel target edges. t1 has only two;
  // in t2 the pair VF2 finds first has two and the other pair three; t4's
  // 4-edge pattern extends a stored 3-edge witness.
  const std::vector<LabeledGraph> txns = {
      Multigraph(2, {{0, 1, 5}, {0, 1, 5}, {0, 1, 5}}),
      Multigraph(2, {{0, 1, 5}, {0, 1, 5}}),
      Multigraph(4, {{0, 1, 5}, {0, 1, 5}, {2, 3, 5}, {2, 3, 5}, {2, 3, 5}}),
      Multigraph(3, {{0, 1, 5}, {0, 1, 5}, {0, 2, 5}}),
      Multigraph(3, {{0, 1, 5}, {0, 1, 5}, {0, 1, 5}, {0, 2, 5}}),
  };
  const FsgResult r = MineUpTo(txns, 4);
  ExpectTidsExact(r, txns);
  EXPECT_EQ(TidsOf(r, txns[0]), (Tids{0, 2, 4}));
  EXPECT_EQ(TidsOf(r, txns[4]), Tids{4});
}

TEST(FsgTest, WitnessSelfLoopNeedsEveryLoopOnTheImage) {
  // Two label-6 loops on the edge's source: t1 has one loop at each end,
  // and t2's first occurrence of "edge plus one loop" has a single loop.
  const std::vector<LabeledGraph> txns = {
      Multigraph(2, {{0, 1, 5}, {0, 0, 6}, {0, 0, 6}}),
      Multigraph(2, {{0, 1, 5}, {0, 0, 6}, {1, 1, 6}}),
      Multigraph(4, {{0, 1, 5}, {0, 0, 6}, {2, 3, 5}, {2, 2, 6}, {2, 2, 6}}),
  };
  const FsgResult r = MineUpTo(txns, 3);
  ExpectTidsExact(r, txns);
  EXPECT_EQ(TidsOf(r, txns[0]), (Tids{0, 2}));
}

TEST(FsgTest, WitnessNewVertexSkipsMappedNeighbours) {
  // A label-0 hub with three distinct label-1 leaves. In t0 the hub's
  // only label-1 neighbours are the two leaves the 2-leaf witness maps
  // (one of them twice over), so the extension must not reuse them; t3
  // asks the same of a new vertex on the hub's in-side.
  const std::vector<LabeledGraph> txns = {
      Labeled({0, 1, 1}, {{0, 1, 5}, {0, 1, 5}, {0, 2, 5}}),
      Labeled({0, 1, 1, 1}, {{0, 1, 5}, {0, 2, 5}, {0, 3, 5}}),
      Labeled({0, 1, 1, 2}, {{0, 1, 5}, {0, 2, 5}, {0, 3, 5}}),
      Labeled({1, 1, 0}, {{2, 0, 5}, {2, 1, 5}, {1, 2, 5}, {0, 2, 5}}),
  };
  const FsgResult r = MineUpTo(txns, 3);
  ExpectTidsExact(r, txns);
  EXPECT_EQ(TidsOf(r, txns[1]), Tids{1});
  EXPECT_EQ(TidsOf(r, txns[0]), Tids{0});
}

TEST(FsgTest, WitnessThatDoesNotExtendFallsBackToVf2) {
  // Each transaction holds two copies of the parent. Only the copy with
  // the higher vertex ids, which VF2 finds second, carries the added edge:
  // a label-6 tail after a 2-path (level 3), and a label-7 tail after a
  // 3-path (level 4, extending a stored witness).
  const std::vector<LabeledGraph> txns = {
      Multigraph(7, {{0, 1, 5}, {1, 2, 5}, {3, 4, 5}, {4, 5, 5}, {5, 6, 6}}),
      Multigraph(9, {{0, 1, 5}, {1, 2, 5}, {2, 3, 6}, {4, 5, 5}, {5, 6, 5},
                     {6, 7, 6}, {7, 8, 7}}),
  };
  std::uint64_t hits = 0;
  FsgResult r;
  const std::uint64_t checks = CounterDelta("fsg/support_checks", [&] {
    hits = CounterDelta("fsg/witness_hits", [&] { r = MineUpTo(txns, 4); });
  });
  ExpectTidsExact(r, txns);
  const LabeledGraph path3 = Multigraph(4, {{0, 1, 5}, {1, 2, 5}, {2, 3, 6}});
  const LabeledGraph path4 =
      Multigraph(5, {{0, 1, 5}, {1, 2, 5}, {2, 3, 6}, {3, 4, 7}});
  EXPECT_EQ(TidsOf(r, path3), (Tids{0, 1}));
  EXPECT_EQ(TidsOf(r, path4), Tids{1});
  EXPECT_LE(hits, checks);
#if TNMINE_TELEMETRY_ENABLED
  EXPECT_GT(hits, 0u);
#endif
}

/// Random multigraphs with parallel edges and self-loops, over
/// `vertex_labels` vertex labels and `edge_labels` edge labels.
std::vector<LabeledGraph> RandomMultigraphs(std::uint64_t seed,
                                            std::size_t count,
                                            std::size_t vertices,
                                            std::size_t edges,
                                            std::uint64_t vertex_labels = 2,
                                            std::uint64_t edge_labels = 3) {
  Rng rng(seed);
  std::vector<LabeledGraph> txns;
  for (std::size_t t = 0; t < count; ++t) {
    LabeledGraph g;
    for (std::size_t i = 0; i < vertices; ++i) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(vertex_labels)));
    }
    for (std::size_t i = 0; i < edges; ++i) {
      const auto src = static_cast<VertexId>(rng.NextBounded(vertices));
      const auto dst = rng.NextBounded(6) == 0
                           ? src
                           : static_cast<VertexId>(rng.NextBounded(vertices));
      const auto label = static_cast<Label>(rng.NextBounded(edge_labels));
      g.AddEdge(src, dst, label);
      if (rng.NextBounded(5) == 0) g.AddEdge(src, dst, label);
    }
    txns.push_back(std::move(g));
  }
  return txns;
}

TEST(FsgTest, RandomMultigraphTidsMatchContains) {
  // Two vertex and three edge labels, then one vertex and two edge labels
  // (dense, like the OD partitions): level-4 checks extend the witnesses
  // level 3 stored.
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    for (const bool dense : {false, true}) {
      const auto txns = dense ? RandomMultigraphs(seed, 32, 6, 12, 1, 2)
                              : RandomMultigraphs(seed, 16, 5, 12);
      FsgOptions options;
      options.min_support = dense ? 8 : 3;
      options.max_edges = 5;
      const FsgResult r = MineFsg(txns, options);
      ASSERT_EQ(r.outcome, common::MiningOutcome::kComplete);
      ASSERT_GE(r.levels_completed, 4u) << "seed " << seed;
      ExpectTidsExact(r, txns);
    }
  }
}

TEST(FsgTest, MatchStepCapEndsTheLevelInsteadOfUndercounting) {
  // One VF2 step cannot find a triangle, nor the wedge occurrence its
  // witness would extend: every level-3 check hits the cap.
  std::vector<LabeledGraph> txns;
  for (int i = 0; i < 4; ++i) txns.push_back(Triangle(0, 1));
  FsgOptions options;
  options.min_support = 4;
  options.max_match_steps = 1;
  FsgResult r;
  const std::uint64_t exhausted = CounterDelta(
      "fsg/match_steps_exhausted", [&] { r = MineFsg(txns, options); });
  EXPECT_EQ(r.outcome, common::MiningOutcome::kDeadlineExceeded);
  EXPECT_EQ(r.levels_completed, 2u);
  for (const auto& p : r.patterns) EXPECT_LE(p.graph.num_edges(), 2u);
  ExpectTidsExact(r, txns);
#if TNMINE_TELEMETRY_ENABLED
  EXPECT_GT(exhausted, 0u);
#endif
  (void)exhausted;
  // Without the cap the same run completes and finds the triangle.
  options.max_match_steps = 0;
  const FsgResult full = MineFsg(txns, options);
  EXPECT_EQ(full.outcome, common::MiningOutcome::kComplete);
  EXPECT_EQ(TidsOf(full, Triangle(0, 1)), (Tids{0, 1, 2, 3}));
}

TEST(FsgTest, MemoryCeilingChangesWitnessesNotOutput) {
  const auto txns = RandomMultigraphs(31, 32, 6, 12, 1, 2);
  FsgOptions options;
  options.min_support = 12;
  options.max_edges = 4;
  // Mines under `ceiling` bytes (0: none, but still metered) and returns
  // the parent-occurrence searches the run made.
  auto mine = [&](std::uint64_t ceiling, FsgResult* r) {
    common::BudgetLimits limits;
    limits.max_memory_bytes = ceiling;
    options.budget = common::ResourceBudget(limits);
    const std::uint64_t searches = CounterDelta(
        "fsg/parent_searches", [&] { *r = MineFsg(txns, options); });
    EXPECT_EQ(options.budget.memory_charged(), 0u) << "ceiling " << ceiling;
    return searches;
  };
  FsgResult reference;
  const std::uint64_t searches = mine(0, &reference);
  ASSERT_EQ(reference.outcome, common::MiningOutcome::kComplete);
  ASSERT_EQ(reference.levels_completed, 4u);
  // The tightest ceiling the run completes under. Stored witnesses do
  // not fit beside the last level's candidates there, so they are dropped
  // and the children search for their parents' occurrences again; what
  // is mined must not change.
  std::uint64_t fails = 0;
  std::uint64_t completes = std::uint64_t{1} << 24;
  FsgResult r;
  (void)mine(completes, &r);
  ASSERT_EQ(r.outcome, common::MiningOutcome::kComplete);
  while (completes - fails > 1) {
    const std::uint64_t mid = fails + (completes - fails) / 2;
    (void)mine(mid, &r);
    if (r.outcome == common::MiningOutcome::kComplete) {
      completes = mid;
    } else {
      fails = mid;
    }
  }
  const std::uint64_t tight_searches = mine(completes, &r);
  ASSERT_EQ(r.outcome, common::MiningOutcome::kComplete);
  EXPECT_EQ(ByCode(r.patterns), ByCode(reference.patterns));
  EXPECT_EQ(r.work_ticks, reference.work_ticks);
  EXPECT_EQ(r.candidates_per_level, reference.candidates_per_level);
#if TNMINE_TELEMETRY_ENABLED
  EXPECT_GT(tight_searches, searches);
#endif
  (void)tight_searches;
  (void)searches;
}

// Closure by core-table lookup (DESIGN.md §12, "Core tables"). A 4-edge
// extension C = P + e has the 3-edge sub-patterns (P − f) + e, which
// generation looks up under P − f instead of coding them.

TEST(FsgTest, BridgeFallbackPrunesWhatNoLookupCan) {
  // Two transactions, each holding the paths 1-2-3, 2-3-4 and 4-1-2 (by
  // edge label, one vertex label). The 4-cycle 1-2-3-4 extends the path
  // 1-2-3 by a 4-edge closing it. Its wedges are frequent, and so are the
  // sub-patterns that drop a pendant edge of the path (2-3-4 and 4-1-2);
  // only dropping the middle edge, a bridge that the new edge
  // reconnects, leaves the path 3-4-1, which no transaction holds. The
  // core table has no row for a bridge, so only coding C − f shows it.
  const LabeledGraph txn =
      Multigraph(12, {{0, 1, 1}, {1, 2, 2}, {2, 3, 3},      // 1-2-3
                      {4, 5, 2}, {5, 6, 3}, {6, 7, 4},      // 2-3-4
                      {8, 9, 4}, {9, 10, 1}, {10, 11, 2}});  // 4-1-2
  const std::vector<LabeledGraph> txns = {txn, txn};
  FsgOptions options;
  options.min_support = 2;
  options.max_edges = 4;
  std::uint64_t fallbacks = 0;
  FsgResult r;
  const std::uint64_t pruned = CounterDelta(
      "fsg/candidates_pruned_closure", [&] {
        fallbacks = CounterDelta("fsg/closure_fallbacks",
                                 [&] { r = MineFsg(txns, options); });
      });
  ASSERT_EQ(r.outcome, common::MiningOutcome::kComplete);
  // Level 4 keeps only the two 4-paths 1-2-3-4 and 4-1-2-3, whose
  // connected sub-patterns are all frequent; neither is.
  EXPECT_EQ(r.candidates_per_level, (std::vector<std::size_t>{4, 4, 4, 2}));
  EXPECT_EQ(r.frequent_per_level, (std::vector<std::size_t>{4, 4, 3, 0}));
  gspan::GspanOptions gspan_options;
  gspan_options.min_support = 2;
  gspan_options.max_edges = 4;
  EXPECT_EQ(ByCode(r.patterns),
            ByCode(gspan::MineGspan(txns, gspan_options).patterns));
#if TNMINE_TELEMETRY_ENABLED
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(pruned, 0u);
#endif
  (void)fallbacks;
  (void)pruned;
}

TEST(FsgTest, CoreLookupFindsTheImageUnderAnAutomorphism) {
  // One vertex and one edge label. The 4-edge pattern x->y, x->z, y->z,
  // y->w (a transitive triangle with a tail out of its middle vertex)
  // lies in t0 and t1. Generating it from the frequent y->z, y->w, x->y
  // by x->z, the sub-pattern that drops x->y is the out-star y->z, y->w
  // plus x->z; its core, the out-star, has the automorphism that swaps
  // its leaves. The parent's vertex map and the sub-pattern's own can
  // put z on different leaves, so the table must hold the added edge
  // under both.
  const std::vector<LabeledGraph> txns = {
      Multigraph(4, {{2, 3, 1}, {0, 2, 1}, {0, 1, 1}, {2, 1, 1}}),
      Multigraph(4, {{1, 3, 1}, {2, 3, 1}, {0, 2, 1}, {0, 1, 1}, {1, 2, 1}}),
      Multigraph(4, {{1, 2, 1}, {3, 2, 1}, {0, 3, 1}}),
  };
  FsgOptions options;
  options.min_support = 2;
  options.max_edges = 4;
  const FsgResult r = MineFsg(txns, options);
  ASSERT_EQ(r.outcome, common::MiningOutcome::kComplete);
  ExpectTidsExact(r, txns);
  EXPECT_EQ(TidsOf(r, Multigraph(4, {{0, 1, 1}, {0, 2, 1}, {1, 2, 1},
                                     {1, 3, 1}})),
            (Tids{0, 1}));
  gspan::GspanOptions gspan_options;
  gspan_options.min_support = 2;
  gspan_options.max_edges = 4;
  EXPECT_EQ(ByCode(r.patterns),
            ByCode(gspan::MineGspan(txns, gspan_options).patterns));
}

TEST(FsgTest, CoresWithTooManyAutomorphismsFallBackToCoding) {
  // Two out-stars with 14 interchangeable leaves, mined without a size
  // limit. A k-leaf star core has k! automorphisms; from the 6-leaf core
  // on there are too many to register, so closure is decided by coding.
  // The k-leaf stars, k = 1..14, are exactly the frequent patterns. (gSpan
  // is no oracle here: it would list the 14!/(14 - k)! embeddings of each.)
  LabeledGraph star;
  star.AddVertex(0);
  ByCodeMap expect;
  for (VertexId v = 1; v <= 14; ++v) {
    star.AddVertex(0);
    star.AddEdge(0, v, 1);
    expect.emplace(iso::CanonicalCode(star), std::make_pair(2, Tids{0, 1}));
  }
  const std::vector<LabeledGraph> txns = {star, star};
  FsgOptions options;
  options.min_support = 2;
  std::uint64_t fallbacks = 0;
  FsgResult r;
  fallbacks = CounterDelta("fsg/closure_fallbacks",
                           [&] { r = MineFsg(txns, options); });
  ASSERT_EQ(r.outcome, common::MiningOutcome::kComplete);
  EXPECT_EQ(ByCode(r.patterns), expect);
  // Level 15 counts the 15-leaf star, which neither transaction holds.
  std::vector<std::size_t> frequent(14, 1);
  frequent.push_back(0);
  EXPECT_EQ(r.frequent_per_level, frequent);
#if TNMINE_TELEMETRY_ENABLED
  EXPECT_GT(fallbacks, 0u);
#endif
  (void)fallbacks;
}

/// Transactions with the textures candidate generation must get right.
/// `uniform`: one vertex label, like the OD partitions; each transaction
/// is a hub star with equal-label leaves (edges out of and into the hub),
/// a 3-cycle and a 4-cycle hung off leaves, and a few random edges, over
/// edge labels 1 and 2. Otherwise: three vertex and three edge labels,
/// with self-loops and parallel and antiparallel pairs.
std::vector<LabeledGraph> TexturedTransactions(std::uint64_t seed,
                                               bool uniform) {
  Rng rng(seed);
  std::vector<LabeledGraph> txns;
  for (int t = 0; t < 14; ++t) {
    LabeledGraph g;
    if (uniform) {
      auto label = [&] { return static_cast<Label>(1 + rng.NextBounded(2)); };
      const VertexId hub = g.AddVertex(0);
      std::vector<VertexId> leaves;
      const std::uint64_t n = 3 + rng.NextBounded(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        const VertexId leaf = g.AddVertex(0);
        if (rng.NextBounded(4) == 0) {
          g.AddEdge(leaf, hub, label());
        } else {
          g.AddEdge(hub, leaf, label());
        }
        leaves.push_back(leaf);
      }
      for (const std::size_t len : {3, 4}) {
        const VertexId start = leaves[rng.NextBounded(leaves.size())];
        VertexId prev = start;
        for (std::size_t i = 1; i < len; ++i) {
          const VertexId next = g.AddVertex(0);
          g.AddEdge(prev, next, 1);
          prev = next;
        }
        g.AddEdge(prev, start, 1);
      }
      for (int i = 0; i < 2; ++i) {
        const auto a = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
        const auto b = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
        if (a != b) g.AddEdge(a, b, label());
      }
    } else {
      auto label = [&] { return static_cast<Label>(rng.NextBounded(3)); };
      const std::uint64_t n = 5 + rng.NextBounded(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        g.AddVertex(static_cast<Label>(rng.NextBounded(3)));
      }
      for (int i = 0; i < 9; ++i) {
        const auto a = static_cast<VertexId>(rng.NextBounded(n));
        const auto b = rng.NextBounded(6) == 0
                           ? a
                           : static_cast<VertexId>(rng.NextBounded(n));
        const Label l = label();
        g.AddEdge(a, b, l);  // a == b is a self-loop
        switch (rng.NextBounded(4)) {
          case 0:
            g.AddEdge(a, b, l);  // parallel twin
            break;
          case 1:
            g.AddEdge(b, a, label());  // antiparallel partner
            break;
          default:
            break;
        }
      }
    }
    txns.push_back(std::move(g));
  }
  return txns;
}

/// FNV-1a of every FsgResult field, chained through `h`.
std::uint64_t HashResult(const FsgResult& r, std::uint64_t h) {
  std::string text;
  auto add = [&](auto value) {
    text += std::to_string(value);
    text += ' ';
  };
  add(static_cast<int>(r.outcome));
  add(static_cast<int>(r.outcome ==
                       common::MiningOutcome::kMemoryBudgetExceeded));
  add(r.levels_completed);
  add(r.peak_candidate_bytes);
  add(r.work_ticks);
  for (const std::size_t n : r.candidates_per_level) add(n);
  text += '|';
  for (const std::size_t n : r.frequent_per_level) add(n);
  text += '\n';
  for (const auto& p : r.patterns) {
    text += p.code;
    text += ' ';
    add(p.support);
    for (const std::uint32_t tid : p.tids) add(tid);
    text += '|';
    for (VertexId v = 0; v < p.graph.num_vertices(); ++v) {
      add(p.graph.vertex_label(v));
    }
    p.graph.ForEachEdge([&](graph::EdgeId e) {
      const graph::Edge& edge = p.graph.edge(e);
      add(edge.src);
      add(edge.dst);
      add(edge.label);
    });
    text += '\n';
  }
  for (const unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Pins the whole result of every run (patterns with their graphs, codes,
/// supports and TIDs; candidates and frequent patterns per level; peak
/// candidate bytes, ticks and outcome) on symmetric and mixed-label
/// multigraphs up to 5 edges, at 1 and 4 lanes, unbudgeted, at three tick
/// cuts and at two memory ceilings, with the support checks and witness
/// hits they made. Any change to which candidates generation
/// keeps, from which parent, in which order, or what it charges, moves a
/// hash.
TEST(FsgTest, PinnedOutputOnTexturedMultigraphs) {
  struct Pin {
    std::uint64_t seed;
    bool uniform;
    std::size_t min_support;
    std::uint64_t fnv;
    std::uint64_t checks;
    std::uint64_t hits;
  };
  const Pin pins[] = {
      {41, true, 5, 0x97c5964389825ab5ULL, 12128, 5782},
      {42, true, 4, 0x0bfe28688d92663bULL, 15812, 7248},
      {43, false, 2, 0xf926e581e43703e7ULL, 364, 316},
      {44, false, 2, 0xe0fe13d3763d1f31ULL, 320, 180},
  };
  for (const Pin& pin : pins) {
    const auto txns = TexturedTransactions(pin.seed, pin.uniform);
    std::uint64_t h = 1469598103934665603ULL;
    std::uint64_t checks = 0;
    std::uint64_t hits = 0;
    auto mine = [&](const FsgOptions& options) {
      FsgResult r;
      checks += CounterDelta("fsg/support_checks", [&] {
        hits += CounterDelta("fsg/witness_hits",
                             [&] { r = MineFsg(txns, options); });
      });
      h = HashResult(r, h);
      return r;
    };
    for (const std::size_t lanes : {1, 4}) {
      FsgOptions options;
      options.min_support = pin.min_support;
      options.max_edges = 5;
      options.parallelism = common::Parallelism{lanes};
      // Accounting-only budget: active, tick-unlimited.
      options.budget = common::ResourceBudget(common::BudgetLimits{});
      const FsgResult full = mine(options);
      ASSERT_EQ(full.outcome, common::MiningOutcome::kComplete);
      ASSERT_EQ(full.levels_completed, 5u) << "seed " << pin.seed;
      for (const double fraction : {0.9, 0.5, 0.1}) {
        common::BudgetLimits limits;
        limits.max_work_ticks = static_cast<std::uint64_t>(
            static_cast<double>(full.work_ticks) * fraction);
        options.budget = common::ResourceBudget(limits);
        (void)mine(options);
      }
      for (const double fraction : {0.95, 0.6}) {
        common::BudgetLimits limits;
        limits.max_memory_bytes = static_cast<std::uint64_t>(
            static_cast<double>(full.peak_candidate_bytes) * fraction);
        options.budget = common::ResourceBudget(limits);
        (void)mine(options);
      }
    }
    EXPECT_EQ(h, pin.fnv) << "seed " << pin.seed << ": got 0x" << std::hex
                          << h;
#if TNMINE_TELEMETRY_ENABLED
    EXPECT_EQ(checks, pin.checks) << "seed " << pin.seed;
    EXPECT_EQ(hits, pin.hits) << "seed " << pin.seed;
#endif
    (void)checks;
    (void)hits;
  }
}

/// 200 transactions like the temporal day graphs: most vertex labels occur
/// once in the whole set, around a recurring core of labels 1-3. The core
/// carries two triples frequent in one form only: (1, 1, 1) as an edge
/// between two vertices but not as a self-loop, and (2, 2, 2) the other
/// way round. Parallel and antiparallel pairs occur in the core and
/// among the one-off vertices.
std::vector<LabeledGraph> LabelRichTransactions(std::uint64_t seed) {
  Rng rng(seed);
  Label next_label = 100;
  std::vector<LabeledGraph> txns;
  for (int t = 0; t < 200; ++t) {
    LabeledGraph g;
    const VertexId a1 = g.AddVertex(1);
    const VertexId a2 = g.AddVertex(1);
    const VertexId b = g.AddVertex(2);
    const VertexId c = g.AddVertex(3);
    if (rng.NextBounded(5) != 0) g.AddEdge(a1, a2, 1);
    if (rng.NextBounded(4) == 0) g.AddEdge(a1, a2, 1);  // parallel twin
    if (rng.NextBounded(5) != 0) g.AddEdge(b, b, 2);
    if (rng.NextBounded(5) != 0) g.AddEdge(a1, b, 3);
    if (rng.NextBounded(5) != 0) g.AddEdge(b, c, 1);
    if (rng.NextBounded(3) == 0) g.AddEdge(c, b, 1);  // antiparallel
    // The infrequent forms, in 3 transactions each.
    if (t % 67 == 0) g.AddEdge(a1, a1, 1);
    if (t % 67 == 5) g.AddEdge(b, g.AddVertex(2), 2);
    // One-off vertices; a few labels come from a small pool and recur.
    const std::uint64_t n = 3 + rng.NextBounded(5);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Label label = rng.NextBounded(4) == 0
                              ? static_cast<Label>(50 + rng.NextBounded(6))
                              : next_label++;
      const VertexId v = g.AddVertex(label);
      const auto other =
          static_cast<VertexId>(rng.NextBounded(g.num_vertices() - 1));
      const auto edge_label = static_cast<Label>(1 + rng.NextBounded(3));
      if (rng.NextBool()) {
        g.AddEdge(v, other, edge_label);
      } else {
        g.AddEdge(other, v, edge_label);
      }
      switch (rng.NextBounded(5)) {
        case 0:
          g.AddEdge(v, other, edge_label);
          break;
        case 1:
          g.AddEdge(other, v, edge_label);
          break;
        case 2:
          g.AddEdge(v, v, edge_label);
          break;
        default:
          break;
      }
    }
    txns.push_back(std::move(g));
  }
  return txns;
}

/// Pins level 1 on label-rich transactions, where most edge types are
/// infrequent: the whole result of every run, and the level-1 index's
/// size and the feasibility work it drives. Runs at 1 and 4 lanes,
/// unbudgeted, at a tick cut inside level 1 and one after it, at memory
/// ceilings below and above the level-1 index's bytes, and through
/// in-memory shards of 1 and 7 transactions.
TEST(FsgTest, PinnedLevel1OnLabelRichTransactions) {
  struct Pin {
    std::uint64_t seed;
    std::size_t min_support;
    std::uint64_t fnv;
    std::uint64_t pruned_by_join;
    std::uint64_t wedge_classes;
    std::uint64_t intersect_words;
    std::uint64_t gallop_steps;
  };
  const Pin pins[] = {
      {51, 6, 0x413f30836fe69005ULL, 68478, 434, 1232, 0},
      {52, 5, 0xeb3ac1977a72048fULL, 89074, 574, 1232, 280},
  };
  const char* const kCounters[] = {
      "fsg/feasible_pruned_by_join", "fsg/wedge_classes_indexed",
      "tidset/intersect_words", "tidset/gallop_steps"};
  for (const Pin& pin : pins) {
    const auto txns = LabelRichTransactions(pin.seed);
    std::uint64_t level1_ticks = 0;
    for (const LabeledGraph& t : txns) level1_ticks += 1 + t.num_edges();
    std::uint64_t h = 1469598103934665603ULL;
    std::uint64_t counts[4] = {0, 0, 0, 0};
    auto mine = [&](const FsgOptions& options, std::size_t shard_size) {
      const auto before = telemetry::Registry::Global().Snapshot().counters;
      FsgResult r;
      if (shard_size == 0) {
        r = MineFsg(txns, options);
      } else {
        std::vector<graph::GraphView> views;
        for (const LabeledGraph& t : txns) views.emplace_back(t);
        graph::InMemoryTransactionSource source(std::move(views), shard_size);
        r = MineFsg(source, options);
      }
      const auto after = telemetry::Registry::Global().Snapshot().counters;
      for (int i = 0; i < 4; ++i) {
        const auto b = before.find(kCounters[i]);
        const auto a = after.find(kCounters[i]);
        counts[i] += (a == after.end() ? 0 : a->second) -
                     (b == before.end() ? 0 : b->second);
      }
      h = HashResult(r, h);
      return r;
    };
    for (const std::size_t lanes : {1, 4}) {
      FsgOptions options;
      options.min_support = pin.min_support;
      options.max_edges = 4;
      options.parallelism = common::Parallelism{lanes};
      // Accounting-only budget: active, tick-unlimited.
      options.budget = common::ResourceBudget(common::BudgetLimits{});
      const FsgResult full = mine(options, 0);
      ASSERT_EQ(full.outcome, common::MiningOutcome::kComplete);
      ASSERT_GE(full.levels_completed, 3u) << "seed " << pin.seed;
      for (const std::uint64_t ticks :
           {level1_ticks / 2,
            level1_ticks + (full.work_ticks - level1_ticks) / 2}) {
        common::BudgetLimits limits;
        limits.max_work_ticks = ticks;
        options.budget = common::ResourceBudget(limits);
        (void)mine(options, 0);
      }
      options.budget = common::ResourceBudget(common::BudgetLimits{});
      FsgOptions level1 = options;
      level1.max_edges = 1;
      const std::uint64_t index_bytes = mine(level1, 0).peak_candidate_bytes;
      for (const std::uint64_t cut :
           {index_bytes - 1,
            index_bytes + (full.peak_candidate_bytes - index_bytes) / 4}) {
        common::BudgetLimits limits;
        limits.max_memory_bytes = cut;
        options.budget = common::ResourceBudget(limits);
        (void)mine(options, 0);
      }
      options.budget = common::ResourceBudget(common::BudgetLimits{});
      for (const std::size_t shard_size : {1, 7}) {
        EXPECT_EQ(HashResult(mine(options, shard_size), 0),
                  HashResult(full, 0))
            << "seed " << pin.seed << ", shards of " << shard_size;
      }
    }
    EXPECT_EQ(h, pin.fnv) << "seed " << pin.seed << ": got 0x" << std::hex
                          << h;
#if TNMINE_TELEMETRY_ENABLED
    EXPECT_EQ(counts[0], pin.pruned_by_join) << "seed " << pin.seed;
    EXPECT_EQ(counts[1], pin.wedge_classes) << "seed " << pin.seed;
    EXPECT_EQ(counts[2], pin.intersect_words) << "seed " << pin.seed;
    EXPECT_EQ(counts[3], pin.gallop_steps) << "seed " << pin.seed;
#endif
    (void)counts;
  }
}

/// The memory ceiling bounds what FSG retains between levels (the
/// level-1 index, the frontier and the previous level's sets) plus the
/// level's candidates, not the candidates alone: one byte under that sum
/// refuses level 2's last candidate, although the candidates alone would
/// fit twice over.
TEST(FsgTest, MemoryCeilingCountsRetainedBytes) {
  const auto txns = LabelRichTransactions(51);
  FsgOptions options;
  options.min_support = 6;
  options.max_edges = 1;
  const std::uint64_t retained = MineFsg(txns, options).peak_candidate_bytes;
  options.max_edges = 2;
  // Accounting-only budget: active, so ticks are counted, but unlimited.
  options.budget = common::ResourceBudget(common::BudgetLimits{});
  const FsgResult full = MineFsg(txns, options);
  ASSERT_EQ(full.outcome, common::MiningOutcome::kComplete);
  ASSERT_EQ(full.levels_completed, 2u);
  const std::uint64_t candidates = full.peak_candidate_bytes - retained;
  ASSERT_GT(candidates, 0u);
  ASSERT_LT(2 * candidates, full.peak_candidate_bytes - 1);
  common::BudgetLimits limits;
  limits.max_memory_bytes = full.peak_candidate_bytes - 1;
  options.budget = common::ResourceBudget(limits);
  const FsgResult cut = MineFsg(txns, options);
  EXPECT_EQ(cut.outcome, common::MiningOutcome::kMemoryBudgetExceeded);
  EXPECT_EQ(cut.levels_completed, 1u);
  EXPECT_EQ(cut.patterns.size(), full.frequent_per_level[0]);
  EXPECT_EQ(cut.peak_candidate_bytes, full.peak_candidate_bytes);
  EXPECT_EQ(options.budget.memory_charged(), 0u);
  limits.max_memory_bytes = full.peak_candidate_bytes;
  options.budget = common::ResourceBudget(limits);
  EXPECT_EQ(HashResult(MineFsg(txns, options), 0), HashResult(full, 0));
  EXPECT_EQ(options.budget.memory_charged(), 0u);
}

/// Every byte charged to the memory ceiling is handed back however the
/// run ends, at any ceiling: in memory, through in-memory shards, and out
/// of core, where the resident shards share the ceiling and hold their
/// charges until the source is gone.
TEST(FsgTest, MemoryChargesAreReleasedAtEveryCeiling) {
  const auto txns = TexturedTransactions(43, false);
  FsgOptions options;
  options.min_support = 2;
  options.max_edges = 5;
  const FsgResult full = MineFsg(txns, options);
  ASSERT_EQ(full.outcome, common::MiningOutcome::kComplete);
  const std::string dir = ::testing::TempDir() + "/fsg-memory-release";
  ::mkdir(dir.c_str(), 0755);
  std::size_t num_shards = 0;
  for (std::size_t i = 0; i < txns.size(); i += 4) {
    graph::ShardWriter writer(dir + "/" + graph::ShardFileName(num_shards++));
    for (std::size_t j = i; j < std::min(i + 4, txns.size()); ++j) {
      writer.Add(txns[j]);
    }
    std::string error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  std::vector<std::uint64_t> ceilings = {0, 1};
  for (const double fraction : {0.1, 0.5, 0.9, 1.0, 2.0}) {
    ceilings.push_back(static_cast<std::uint64_t>(
        static_cast<double>(full.peak_candidate_bytes) * fraction));
  }
  for (const std::uint64_t ceiling : ceilings) {
    common::BudgetLimits limits;
    limits.max_memory_bytes = ceiling;
    for (const std::string_view way :
         {"flat", "in-memory shards", "shard files"}) {
      options.budget = common::ResourceBudget(limits);
      FsgResult r;
      if (way == "flat") {
        r = MineFsg(txns, options);
      } else if (way == "in-memory shards") {
        std::vector<graph::GraphView> views;
        for (const LabeledGraph& t : txns) views.emplace_back(t);
        graph::InMemoryTransactionSource source(std::move(views), 4);
        r = MineFsg(source, options);
      } else {
        graph::ShardedTransactionSource::Options source_options;
        source_options.budget = options.budget;
        std::string error;
        const auto source =
            graph::ShardedTransactionSource::Open(dir, source_options, &error);
        ASSERT_NE(source, nullptr) << error;
        r = MineFsg(*source, options);
      }
      if (ceiling == 1) {
        EXPECT_EQ(r.outcome, common::MiningOutcome::kMemoryBudgetExceeded)
            << way;
      }
      EXPECT_EQ(options.budget.memory_charged(), 0u)
          << "ceiling " << ceiling << ", " << way;
    }
  }
  for (std::size_t i = 0; i < num_shards; ++i) {
    std::remove((dir + "/" + graph::ShardFileName(i)).c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(FsgTest, SelfLoopPatterns) {
  LabeledGraph loop;
  const VertexId a = loop.AddVertex(3);
  loop.AddEdge(a, a, 9);
  std::vector<LabeledGraph> txns = {loop, loop, Edge1(3, 3, 9)};
  FsgOptions options;
  options.min_support = 2;
  const FsgResult r = MineFsg(txns, options);
  ASSERT_EQ(r.patterns.size(), 1u);
  EXPECT_EQ(r.patterns[0].support, 2u);
  EXPECT_EQ(r.patterns[0].graph.num_vertices(), 1u);
}

}  // namespace
}  // namespace tnmine::fsg
