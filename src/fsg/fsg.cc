#include "fsg/fsg.h"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/check.h"
#include "common/failpoint.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "graph/algorithms.h"
#include "graph/graph_view.h"
#include "graph/transaction_source.h"
#include "iso/canonical.h"
#include "iso/vf2.h"
#include "pattern/tid_set.h"

namespace tnmine::fsg {

using graph::Edge;
using graph::EdgeId;
using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;
using pattern::FrequentPattern;
using pattern::TidSet;

namespace {

/// A frequent-edge type: the building block for extensions.
struct EdgeType {
  Label src_label;
  Label dst_label;
  Label edge_label;

  auto operator<=>(const EdgeType&) const = default;
};

/// Highest edge-type multiplicity with its own level-1 TID set; higher
/// multiplicities fall back to this set (weaker but still exact).
constexpr std::uint32_t kMaxTypeMult = 4;

/// Per-pattern memory footprint charged to the memory ceiling. The TID
/// set reports its exact heap footprint (DESIGN.md §12); the rest stays a
/// structural estimate.
std::uint64_t EstimateBytes(const FrequentPattern& p) {
  return 64 + 8 * p.graph.num_vertices() + 16 * p.graph.num_edges() +
         p.code.size() + p.tids.MemoryBytes();
}

/// Builds the 1-edge pattern graph for an edge type.
LabeledGraph OneEdgePattern(const EdgeType& t, bool self_loop) {
  LabeledGraph g;
  const VertexId a = g.AddVertex(t.src_label);
  if (self_loop) {
    g.AddEdge(a, a, t.edge_label);
  } else {
    const VertexId b = g.AddVertex(t.dst_label);
    g.AddEdge(a, b, t.edge_label);
  }
  return g;
}

/// Removes edge `drop` from `g`, drops isolated vertices, and returns the
/// result; `vertex_map`, when non-null, receives old -> new vertex ids
/// (kInvalidVertex for a dropped vertex).
LabeledGraph WithoutEdge(const LabeledGraph& g, EdgeId drop,
                         std::vector<VertexId>* vertex_map = nullptr) {
  LabeledGraph copy = g;
  copy.RemoveEdge(drop);
  return copy.Compact(/*drop_isolated_vertices=*/true, vertex_map);
}

struct EdgeTypeKeyHash {
  std::size_t operator()(const graph::GraphView::EdgeTypeKey& k) const {
    std::uint64_t h = static_cast<std::uint32_t>(k.src_label);
    h = h * 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint32_t>(k.dst_label);
    h = h * 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint32_t>(k.edge_label);
    h = h * 0x9E3779B97F4A7C15ULL ^ std::uint64_t{k.self_loop};
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// Dense edge-type ids, assigned in first-seen order and kept for the
/// whole mine; `keys[id]` is the type `id` names. Level 1 interns every
/// type a transaction shows first, so those are ids 0..n-1.
struct TypeIds {
  std::unordered_map<graph::GraphView::EdgeTypeKey, std::uint32_t,
                     EdgeTypeKeyHash>
      ids;
  std::vector<graph::GraphView::EdgeTypeKey> keys;
};

std::uint32_t InternType(TypeIds& types,
                         const graph::GraphView::EdgeTypeKey& key) {
  const auto next = static_cast<std::uint32_t>(types.keys.size());
  const auto [it, added] = types.ids.try_emplace(key, next);
  if (added) types.keys.push_back(key);
  return it->second;
}

/// Appends `tid`, above every element, to a set being built over the
/// first `universe` tids. A sparse set turns into a bitmap once that is
/// the smaller encoding, so a set being built stays under about
/// universe / 4 bytes however many shards the source holds.
void AppendTid(TidSet& set, std::uint32_t tid, std::uint32_t universe) {
  if (set.universe() == 0) set = TidSet::FromSorted({}, universe);
  set.Append(tid);
  if (set.encoding() == TidSet::Encoding::kSparse) set.Normalize();
}

/// A set built by AppendTid as a shared TidSet over the full universe,
/// rebuilt from an exactly sized list; `built` is released first.
/// Rebuilding makes the set's heap footprint a function of its contents
/// alone, which keeps the byte accounting deterministic.
std::shared_ptr<const TidSet> FlatTidSet(TidSet&& built,
                                         std::uint32_t universe) {
  std::vector<std::uint32_t> tids = built.ToVector();
  built = TidSet();
  return std::make_shared<const TidSet>(
      TidSet::FromSorted(std::move(tids), universe));
}

/// Roles an edge end plays in a wedge (a connected 2-edge subgraph). When
/// the two edges share only vertex v, each end records the edge's role at
/// v; when they share both endpoints, each records whether the two edges
/// run parallel or antiparallel.
enum WedgeRole : std::uint32_t {
  kRoleSrc = 0,
  kRoleDst = 1,
  kRoleLoop = 2,
  kRoleParallel = 3,
  kRoleAntiparallel = 4,
};
constexpr int kRoleBits = 3;
constexpr std::uint64_t kRoleMask = (1u << kRoleBits) - 1;

/// One edge of a wedge: (type id << kRoleBits) | role.
std::uint64_t WedgeEnd(std::uint32_t type, WedgeRole role) {
  return (std::uint64_t{type} << kRoleBits) | role;
}

std::uint32_t TypeOfEnd(std::uint64_t end) {
  return static_cast<std::uint32_t>(end >> kRoleBits);
}

/// Integer name of a wedge's isomorphism class: its two ends, in
/// ascending order. The ends fix the shared vertex's label and both edges
/// up to the swap the ordering removes, so two wedges get equal keys iff
/// they are isomorphic. This makes the wedge index the exact support set
/// of every 2-edge pattern (DESIGN.md §12).
struct WedgeKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  auto operator<=>(const WedgeKey&) const = default;
};

WedgeKey MakeWedgeKey(std::uint64_t a, std::uint64_t b) {
  return a < b ? WedgeKey{a, b} : WedgeKey{b, a};
}

struct WedgeKeyHash {
  std::size_t operator()(const WedgeKey& k) const {
    return static_cast<std::size_t>((k.lo * 0x9E3779B97F4A7C15ULL) ^ k.hi);
  }
};

template <typename V>
using WedgeMap = std::unordered_map<WedgeKey, V, WedgeKeyHash>;

/// A pattern edge as wedge keys see it: endpoints and interned type. The
/// edge need not be in a graph yet: candidate generation keys the edge an
/// extension would add, numbering a new vertex pg.num_vertices().
struct TypedEdge {
  VertexId src;
  VertexId dst;
  std::uint32_t type;
};

/// Edge e of pattern `g`. Edge types no transaction showed are interned
/// here, so isomorphic candidates still get one key.
TypedEdge InternEdge(const LabeledGraph& g, EdgeId e, TypeIds& ids) {
  const Edge& edge = g.edge(e);
  const Label src = g.vertex_label(edge.src);
  const Label dst = g.vertex_label(edge.dst);
  const bool loop = edge.src == edge.dst;
  return {edge.src, edge.dst, InternType(ids, {src, dst, edge.label, loop})};
}

bool ShareVertex(const TypedEdge& a, const TypedEdge& b) {
  return a.src == b.src || a.src == b.dst || a.dst == b.src || a.dst == b.dst;
}

/// Role of vertex v in edge e.
WedgeRole RoleOf(const TypedEdge& e, VertexId v) {
  if (e.src == v && e.dst == v) return kRoleLoop;
  return e.src == v ? kRoleSrc : kRoleDst;
}

/// Wedge key of two pattern edges that share a vertex.
WedgeKey WedgeKeyOf(const TypedEdge& a, const TypedEdge& b) {
  if (a.src != a.dst && b.src != b.dst &&
      std::minmax(a.src, a.dst) == std::minmax(b.src, b.dst)) {
    const WedgeRole role = a.src == b.src ? kRoleParallel : kRoleAntiparallel;
    return MakeWedgeKey(WedgeEnd(a.type, role), WedgeEnd(b.type, role));
  }
  const VertexId v = a.src == b.src || a.src == b.dst ? a.src : a.dst;
  return MakeWedgeKey(WedgeEnd(a.type, RoleOf(a, v)),
                      WedgeEnd(b.type, RoleOf(b, v)));
}

/// Wedge key of the edges e1, e2 of pattern `g`, which must share a vertex.
WedgeKey PatternWedgeKey(const LabeledGraph& g, EdgeId e1, EdgeId e2,
                         TypeIds& ids) {
  return WedgeKeyOf(InternEdge(g, e1, ids), InternEdge(g, e2, ids));
}

/// `type_of` entry of an edge that no level-2 lookup can reach.
constexpr std::uint32_t kUnreachableType = 0xFFFFFFFFu;

/// Appends to `keys` the key of every wedge of transaction `t` whose two
/// edges are reachable, repeats included; `type_of` maps each live edge to
/// its type id, or to kUnreachableType. Rather than visit every pair of
/// incident edges, it groups each vertex's arcs into classes of equal
/// (type, role) and emits one key per class pair, so a hub with hundreds
/// of parallel edges costs its class count squared. A key depends only on
/// the two classes it pairs, so leaving out the unreachable arcs drops
/// exactly the keys with an unreachable end.
void AppendWedgeKeys(const graph::GraphView& t,
                     const std::vector<std::uint32_t>& type_of,
                     std::vector<WedgeKey>* keys) {
  // One arc class: a run of equal ends in `arcs` (or, per neighbour, in
  // `links`). `only` is the neighbour every edge of the class goes to;
  // kInvalidVertex when there are several, or for self-loops (two of
  // which share only their vertex).
  struct Class {
    std::uint64_t end;
    std::size_t count;
    VertexId only;
  };
  std::vector<Class> classes;
  // (end, neighbour) of every arc at the vertex, a self-loop once; and
  // (neighbour, end) of the arcs to higher-numbered neighbours.
  std::vector<std::pair<std::uint64_t, VertexId>> arcs;
  std::vector<std::pair<VertexId, std::uint64_t>> links;
  for (VertexId v = 0; v < t.num_vertices(); ++v) {
    arcs.clear();
    links.clear();
    for (const graph::GraphView::Arc& a : t.OutArcs(v)) {
      const std::uint32_t type = type_of[a.edge];
      if (type == kUnreachableType) continue;
      arcs.emplace_back(WedgeEnd(type, a.other == v ? kRoleLoop : kRoleSrc),
                        a.other);
      if (a.other > v) links.emplace_back(a.other, WedgeEnd(type, kRoleSrc));
    }
    for (const graph::GraphView::Arc& a : t.InArcs(v)) {
      if (a.other == v) continue;  // the self-loop came up as an out-arc
      const std::uint32_t type = type_of[a.edge];
      if (type == kUnreachableType) continue;
      arcs.emplace_back(WedgeEnd(type, kRoleDst), a.other);
      if (a.other > v) links.emplace_back(a.other, WedgeEnd(type, kRoleDst));
    }
    // Edges sharing only v. Two edges of one class do unless every edge
    // of the class goes to the same neighbour; edges of two classes do
    // unless all of them go to the same neighbour (those pairs share both
    // endpoints and are handled below).
    std::sort(arcs.begin(), arcs.end());
    classes.clear();
    for (std::size_t i = 0; i < arcs.size();) {
      std::size_t j = i + 1;
      while (j < arcs.size() && arcs[j].first == arcs[i].first) ++j;
      VertexId only = arcs[i].second;
      if (only == v || only != arcs[j - 1].second) only = graph::kInvalidVertex;
      classes.push_back({arcs[i].first, j - i, only});
      i = j;
    }
    for (std::size_t x = 0; x < classes.size(); ++x) {
      const Class& cx = classes[x];
      if (cx.count >= 2 && cx.only == graph::kInvalidVertex) {
        keys->push_back(MakeWedgeKey(cx.end, cx.end));
      }
      for (std::size_t y = x + 1; y < classes.size(); ++y) {
        const Class& cy = classes[y];
        if (cx.only == graph::kInvalidVertex || cx.only != cy.only) {
          keys->push_back(MakeWedgeKey(cx.end, cy.end));
        }
      }
    }
    // Edges sharing both endpoints, visited from the lower one: per
    // neighbour, one key per pair of classes of the edges between them.
    std::sort(links.begin(), links.end());
    for (std::size_t i = 0; i < links.size();) {
      std::size_t j = i + 1;
      while (j < links.size() && links[j].first == links[i].first) ++j;
      classes.clear();
      for (std::size_t k = i; k < j; ++k) {
        if (k > i && links[k].second == links[k - 1].second) {
          ++classes.back().count;
        } else {
          classes.push_back({links[k].second, 1, links[k].first});
        }
      }
      for (std::size_t x = 0; x < classes.size(); ++x) {
        for (std::size_t y = x; y < classes.size(); ++y) {
          if (x == y && classes[x].count < 2) continue;
          const std::uint64_t ex = classes[x].end;
          const std::uint64_t ey = classes[y].end;
          const bool same_way = (ex & kRoleMask) == (ey & kRoleMask);
          const WedgeRole role = same_way ? kRoleParallel : kRoleAntiparallel;
          keys->push_back(MakeWedgeKey(WedgeEnd(TypeOfEnd(ex), role),
                                       WedgeEnd(TypeOfEnd(ey), role)));
        }
      }
      i = j;
    }
  }
}

/// Returns `*bytes` to `budget` when the scope ends, however it ends.
struct MemoryRelease {
  const common::ResourceBudget* budget;
  const std::uint64_t* bytes;
  ~MemoryRelease() { budget->ReleaseMemory(*bytes); }
};

/// The edge a candidate adds to its generating parent, in the candidate's
/// numbering: the parent's vertices keep their ids and a new vertex is
/// numbered parent.num_vertices().
struct AddedEdge {
  VertexId src = 0;
  VertexId dst = 0;
  Label label = 0;
};

/// Extends `parent`, the vertex images of one occurrence of the
/// generating parent in `t`, by the candidate's added edge. An edge
/// between two parent vertices needs `need` target edges between their
/// images (the parallel pattern edges it joins included); an edge to a
/// new vertex takes the first arc with the edge's label from the anchor's
/// image to an unmapped vertex labelled `new_label`. On success `images`
/// holds the candidate's vertex images, an explicit occurrence, so a
/// "yes" is always right; a "no" proves nothing.
bool ExtendWitness(const graph::GraphView& t,
                   std::span<const VertexId> parent, const AddedEdge& added,
                   Label new_label, std::size_t need,
                   std::vector<VertexId>* images) {
  const auto fresh = static_cast<VertexId>(parent.size());
  images->assign(parent.begin(), parent.end());
  if (added.src != fresh && added.dst != fresh) {
    return t.CountOutEdges(parent[added.src], parent[added.dst],
                           added.label) >= need;
  }
  const bool outward = added.dst == fresh;
  const VertexId anchor = parent[outward ? added.src : added.dst];
  for (const graph::GraphView::Arc& arc :
       outward ? t.OutArcs(anchor, added.label)
               : t.InArcs(anchor, added.label)) {
    if (t.vertex_label(arc.other) != new_label ||
        std::find(parent.begin(), parent.end(), arc.other) != parent.end()) {
      continue;
    }
    images->push_back(arc.other);
    return true;
  }
  return false;
}

/// "No pattern": a bridge's core, an infrequent edge type's level-1
/// index, a disconnected sub-pattern's index.
constexpr std::uint32_t kNoPattern = ~std::uint32_t{0};

/// Aut(Q) is enumerated up to this many maps. A core with more (up to 5
/// edges only a 5-spoke hub reaches it, with 120) has no pattern
/// registered under it; generation codes the sub-patterns it would name.
constexpr std::size_t kMaxAutomorphisms = 120;

/// Edge f of a frontier pattern P and what removing it leaves
/// (DESIGN.md §12, "Core tables").
struct CoreRow {
  /// Previous-level index of the core P − f, or kNoPattern when f is a
  /// bridge whose removal leaves two parts with edges.
  std::uint32_t core = kNoPattern;
  /// False when the core has more than kMaxAutomorphisms automorphisms.
  bool registered = true;
  /// For a core: P's vertex -> the core's vertex, kInvalidVertex for the
  /// vertex f leaves isolated. For a bridge: each vertex's part, 0 or 1.
  std::vector<VertexId> map;
};

/// An edge added to a core, in the core's numbering: kInvalidVertex is
/// the new vertex, labelled `fresh_label` (0 when both ends are old).
struct CoreKey {
  std::uint32_t core;
  VertexId src;
  VertexId dst;
  Label label;
  Label fresh_label;

  bool operator==(const CoreKey&) const = default;
};

struct CoreKeyHash {
  std::size_t operator()(const CoreKey& k) const {
    std::uint64_t h = k.core;
    for (const std::uint64_t x :
         {std::uint64_t{k.src}, std::uint64_t{k.dst},
          std::uint64_t{static_cast<std::uint32_t>(k.label)},
          std::uint64_t{static_cast<std::uint32_t>(k.fresh_label)}}) {
      h = (h ^ x) * 0x9E3779B97F4A7C15ULL;
    }
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// The frontier's rows, and every (core, added edge) that grows a core
/// into a frontier pattern, mapped to that pattern's index.
struct CoreTable {
  std::vector<std::vector<CoreRow>> rows;
  std::unordered_map<CoreKey, std::uint32_t, CoreKeyHash> grown;
  /// Not kComplete when a budget stop cut the build short: the table is
  /// then partial and must not be read.
  common::MiningOutcome stopped = common::MiningOutcome::kComplete;
};

/// Builds the core table of `patterns` (the frontier) over `cores` (the
/// level before it, named by canonical code in `core_index`). For each
/// edge g of each pattern R whose removal leaves R connected, R − g is
/// coded once to name its core Q, and a VF2 occurrence of Q in R − g (the
/// two have equal size, so it is an isomorphism) maps R's vertices to Q's.
/// (Q, g mapped) → R is then registered under every automorphism of Q, so
/// a lookup through any other vertex map of Q finds it too. `budget`'s
/// shared stop conditions are polled once per pattern and per core.
CoreTable BuildCoreTable(
    const std::vector<FrequentPattern>& patterns,
    const std::vector<LabeledGraph>& cores,
    const std::unordered_map<std::string, std::uint32_t>& core_index,
    const common::ResourceBudget& budget,
    const common::Parallelism& parallelism) {
  CoreTable table;
  table.rows.resize(patterns.size());
  // Stops are sticky, so once a poll sees one every later poll does.
  auto running = [&] {
    return budget.StopReason() == common::MiningOutcome::kComplete;
  };
  common::ParallelFor(parallelism, patterns.size(), [&](std::size_t r) {
    if (!running()) return;
    const LabeledGraph& g = patterns[r].graph;
    std::vector<CoreRow>& rows = table.rows[r];
    rows.resize(g.num_edges());
    std::vector<VertexId> to_sub;
    std::vector<VertexId> images;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const LabeledGraph sub = WithoutEdge(g, e, &to_sub);
      const graph::ComponentResult parts =
          graph::WeaklyConnectedComponents(sub);
      CoreRow& row = rows[e];
      row.map.resize(g.num_vertices());
      if (parts.num_components > 1) {
        // A bridge: no vertex is dropped, and each keeps its part.
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          row.map[v] = parts.component[to_sub[v]];
        }
        continue;
      }
      const auto it = core_index.find(iso::CanonicalCodeCached(sub));
      TNMINE_CHECK_MSG(it != core_index.end(),
                       "a frequent pattern's connected sub-pattern must be "
                       "frequent");
      row.core = it->second;
      iso::SubgraphMatcher matcher(cores[row.core]);
      TNMINE_CHECK(matcher.FirstOccurrence(graph::GraphView(sub), {},
                                           &images));
      std::vector<VertexId> core_of(sub.num_vertices());
      for (VertexId q = 0; q < images.size(); ++q) core_of[images[q]] = q;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        row.map[v] = to_sub[v] == graph::kInvalidVertex
                         ? graph::kInvalidVertex
                         : core_of[to_sub[v]];
      }
    }
  });
  // Aut(Q) of every core a row names, by matching Q onto itself.
  std::vector<std::uint32_t> named;
  for (const std::vector<CoreRow>& rows : table.rows) {
    for (const CoreRow& row : rows) {
      if (row.core != kNoPattern) named.push_back(row.core);
    }
  }
  std::sort(named.begin(), named.end());
  named.erase(std::unique(named.begin(), named.end()), named.end());
  std::vector<std::vector<std::vector<VertexId>>> automorphisms(cores.size());
  common::ParallelFor(parallelism, named.size(), [&](std::size_t i) {
    if (!running()) return;
    const LabeledGraph& q = cores[named[i]];
    std::vector<std::vector<VertexId>>& maps = automorphisms[named[i]];
    iso::SubgraphMatcher matcher(q);
    matcher.ForEachEmbedding(graph::GraphView(q), {},
                             [&](const iso::Embedding& embedding) {
                               maps.push_back(embedding.vertex_map);
                               return maps.size() <= kMaxAutomorphisms;
                             });
  });
  // An automorphism fixes the new vertex.
  const auto image = [](const std::vector<VertexId>& sigma, VertexId v) {
    return v == graph::kInvalidVertex ? v : sigma[v];
  };
  for (std::uint32_t r = 0; r < patterns.size(); ++r) {
    if (!running()) break;
    const LabeledGraph& g = patterns[r].graph;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      CoreRow& row = table.rows[r][e];
      if (row.core == kNoPattern) continue;
      if (automorphisms[row.core].size() > kMaxAutomorphisms) {
        row.registered = false;
        continue;
      }
      const Edge& edge = g.edge(e);
      const VertexId src = row.map[edge.src];
      const VertexId dst = row.map[edge.dst];
      const Label fresh_label =
          src == graph::kInvalidVertex   ? g.vertex_label(edge.src)
          : dst == graph::kInvalidVertex ? g.vertex_label(edge.dst)
                                         : 0;
      for (const std::vector<VertexId>& sigma : automorphisms[row.core]) {
        table.grown.emplace(CoreKey{row.core, image(sigma, src),
                                    image(sigma, dst), edge.label,
                                    fresh_label},
                            r);
      }
    }
  }
  table.stopped = budget.StopReason();
  return table;
}

}  // namespace

FsgResult MineFsg(const std::vector<LabeledGraph>& transactions,
                  const FsgOptions& options) {
  for (const LabeledGraph& t : transactions) {
    TNMINE_CHECK_MSG(t.IsDense(), "transactions must be dense");
  }
  // One flat snapshot per transaction, presented as a single in-memory
  // shard; the source-based core below does all the mining. Keeping the
  // two overloads on one code path is what makes the byte-identity
  // contract between the in-RAM and out-of-core runs checkable.
  std::vector<graph::GraphView> views;
  views.reserve(transactions.size());
  for (const LabeledGraph& t : transactions) views.emplace_back(t);
  graph::InMemoryTransactionSource source(std::move(views));
  return MineFsg(source, options);
}

FsgResult MineFsg(graph::TransactionSource& source,
                  const FsgOptions& raw_options) {
  TNMINE_TRACE_SPAN("fsg/mine");
  TNMINE_COUNTER_ADD("fsg/runs_started", 1);
  // min_support = 0 means the same as 1 (see FsgOptions): clamp once so
  // every comparison below shares the contract with gSpan.
  FsgOptions options = raw_options;
  options.min_support = std::max<std::size_t>(1, options.min_support);
  FsgResult result;
  const auto universe = static_cast<std::uint32_t>(source.num_transactions());

  // Sequential tick ledger: level 1 and candidate generation run on the
  // calling thread, so charging them directly is deterministic. The
  // parallel counting phase is settled post hoc (see below).
  common::BudgetMeter meter(options.budget);

  // ---------------------------------------------------------------------
  // Level 1: frequent single-edge patterns by direct counting, in two
  // passes over the source. Both visit the shards in ascending base
  // order, so every TID set is appended to in ascending global order and
  // comes out identical at any shard cut. A budget stop in either
  // pass returns an empty (but honest) result: partially counted level-1
  // supports would under-report and cannot be emitted as frequent.
  //
  // Pass 1 interns every edge type and builds the set of transactions it
  // occurs in; it alone charges ticks. Pass 2 builds the wedge index over
  // the edges level 2 can reach, and only where a transaction has two of
  // them (DESIGN.md §12, "Level 1 in two passes").
  //
  // The level-1 index lives for the whole mine, by type id: every
  // observed edge type's TID set (frequent or not) is retained so
  // candidate generation can intersect a join parent's set with the added
  // edge type's set — a necessary containment condition that shrinks the
  // feasible set before any VF2 call (DESIGN.md §12).
  TypeIds type_ids;
  std::vector<std::shared_ptr<const TidSet>> type_tids;
  // Transactions with at least k (2 <= k <= kMaxTypeMult) edges of a type,
  // at [k - 2]; null where no transaction has k. A candidate using a type
  // m > 1 times can only live where the type occurs >= m times, and these
  // sets are far smaller than the plain presence sets.
  std::vector<std::array<std::shared_ptr<const TidSet>, kMaxTypeMult - 1>>
      mult_tids;
  // Wedge index: every wedge (connected 2-edge subgraph) of reachable
  // edges of every transaction has its key recorded once per transaction.
  // Because the key names the wedge's isomorphism class, a key's TID list
  // is the exact support set of that 2-edge pattern — level 2 is counted
  // from this index with no VF2 at all.
  WedgeMap<std::shared_ptr<const TidSet>> wedge_tids;
  std::vector<FrequentPattern> frontier;
  std::vector<EdgeType> frequent_edges;  // for extension generation
  {
    TNMINE_TRACE_SPAN("fsg/level1");
    // Per type id, the transactions it occurs in; and at [k - 2] those
    // with at least k of its edges, null until one has two (most types
    // of label-rich input never do).
    using MultSets = std::array<TidSet, kMaxTypeMult - 1>;
    std::vector<TidSet> type_sets;
    std::vector<std::unique_ptr<MultSets>> mult_sets;
    // The observed types in sorted key order.
    std::vector<std::uint32_t> order;
    WedgeMap<TidSet> wedge_sets;
    std::uint64_t wedge_keys = 0;
    common::MiningOutcome level1_stop = common::MiningOutcome::kComplete;
    try {
      for (std::size_t s = 0; s < source.num_shards(); ++s) {
        const graph::ShardRef shard = source.Pin(s);
        for (std::size_t i = 0; i < shard.views.size(); ++i) {
          const graph::GraphView& t = shard.views[i];
          level1_stop = meter.Charge(1 + t.num_edges());
          if (level1_stop != common::MiningOutcome::kComplete) break;
          const auto tid = shard.base + static_cast<std::uint32_t>(i);
          // The view's edge-type index is exactly the distinct live edge
          // types of the transaction, and each type's edge list length is
          // its multiplicity.
          for (std::size_t type = 0; type < t.NumEdgeTypes(); ++type) {
            const std::uint32_t id = InternType(type_ids, t.EdgeTypeAt(type));
            if (id == type_sets.size()) {
              type_sets.emplace_back();
              mult_sets.emplace_back();
            }
            AppendTid(type_sets[id], tid, universe);
            const std::size_t mult =
                std::min<std::size_t>(t.EdgesOfType(type).size(), kMaxTypeMult);
            if (mult < 2) continue;
            auto& sets = mult_sets[id];
            if (!sets) sets = std::make_unique<MultSets>();
            for (std::size_t k = 2; k <= mult; ++k) {
              AppendTid((*sets)[k - 2], tid, universe);
            }
          }
        }
        if (level1_stop != common::MiningOutcome::kComplete) break;
      }
      if (level1_stop == common::MiningOutcome::kComplete) {
        // Sorted key order keeps a (src, dst, edge label) triple's loop
        // and non-loop forms adjacent. Level 2 extends a frequent edge by
        // an edge of a type in frequent_edges, so it never looks up a
        // wedge with an edge of any other triple: a type is reachable when
        // its triple is frequent in either form.
        order.resize(type_sets.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    return type_ids.keys[a] < type_ids.keys[b];
                  });
        std::vector<char> reachable(order.size());
        for (std::size_t a = 0; a < order.size();) {
          const graph::GraphView::EdgeTypeKey& key = type_ids.keys[order[a]];
          const EdgeType triple{key.src_label, key.dst_label, key.edge_label};
          std::size_t b = a;
          bool frequent = false;
          for (; b < order.size(); ++b) {
            const graph::GraphView::EdgeTypeKey& other =
                type_ids.keys[order[b]];
            if (EdgeType{other.src_label, other.dst_label,
                         other.edge_label} != triple) {
              break;
            }
            frequent |=
                type_sets[order[b]].Cardinality() >= options.min_support;
          }
          if (frequent) {
            frequent_edges.push_back(triple);
            for (std::size_t x = a; x < b; ++x) reachable[order[x]] = 1;
          }
          a = b;
        }
        // Each transaction's reachable edges, counted up to two from the
        // reachable types' presence and two-or-more sets: a transaction
        // with two is one with a wedge to index.
        std::vector<std::uint8_t> reachable_edges(universe);
        const auto count = [&](std::uint32_t tid) {
          reachable_edges[tid] += reachable_edges[tid] < 2;
        };
        for (std::size_t id = 0; id < type_sets.size(); ++id) {
          if (!reachable[id]) continue;
          type_sets[id].ForEach(count);
          if (mult_sets[id]) (*mult_sets[id])[0].ForEach(count);
        }
        // Pass 2 charges no ticks and re-pins only the shards that hold
        // such a transaction.
        std::vector<std::uint32_t> type_of;  // edge id -> type id
        std::vector<WedgeKey> txn_keys;
        for (std::size_t s = 0; s < source.num_shards(); ++s) {
          level1_stop = meter.Poll();
          if (level1_stop != common::MiningOutcome::kComplete) break;
          const std::uint8_t* edges =
              reachable_edges.data() + source.ShardBase(s);
          const std::size_t size = source.ShardSize(s);
          if (std::find(edges, edges + size, 2) == edges + size) continue;
          const graph::ShardRef shard = source.Pin(s);
          for (std::size_t i = 0; i < size; ++i) {
            if (edges[i] < 2) continue;
            const graph::GraphView& t = shard.views[i];
            if (type_of.size() < t.edge_capacity()) {
              type_of.resize(t.edge_capacity());
            }
            for (std::size_t type = 0; type < t.NumEdgeTypes(); ++type) {
              const std::uint32_t id =
                  type_ids.ids.find(t.EdgeTypeAt(type))->second;
              const std::uint32_t of = reachable[id] ? id : kUnreachableType;
              for (const EdgeId e : t.EdgesOfType(type)) type_of[e] = of;
            }
            // Presence is all the index stores: each key once.
            txn_keys.clear();
            AppendWedgeKeys(t, type_of, &txn_keys);
            wedge_keys += txn_keys.size();
            std::sort(txn_keys.begin(), txn_keys.end());
            txn_keys.erase(std::unique(txn_keys.begin(), txn_keys.end()),
                           txn_keys.end());
            const auto tid = shard.base + static_cast<std::uint32_t>(i);
            for (const WedgeKey& key : txn_keys) {
              AppendTid(wedge_sets[key], tid, universe);
            }
          }
        }
      }
    } catch (const std::bad_alloc&) {
      // A shard pin that could not fit the memory ceiling even after
      // evicting everything else. Level 1 is incomplete, so nothing can be
      // emitted honestly.
      level1_stop = common::MiningOutcome::kMemoryBudgetExceeded;
    }
    TNMINE_COUNTER_ADD("fsg/level1_wedge_keys", wedge_keys);
    if (level1_stop != common::MiningOutcome::kComplete) {
      result.outcome = level1_stop;
      result.work_ticks = meter.ticks_spent();
      common::RecordOutcome("fsg", result.outcome);
      return result;
    }
    type_tids.resize(type_sets.size());
    mult_tids.resize(type_sets.size());
    for (std::size_t id = 0; id < type_sets.size(); ++id) {
      type_tids[id] = FlatTidSet(std::move(type_sets[id]), universe);
      if (!mult_sets[id]) continue;
      for (std::size_t k = 2; k <= kMaxTypeMult; ++k) {
        TidSet& set = (*mult_sets[id])[k - 2];
        if (set.Empty()) continue;
        mult_tids[id][k - 2] = FlatTidSet(std::move(set), universe);
      }
    }
    for (auto& [key, set] : wedge_sets) {
      wedge_tids.emplace(key, FlatTidSet(std::move(set), universe));
    }
    for (const std::uint32_t id : order) {
      const TidSet& set = *type_tids[id];
      if (set.Cardinality() < options.min_support) continue;
      const graph::GraphView::EdgeTypeKey& key = type_ids.keys[id];
      FrequentPattern p;
      p.graph = OneEdgePattern({key.src_label, key.dst_label, key.edge_label},
                               key.self_loop);
      p.tids = set;
      p.support = p.tids.Cardinality();
      p.code = iso::CanonicalCodeCached(p.graph);
      frontier.push_back(std::move(p));
    }
  }
  TNMINE_COUNTER_ADD("fsg/wedge_classes_indexed", wedge_tids.size());
  const auto empty_tids = std::make_shared<const TidSet>();
  result.candidates_per_level.push_back(type_tids.size());
  result.frequent_per_level.push_back(frontier.size());
  result.levels_completed = 1;
  TNMINE_COUNTER_ADD("fsg/candidates_generated", type_tids.size());
  TNMINE_COUNTER_ADD("fsg/patterns_frequent", frontier.size());

  std::uint64_t type_index_bytes = 0;
  for (const auto& set : type_tids) type_index_bytes += set->MemoryBytes();
  for (const auto& sets : mult_tids) {
    for (const auto& set : sets) {
      if (set) type_index_bytes += set->MemoryBytes();
    }
  }
  for (const auto& [key, set] : wedge_tids) {
    type_index_bytes += sizeof(key) + set->MemoryBytes();
  }

  // The frequent patterns of the previous level: each one's index by
  // canonical code, which names a sub-pattern the core table cannot (the
  // bridge fallback), and its TID set, a superset of the support of every
  // candidate it is a sub-pattern of. The sets are shared immutably with
  // the candidates whose feasibility filters they are.
  std::unordered_map<std::string, std::uint32_t> previous_index;
  std::vector<std::shared_ptr<const TidSet>> previous_sets;
  // The frequent 2-edge patterns' sets keyed by wedge key, kept from
  // level 2 on: the wedge check of every later level looks up an
  // extension's new wedges here, without building the extension. At
  // level 3 a wedge is a sub-pattern, so its level-2 index counts when
  // naming the extension's canonical parent.
  struct FrequentWedge {
    std::shared_ptr<const TidSet> tids;
    std::uint32_t index;
  };
  WedgeMap<FrequentWedge> frequent_wedges;
  auto rebuild_previous = [&](const std::vector<FrequentPattern>& fr) {
    previous_index.clear();
    previous_sets.clear();
    for (std::size_t i = 0; i < fr.size(); ++i) {
      const FrequentPattern& p = fr[i];
      const auto index = static_cast<std::uint32_t>(i);
      auto set = std::make_shared<const TidSet>(p.tids);
      previous_index.emplace(p.code, index);
      if (p.graph.num_edges() == 2) {
        frequent_wedges.emplace(
            PatternWedgeKey(p.graph, EdgeId{0}, EdgeId{1}, type_ids),
            FrequentWedge{set, index});
      }
      previous_sets.push_back(std::move(set));
    }
  };
  rebuild_previous(frontier);
  // The patterns of the level before the frontier and their indexes by
  // code: the cores the next core table names.
  std::vector<LabeledGraph> cores;
  std::unordered_map<std::string, std::uint32_t> core_index;

  // Bytes retained from one level to the next: the level-1 index, the
  // frontier and the previous level's sets. They stay charged to the
  // memory ceiling while they are held, by a charge that cannot refuse:
  // the next candidate is what the ceiling refuses, even when the
  // retained bytes alone exceed it.
  std::uint64_t frontier_bytes = 0;
  const MemoryRelease release_retained{&options.budget, &frontier_bytes};
  auto retain = [&] {
    std::uint64_t bytes = type_index_bytes;
    for (const FrequentPattern& p : frontier) bytes += EstimateBytes(p);
    for (const auto& set : previous_sets) bytes += set->MemoryBytes();
    options.budget.ReleaseMemory(frontier_bytes);
    options.budget.ChargeMemory(bytes);
    frontier_bytes = bytes;
  };
  retain();
  result.peak_candidate_bytes = frontier_bytes;

  for (const FrequentPattern& p : frontier) {
    result.patterns.push_back(p);
  }

  // Witnesses of the frontier, for the next level's support counting
  // (DESIGN.md §12): per pattern, one occurrence per supporting
  // transaction, as the images of its vertices (num_vertices() of them
  // per TID, in ascending-TID order). Empty for a pattern that keeps
  // none: every level-1 and level-2 pattern, and any whose bytes the
  // memory ceiling refused. Their bytes are handed back before the
  // ceiling could refuse a candidate, so in memory they change speed, not
  // output (out of core they share the ceiling with shard pins).
  std::vector<std::vector<VertexId>> frontier_witnesses(frontier.size());
  std::uint64_t witness_charged = 0;
  const MemoryRelease release_witnesses{&options.budget, &witness_charged};
  auto drop_witnesses = [&] {
    for (std::vector<VertexId>& w : frontier_witnesses) {
      std::vector<VertexId>().swap(w);
    }
    options.budget.ReleaseMemory(witness_charged);
    witness_charged = 0;
  };

  // ---------------------------------------------------------------------
  // Levels 2..: extend, prune, count.
  std::size_t level = 1;  // edges in current frontier patterns
  while (!frontier.empty() &&
         (options.max_edges == 0 || level < options.max_edges)) {
    ++level;
    // Opened first, so the teardown of the level's candidates and core
    // table at the end of the body falls inside the span.
    TNMINE_TRACE_SPAN("fsg/level");
    // From level 4 on, the closure check looks its sub-patterns up here.
    CoreTable core;
    if (level >= 4) {
      TNMINE_TRACE_SPAN("fsg/core_table");
      core = BuildCoreTable(frontier, cores, core_index, options.budget,
                            options.parallelism);
    }
    // Candidate generation.
    struct Candidate {
      FrequentPattern pattern;  // support/tids empty until counted
      // Transactions that can possibly contain the pattern: the join
      // parent's TID set intersected with the added edge type's level-1
      // set and every frequent sub-pattern's set. Shared immutably —
      // when the intersection does not shrink the parent's set, all of
      // the parent's candidates share one copy.
      std::shared_ptr<const TidSet> feasible;
      // True when `feasible` is the candidate's exact support set (the
      // level-2 wedge lookup) rather than an upper bound; counting then
      // takes the set as-is and skips VF2 entirely.
      bool feasible_exact = false;
      // The frontier pattern that generated the candidate (the first to
      // reach its class, DESIGN.md §12) and the edge it added.
      std::size_t parent = 0;
      AddedEdge added;
    };
    std::unordered_map<std::string, Candidate> candidates;
    // Isomorphism classes of 2-edge extensions already seen this level,
    // keyed by wedge key; dedup happens here so duplicates never reach the
    // canonical-code cache.
    std::unordered_set<WedgeKey, WedgeKeyHash> level2_seen;
    std::uint64_t candidate_bytes = 0;
    // A stop that cut the core table short ends the level before
    // generation reads the table.
    common::MiningOutcome level_outcome = core.stopped;
    // Bytes charged against the memory ceiling for this level's
    // candidate set, beside the retained frontier_bytes; released when the
    // level's scope ends (break or not).
    std::uint64_t level_charged = 0;
    const MemoryRelease release{&options.budget, &level_charged};
    // Level-local telemetry, flushed once per level so the hot extension
    // loop stays free of atomics.
    std::uint64_t extensions_considered = 0;
    std::uint64_t wedge_pruned = 0;
    std::uint64_t pruned_closure = 0;
    std::uint64_t closure_lookups = 0;
    std::uint64_t closure_fallbacks = 0;
    std::uint64_t not_canonical = 0;
    std::uint64_t pruned_by_join = 0;
    // The parent's edges with their types interned, once per parent.
    std::vector<TypedEdge> parent_edges;
    // Per extension at levels >= 4: the index of C − f for each edge f of
    // the parent (kNoPattern when C − f is disconnected), and the edges f
    // whose C − f the table cannot name, so it is coded.
    std::vector<std::uint32_t> sub_index;
    std::vector<EdgeId> uncovered;

    try {
      TNMINE_TRACE_SPAN("fsg/generate");
      for (std::size_t parent_index = 0; parent_index < frontier.size();
           ++parent_index) {
        if (level_outcome != common::MiningOutcome::kComplete) break;
        const FrequentPattern& parent = frontier[parent_index];
        const LabeledGraph& pg = parent.graph;
        const auto own = static_cast<std::uint32_t>(parent_index);
        // Lazily created shared copy of the parent's TID set, handed to
        // every candidate whose feasibility intersection removes nothing
        // (charged against the memory budget once, not per candidate).
        std::shared_ptr<const TidSet> parent_shared;
        std::vector<std::shared_ptr<const TidSet>> sub_sets;
        // (type id, uses) of each edge type of a candidate.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> cand_type_counts;
        parent_edges.clear();
        pg.ForEachEdge([&](EdgeId e) {
          parent_edges.push_back(InternEdge(pg, e, type_ids));
        });
        WedgeKey parent_key;
        if (level == 3) {
          parent_key = WedgeKeyOf(parent_edges[0], parent_edges[1]);
        }
        const std::vector<CoreRow>* rows =
            level >= 4 ? &core.rows[parent_index] : nullptr;
        sub_index.resize(pg.num_edges());
        // The new vertex's id when the added edge has one end outside pg.
        const auto fresh = static_cast<VertexId>(pg.num_vertices());
        // Considers pg plus an edge of type t from src to dst.
        auto consider = [&](VertexId src, VertexId dst, const EdgeType& t) {
          if (level_outcome != common::MiningOutcome::kComplete) return;
          (void)TNMINE_FAILPOINT("fsg/consider");
          ++extensions_considered;
          // One tick per extension plus one per edge covers the canonical
          // code and closure checks; all of it runs sequentially, so the
          // ledger is deterministic. The charge comes before the wedge
          // check, so the check moves no budget cut (DESIGN.md §12).
          const common::MiningOutcome stop = meter.Charge(2 + pg.num_edges());
          if (stop != common::MiningOutcome::kComplete) {
            level_outcome = stop;
            return;
          }
          const graph::GraphView::EdgeTypeKey type{
              t.src_label, t.dst_label, t.edge_label, src == dst};
          const TypedEdge added{src, dst, InternType(type_ids, type)};
          // Built once the extension survives its lookups.
          LabeledGraph extended;
          auto build = [&] {
            extended = pg;
            if (src == fresh) extended.AddVertex(t.src_label);
            if (dst == fresh) extended.AddVertex(t.dst_label);
            extended.AddEdge(src, dst, t.edge_label);
          };
          std::string code;
          std::shared_ptr<const TidSet> feasible;
          bool feasible_exact = false;
          std::uint64_t tid_bytes = 0;
          const std::size_t parent_card = parent.tids.Cardinality();
          if (level == 2) {
            // Level 2 runs entirely off the level-1 indexes. The wedge
            // key names the candidate's isomorphism class, so it dedups
            // isomorphic extensions before any canonical-code work
            // (isomorphic extensions serialize differently, and each
            // distinct serialization would pay a full canonical search);
            // and the key's TID set is the exact support set, inside the
            // parent's by anti-monotonicity (DESIGN.md §12), so it also
            // stands in for the downward-closure check: a wedge with an
            // infrequent edge is infrequent.
            const WedgeKey key = WedgeKeyOf(parent_edges[0], added);
            if (!level2_seen.insert(key).second) return;  // isomorphic dup
            const auto wit = wedge_tids.find(key);
            feasible = wit == wedge_tids.end() ? empty_tids : wit->second;
            feasible_exact = true;
            pruned_by_join += parent_card - feasible->Cardinality();
            if (feasible->Cardinality() < options.min_support) {
              // The set is exact, so the candidate is already known
              // infrequent: dropping it here also skips its canonical
              // code entirely.
              return;
            }
            build();
            code = iso::CanonicalCodeCached(extended);
          } else {
            // Wedge check: each wedge the new edge forms with a parent
            // edge is a connected 2-edge subgraph, so it must be a
            // frequent level-2 pattern; a miss skips the extension. At
            // level 3 these wedges are the extension's 2-edge
            // sub-patterns besides the parent, so the check is its
            // closure lookup, and their sets are its feasibility filters.
            // Parent edges go last to first; the order fixes the
            // intersection sequence, and with it the tidset/* work
            // counters.
            sub_sets.clear();
            std::uint32_t first = own;
            for (std::size_t i = parent_edges.size(); i-- > 0;) {
              if (!ShareVertex(parent_edges[i], added)) continue;
              const WedgeKey key = WedgeKeyOf(parent_edges[i], added);
              const auto it = frequent_wedges.find(key);
              if (it == frequent_wedges.end()) {
                ++wedge_pruned;
                return;
              }
              if (level != 3) continue;
              first = std::min(first, it->second.index);
              if (key == parent_key) continue;
              if (std::find(sub_sets.begin(), sub_sets.end(),
                            it->second.tids) == sub_sets.end()) {
                sub_sets.push_back(it->second.tids);
              }
            }
            if (level >= 4) {
              // Downward closure by lookup: C − f = (P − f) + e, so P's
              // row for f names the core P − f and maps e into it. A
              // missing entry means C − f is infrequent. When f is a
              // bridge of P that e reconnects, P − f is no core, and a
              // core with too many automorphisms has nothing registered;
              // C − f is coded then.
              uncovered.clear();
              for (EdgeId f = 0; f < pg.num_edges(); ++f) {
                const CoreRow& row = (*rows)[f];
                sub_index[f] = kNoPattern;
                if (row.core == kNoPattern) {
                  if (src != fresh && dst != fresh &&
                      row.map[src] != row.map[dst]) {
                    uncovered.push_back(f);
                  }
                  continue;
                }
                const VertexId s =
                    src == fresh ? graph::kInvalidVertex : row.map[src];
                const VertexId d =
                    dst == fresh ? graph::kInvalidVertex : row.map[dst];
                if (s == graph::kInvalidVertex &&
                    d == graph::kInvalidVertex) {
                  continue;  // e hangs off the vertex f isolates
                }
                if (!row.registered) {
                  uncovered.push_back(f);
                  continue;
                }
                const Label fresh_label =
                    s == graph::kInvalidVertex
                        ? (src == fresh ? t.src_label : pg.vertex_label(src))
                    : d == graph::kInvalidVertex
                        ? (dst == fresh ? t.dst_label : pg.vertex_label(dst))
                        : 0;
                ++closure_lookups;
                const auto it = core.grown.find(
                    CoreKey{row.core, s, d, t.edge_label, fresh_label});
                if (it == core.grown.end()) {
                  ++pruned_closure;
                  return;
                }
                sub_index[f] = it->second;
                first = std::min(first, it->second);
              }
              if (first < own) {
                ++not_canonical;
                return;
              }
              if (!uncovered.empty()) build();
              for (const EdgeId f : uncovered) {
                ++closure_fallbacks;
                const auto it = previous_index.find(
                    iso::CanonicalCodeCached(WithoutEdge(extended, f)));
                if (it == previous_index.end()) {
                  ++pruned_closure;
                  return;
                }
                sub_index[f] = it->second;
                first = std::min(first, it->second);
              }
              // Found sub-patterns double as feasibility filters: their
              // TID sets are supersets of the candidate's support.
              for (EdgeId f = 0; f < pg.num_edges(); ++f) {
                const std::uint32_t s = sub_index[f];
                if (s == kNoPattern || s == own) continue;
                if (std::find(sub_sets.begin(), sub_sets.end(),
                              previous_sets[s]) == sub_sets.end()) {
                  sub_sets.push_back(previous_sets[s]);
                }
              }
            }
            // A sub-pattern earlier in the frontier generates the
            // extension's class first (DESIGN.md §12, "Core tables").
            if (first < own) {
              ++not_canonical;
              return;
            }
            if (extended.num_edges() == 0) build();
            code = iso::CanonicalCodeCached(extended);
            // One parent generates a class, so this merges only its own
            // isomorphic extensions.
            if (candidates.contains(code)) return;
            // Feasibility: intersect the parent's TID set with the added
            // edge type's level-1 set and each sub-pattern set. Every
            // one is a necessary containment condition — an embedding of
            // the candidate maps the added edge to an edge of identical
            // type — so this only removes transactions that cannot
            // support the candidate; VF2 counting below stays exact.
            if (added.type >= type_tids.size()) {
              // The added edge type never occurs: trivially infrequent.
              feasible = empty_tids;
              pruned_by_join += parent_card;
            } else {
              TidSet feas =
                  TidSet::Intersect(parent.tids, *type_tids[added.type]);
              for (const auto& sub : sub_sets) feas.IntersectWith(*sub);
              // Repeated edge types: an embedding maps the candidate's
              // edges injectively, so a type used m times needs >= m
              // occurrences in the transaction. The types go in sorted
              // key order; the order fixes the tidset/* work counters.
              cand_type_counts.clear();
              auto count_type = [&](std::uint32_t id) {
                for (auto& [type, m] : cand_type_counts) {
                  if (type == id) {
                    ++m;
                    return;
                  }
                }
                cand_type_counts.emplace_back(id, 1);
              };
              for (const TypedEdge& e : parent_edges) count_type(e.type);
              count_type(added.type);
              std::sort(cand_type_counts.begin(), cand_type_counts.end(),
                        [&](const auto& a, const auto& b) {
                          return type_ids.keys[a.first] <
                                 type_ids.keys[b.first];
                        });
              for (const auto& [type, m] : cand_type_counts) {
                if (m < 2 || feas.Empty()) continue;
                const TidSet* set =
                    type < mult_tids.size()
                        ? mult_tids[type][std::min(m, kMaxTypeMult) - 2].get()
                        : nullptr;
                if (set == nullptr) {
                  feas.Clear();
                  break;
                }
                feas.IntersectWith(*set);
              }
              pruned_by_join += parent_card - feas.Cardinality();
              if (feas.Cardinality() == parent_card) {
                if (!parent_shared) {
                  parent_shared = std::make_shared<const TidSet>(parent.tids);
                  tid_bytes = parent_shared->MemoryBytes();
                }
                feasible = parent_shared;
              } else {
                auto fresh = std::make_shared<const TidSet>(std::move(feas));
                tid_bytes = fresh->MemoryBytes();
                feasible = std::move(fresh);
              }
            }
          }
          Candidate c;
          c.pattern.graph = std::move(extended);
          c.pattern.code = code;
          c.feasible = std::move(feasible);
          c.feasible_exact = feasible_exact;
          c.parent = parent_index;
          c.added = {src, dst, t.edge_label};
          const std::uint64_t delta = EstimateBytes(c.pattern) + tid_bytes;
          candidate_bytes += delta;
          result.peak_candidate_bytes =
              std::max(result.peak_candidate_bytes,
                       frontier_bytes + candidate_bytes);
          if (!options.budget.TryChargeMemoryNoTrip(delta)) {
            // Witnesses only save time: give their bytes back before the
            // ceiling refuses a candidate.
            drop_witnesses();
            if (!options.budget.TryChargeMemory(delta)) {
              level_outcome = common::MiningOutcome::kMemoryBudgetExceeded;
              return;
            }
          }
          level_charged += delta;
          candidates.emplace(std::move(code), std::move(c));
        };

        for (VertexId u = 0; u < pg.num_vertices(); ++u) {
          const Label lu = pg.vertex_label(u);
          for (const EdgeType& t : frequent_edges) {
            if (t.src_label == lu) {
              consider(u, fresh, t);  // u -> new vertex
              // u -> existing vertex (including self-loop when labels
              // allow).
              for (VertexId w = 0; w < pg.num_vertices(); ++w) {
                if (pg.vertex_label(w) == t.dst_label) consider(u, w, t);
              }
            }
            if (t.dst_label == lu) {
              // new vertex -> u. (existing -> u is covered by the outgoing
              // case at that existing vertex.)
              consider(fresh, u, t);
            }
            if (level_outcome != common::MiningOutcome::kComplete) break;
          }
          if (level_outcome != common::MiningOutcome::kComplete) break;
        }
      }
    } catch (const std::bad_alloc&) {
      // Allocation failure (real or injected) while building the level's
      // candidate set: degrade exactly like the memory ceiling.
      level_outcome = common::MiningOutcome::kMemoryBudgetExceeded;
    }
    result.candidates_per_level.push_back(candidates.size());
    TNMINE_COUNTER_ADD("fsg/extensions_considered", extensions_considered);
    TNMINE_COUNTER_ADD("fsg/extensions_wedge_pruned", wedge_pruned);
    TNMINE_COUNTER_ADD("fsg/candidates_pruned_closure", pruned_closure);
    TNMINE_COUNTER_ADD("fsg/closure_lookups", closure_lookups);
    TNMINE_COUNTER_ADD("fsg/closure_fallbacks", closure_fallbacks);
    TNMINE_COUNTER_ADD("fsg/extensions_not_canonical", not_canonical);
    TNMINE_COUNTER_ADD("fsg/feasible_pruned_by_join", pruned_by_join);
    TNMINE_COUNTER_ADD("fsg/candidates_generated", candidates.size());
    if (level_outcome != common::MiningOutcome::kComplete) {
      // Budget stop mid-generation: the level's candidate set is partial,
      // so none of it can be honestly counted. Keep completed levels.
      result.outcome = common::CombineOutcomes(result.outcome, level_outcome);
      break;
    }

    // Support counting against the candidate's feasible TID set. Each
    // candidate's containment checks are independent of every other
    // candidate's; sorting them by canonical code first fixes the
    // counting/output order deterministically (the hash-map iteration
    // order it replaces was implementation-defined).
    std::vector<Candidate> ordered;
    ordered.reserve(candidates.size());
    for (auto& [code, candidate] : candidates) {
      ordered.push_back(std::move(candidate));
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.pattern.code < b.pattern.code;
              });
    // Candidates are counted grouped by generating parent, one group per
    // lane task: a group walks the union of its children's feasible sets
    // once, ascending, through one reader, so each transaction yields one
    // parent occurrence for all of its children (DESIGN.md §12,
    // "Witness-first counting").
    std::vector<std::vector<std::size_t>> children_of(frontier.size());
    for (std::size_t c = 0; c < ordered.size(); ++c) {
      children_of[ordered[c].parent].push_back(c);
    }
    // The patterns of the last level parent nothing, so they keep none.
    const bool keep_witnesses =
        options.max_edges == 0 || level < options.max_edges;
    iso::MatchOptions match_options;
    match_options.max_search_steps = options.max_match_steps;
    struct CountResult {
      std::vector<std::uint32_t> tids;
      std::vector<VertexId> witnesses;  // aligned with tids, when kept
      std::uint64_t checks = 0;
      common::MiningOutcome aborted = common::MiningOutcome::kComplete;
    };
    std::vector<CountResult> counted(ordered.size());
    TNMINE_TRACE_SPAN("fsg/count_phase");
    auto count_group = [&](std::size_t parent) {
      // A child candidate of the group, with its cursor into its
      // feasible set while it is still checking.
      struct Child {
        std::size_t c;
        TidSet::const_iterator next;
        std::size_t card;
        std::size_t visited = 0;
        bool open = true;
        std::size_t need = 0;  // target edges an inner added edge needs
        Label new_label = 0;   // the new vertex's label, if any
        std::optional<iso::SubgraphMatcher> matcher{};  // built on first use
      };
      const FrequentPattern& pp = frontier[parent];
      const std::size_t np = pp.graph.num_vertices();
      std::vector<Child> children;
      children.reserve(children_of[parent].size());
      for (const std::size_t c : children_of[parent]) {
        CountResult& out = counted[c];
        // Shared stop conditions (cancel/deadline/memory trip) are
        // honored per candidate; tick truncation is settled
        // deterministically after the map, below.
        out.aborted = options.budget.StopReason();
        if (out.aborted != common::MiningOutcome::kComplete) continue;
        const TidSet& feasible = *ordered[c].feasible;
        // The feasible set's cardinality is already an upper bound on
        // support: skip the matcher entirely when it cannot reach
        // min_support.
        const std::size_t card = feasible.Cardinality();
        try {
          (void)TNMINE_FAILPOINT("fsg/count");
          if (card < options.min_support) continue;
          if (ordered[c].feasible_exact) {
            // Level-2 candidates carry their exact support set from the
            // wedge index; materialize it without any VF2 work.
            out.tids = feasible.ToVector();
            continue;
          }
          const LabeledGraph& cg = ordered[c].pattern.graph;
          const AddedEdge& added = ordered[c].added;
          Child child{.c = c, .next = feasible.begin(), .card = card};
          if (std::max(added.src, added.dst) < np) {
            cg.ForEachOutEdge(added.src, [&](EdgeId e) {
              const Edge& edge = cg.edge(e);
              child.need += edge.dst == added.dst && edge.label == added.label;
            });
          } else {
            child.new_label = cg.vertex_label(static_cast<VertexId>(np));
          }
          children.push_back(std::move(child));
        } catch (const std::bad_alloc&) {
          out.aborted = common::MiningOutcome::kMemoryBudgetExceeded;
          out.tids.clear();
        }
      }
      std::uint64_t witness_hits = 0;
      std::uint64_t parent_searches = 0;
      std::uint64_t exhausted = 0;
      try {
        // The parent's occurrence in the current transaction: its stored
        // witness (found by rank in its TID set) or, when it keeps none,
        // one VF2 search made at the first child's check.
        const std::vector<VertexId>& stored = frontier_witnesses[parent];
        TidSet::const_iterator parent_tid = pp.tids.begin();
        std::size_t parent_rank = 0;
        std::optional<iso::SubgraphMatcher> parent_matcher;
        std::vector<VertexId> parent_images;
        std::vector<VertexId> images;
        graph::TransactionSource::Reader reader(source);
        for (;;) {
          // Close the children whose remaining transactions cannot reach
          // min_support (or that have none left); the smallest next TID
          // of the others is the transaction to check.
          std::optional<std::uint32_t> next_tid;
          for (Child& child : children) {
            if (!child.open) continue;
            if (counted[child.c].tids.size() + (child.card - child.visited) <
                    options.min_support ||
                child.visited == child.card) {
              child.open = false;
              continue;
            }
            next_tid = std::min(next_tid.value_or(*child.next), *child.next);
          }
          if (!next_tid) break;
          const std::uint32_t tid = *next_tid;
          // A group spans many candidates' checks, so shared stops are
          // polled per transaction, not only when a candidate starts.
          const common::MiningOutcome stop = options.budget.StopReason();
          if (stop != common::MiningOutcome::kComplete) {
            for (Child& child : children) {
              if (!child.open) continue;
              child.open = false;
              counted[child.c].aborted = stop;
              counted[child.c].tids.clear();
            }
            break;
          }
          const graph::GraphView& view = reader.View(tid);
          std::optional<std::span<const VertexId>> parent_occurrence;
          bool parent_looked_up = false;
          for (Child& child : children) {
            if (!child.open || *child.next != tid) continue;
            ++child.next;
            ++child.visited;
            CountResult& out = counted[child.c];
            ++out.checks;
            if (!parent_looked_up) {
              parent_looked_up = true;
              if (!stored.empty()) {
                for (; *parent_tid != tid; ++parent_tid) ++parent_rank;
                parent_occurrence.emplace(stored.data() + parent_rank * np,
                                          np);
              } else {
                if (!parent_matcher) parent_matcher.emplace(pp.graph);
                ++parent_searches;
                if (parent_matcher->FirstOccurrence(view, match_options,
                                                    &parent_images)) {
                  parent_occurrence.emplace(parent_images);
                }
              }
            }
            bool contained =
                parent_occurrence &&
                ExtendWitness(view, *parent_occurrence,
                              ordered[child.c].added, child.new_label,
                              child.need, &images);
            if (contained) {
              ++witness_hits;
            } else {
              if (!child.matcher) {
                child.matcher.emplace(ordered[child.c].pattern.graph);
              }
              contained =
                  child.matcher->FirstOccurrence(view, match_options, &images);
              if (!contained && child.matcher->exhausted()) {
                // The step cap stopped the search before it could say
                // "no": the candidate's support is unknown, so it ends
                // like a work-allotment stop instead of under-counting.
                ++exhausted;
                child.open = false;
                out.aborted = common::MiningOutcome::kDeadlineExceeded;
                out.tids.clear();
                continue;
              }
            }
            if (contained) {
              out.tids.push_back(tid);
              if (keep_witnesses) {
                out.witnesses.insert(out.witnesses.end(), images.begin(),
                                     images.end());
              }
            }
          }
        }
      } catch (const std::bad_alloc&) {
        for (const Child& child : children) {
          if (!child.open) continue;
          counted[child.c].aborted =
              common::MiningOutcome::kMemoryBudgetExceeded;
          counted[child.c].tids.clear();
        }
      }
      // One flush per group: every count is a function of the group
      // alone, so the totals are scheduling-independent.
      std::uint64_t checks = 0;
      for (const Child& child : children) checks += counted[child.c].checks;
      TNMINE_COUNTER_ADD("fsg/support_checks", checks);
      TNMINE_COUNTER_ADD("fsg/witness_hits", witness_hits);
      TNMINE_COUNTER_ADD("fsg/parent_searches", parent_searches);
      TNMINE_COUNTER_ADD("fsg/match_steps_exhausted", exhausted);
    };
    common::ParallelFor(options.parallelism, frontier.size(), count_group);
    // The frontier's witnesses have served their one use.
    drop_witnesses();
    // Settle the parallel phase against the tick ledger in sorted
    // candidate order. Each candidate's check count is a deterministic
    // function of the candidate alone, so the prefix that fits the
    // remaining allotment — and therefore the emitted pattern set — is
    // identical at any thread count.
    std::vector<FrequentPattern> next_frontier;
    std::vector<std::vector<VertexId>> next_witnesses;
    for (std::size_t c = 0; c < ordered.size(); ++c) {
      if (counted[c].aborted != common::MiningOutcome::kComplete) {
        level_outcome =
            common::CombineOutcomes(level_outcome, counted[c].aborted);
        continue;
      }
      const common::MiningOutcome stop =
          meter.Charge(counted[c].checks > 0 ? counted[c].checks : 1);
      if (stop != common::MiningOutcome::kComplete) {
        level_outcome = common::CombineOutcomes(level_outcome, stop);
        break;
      }
      if (counted[c].tids.size() < options.min_support) continue;
      FrequentPattern& p = ordered[c].pattern;
      p.tids = TidSet::FromSorted(std::move(counted[c].tids), universe);
      p.support = p.tids.Cardinality();
      next_frontier.push_back(std::move(p));
      // A refused charge drops the pattern's witnesses: its children
      // then find their parent occurrences by VF2.
      std::vector<VertexId>& witnesses = counted[c].witnesses;
      witnesses.shrink_to_fit();
      const std::uint64_t bytes = witnesses.size() * sizeof(VertexId);
      if (options.budget.TryChargeMemoryNoTrip(bytes)) {
        witness_charged += bytes;
      } else {
        std::vector<VertexId>().swap(witnesses);
      }
      next_witnesses.push_back(std::move(witnesses));
    }
    result.frequent_per_level.push_back(next_frontier.size());
    TNMINE_COUNTER_ADD("fsg/candidates_counted", ordered.size());
    TNMINE_COUNTER_ADD("fsg/patterns_frequent", next_frontier.size());

    // The frontier's patterns become the cores of the next core table.
    cores.clear();
    for (FrequentPattern& p : frontier) cores.push_back(std::move(p.graph));
    core_index = std::move(previous_index);
    rebuild_previous(next_frontier);
    for (const FrequentPattern& p : next_frontier) {
      result.patterns.push_back(p);
    }
    if (level_outcome != common::MiningOutcome::kComplete) {
      // The level was truncated: its surviving prefix is emitted above
      // (every pattern in it was fully counted), but the frontier is
      // incomplete, so deeper levels cannot be mined honestly.
      result.outcome = common::CombineOutcomes(result.outcome, level_outcome);
      break;
    }
    result.levels_completed = level;
    frontier = std::move(next_frontier);
    frontier_witnesses = std::move(next_witnesses);
    retain();
  }
  result.work_ticks = meter.ticks_spent();
  common::RecordOutcome("fsg", result.outcome);
  return result;
}

}  // namespace tnmine::fsg
