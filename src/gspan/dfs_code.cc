#include "gspan/dfs_code.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "common/check.h"
#include "graph/algorithms.h"

namespace tnmine::gspan {

using graph::Edge;
using graph::EdgeId;
using graph::LabeledGraph;
using graph::VertexId;

std::strong_ordering DfsEdge::operator<=>(const DfsEdge& other) const {
  if (is_forward() != other.is_forward()) {
    return is_forward() ? std::strong_ordering::greater
                        : std::strong_ordering::less;
  }
  if (is_forward()) {
    if (const auto c = other.from <=> from; c != 0) return c;
    if (const auto c = to <=> other.to; c != 0) return c;
  } else {
    if (const auto c = to <=> other.to; c != 0) return c;
    if (const auto c = from <=> other.from; c != 0) return c;
  }
  return std::tie(from_label, edge_label, forward_direction, to_label) <=>
         std::tie(other.from_label, other.edge_label,
                  other.forward_direction, other.to_label);
}

std::uint32_t DfsCode::NumVertices() const {
  std::uint32_t n = 0;
  for (const DfsEdge& e : edges_) n = std::max({n, e.from + 1, e.to + 1});
  return n;
}

std::vector<std::uint32_t> DfsCode::RightmostPath() const {
  std::uint32_t rightmost = 0;
  std::map<std::uint32_t, std::uint32_t> parent;
  for (const DfsEdge& e : edges_) {
    if (e.is_forward()) {
      parent[e.to] = e.from;
      rightmost = std::max(rightmost, e.to);
    }
  }
  std::vector<std::uint32_t> path = {rightmost};
  while (path.back() != 0) path.push_back(parent.at(path.back()));
  return path;
}

graph::LabeledGraph DfsCode::ToGraph() const {
  LabeledGraph g;
  auto ensure_vertex = [&](std::uint32_t position, graph::Label label) {
    while (g.num_vertices() <= position) {
      g.AddVertex(0);  // placeholder label, set below
    }
    g.set_vertex_label(position, label);
  };
  for (const DfsEdge& e : edges_) {
    ensure_vertex(e.from, e.from_label);
    ensure_vertex(e.to, e.to_label);
    if (e.forward_direction) {
      g.AddEdge(e.from, e.to, e.edge_label);
    } else {
      g.AddEdge(e.to, e.from, e.edge_label);
    }
  }
  return g;
}

std::string DfsCode::ToString() const {
  std::ostringstream out;
  for (const DfsEdge& e : edges_) {
    out << "(" << e.from << (e.forward_direction ? ">" : "<") << e.to
        << ":" << e.from_label << "," << e.edge_label << "," << e.to_label
        << ")";
  }
  return out.str();
}

namespace {

/// One traversal of `g` that spells the code built so far.
struct Traversal {
  std::vector<VertexId> images;  // DFS position -> graph vertex
  std::vector<char> used;        // by EdgeId
};

/// One rightmost-path extension a traversal offers.
struct Offer {
  DfsEdge entry;
  std::size_t traversal;
  EdgeId edge;
};

/// Appends every rightmost-path extension of `t`, which spells `code`.
void OfferExtensions(const LabeledGraph& g, const DfsCode& code,
                     const std::vector<std::uint32_t>& path,
                     const Traversal& t, std::size_t index,
                     std::vector<Offer>* offers) {
  auto label = [&](VertexId v) { return g.vertex_label(v); };
  if (code.empty()) {
    g.ForEachEdge([&](EdgeId e) {
      const Edge& edge = g.edge(e);
      const std::uint32_t to = edge.src == edge.dst ? 0 : 1;
      offers->push_back({{0, to, label(edge.src), edge.label, true,
                          label(edge.dst)},
                         index, e});
      if (to == 1) {
        offers->push_back({{0, 1, label(edge.dst), edge.label, false,
                            label(edge.src)},
                           index, e});
      }
    });
    return;
  }
  auto position_of = [&](VertexId v) {
    const auto it = std::find(t.images.begin(), t.images.end(), v);
    return static_cast<std::uint32_t>(it - t.images.begin());
  };
  const auto next = static_cast<std::uint32_t>(t.images.size());
  // Backward: closing edges and self-loops from the rightmost position to
  // a rightmost-path position.
  const std::uint32_t rightmost = path.front();
  const VertexId rv = t.images[rightmost];
  auto backward = [&](EdgeId e, VertexId other, bool outgoing) {
    if (t.used[e]) return;
    const std::uint32_t p = position_of(other);
    if (std::find(path.begin(), path.end(), p) == path.end()) return;
    offers->push_back({{rightmost, p, label(rv), g.edge(e).label, outgoing,
                        label(other)},
                       index, e});
  };
  g.ForEachOutEdge(rv, [&](EdgeId e) { backward(e, g.edge(e).dst, true); });
  g.ForEachInEdge(rv, [&](EdgeId e) {
    // Self-loops were offered once, as out-edges.
    if (g.edge(e).src != rv) backward(e, g.edge(e).src, false);
  });
  // Forward: from any rightmost-path position to an undiscovered vertex.
  for (const std::uint32_t p : path) {
    const VertexId u = t.images[p];
    auto forward = [&](EdgeId e, VertexId other, bool outgoing) {
      if (position_of(other) != next) return;
      offers->push_back({{p, next, label(u), g.edge(e).label, outgoing,
                          label(other)},
                         index, e});
    };
    g.ForEachOutEdge(u, [&](EdgeId e) { forward(e, g.edge(e).dst, true); });
    g.ForEachInEdge(u, [&](EdgeId e) { forward(e, g.edge(e).src, false); });
  }
}

/// gSpan's greedy construction of `g`'s minimal DFS code into `out`: each
/// step takes the smallest extension any kept traversal offers and keeps
/// exactly the traversals it extends. With `expected`, stops and returns
/// false at the first entry where the minimum differs from it. Also
/// returns false, with `out` short of |E| entries, if no traversal
/// extends before every edge is placed.
bool Greedy(const LabeledGraph& g, const DfsCode* expected, DfsCode* out) {
  TNMINE_CHECK(g.num_edges() > 0);
  TNMINE_CHECK_MSG(g.IsDense(), "graph must be dense");
  TNMINE_CHECK_MSG(graph::IsWeaklyConnected(g),
                   "DFS codes require a connected graph");
  std::vector<Traversal> kept(1);
  kept[0].used.assign(g.edge_capacity(), 0);
  std::vector<Offer> offers;
  while (out->size() < g.num_edges()) {
    offers.clear();
    const std::vector<std::uint32_t> path =
        out->empty() ? std::vector<std::uint32_t>{} : out->RightmostPath();
    for (std::size_t i = 0; i < kept.size(); ++i) {
      OfferExtensions(g, *out, path, kept[i], i, &offers);
    }
    if (offers.empty()) return false;
    const DfsEdge best =
        std::min_element(offers.begin(), offers.end(),
                         [](const Offer& a, const Offer& b) {
                           return a.entry < b.entry;
                         })
            ->entry;
    if (expected != nullptr && expected->edges()[out->size()] != best) {
      return false;
    }
    std::vector<Traversal> extended;
    for (const Offer& offer : offers) {
      if (offer.entry != best) continue;
      Traversal t = kept[offer.traversal];
      t.used[offer.edge] = 1;
      // Positions the entry discovers: both ends of a first entry, `to` of
      // a forward one.
      const Edge& edge = g.edge(offer.edge);
      const bool fwd = offer.entry.forward_direction;
      if (t.images.size() == offer.entry.from) {
        t.images.push_back(fwd ? edge.src : edge.dst);
      }
      if (t.images.size() == offer.entry.to) {
        t.images.push_back(fwd ? edge.dst : edge.src);
      }
      extended.push_back(std::move(t));
    }
    kept = std::move(extended);
    out->push_back(best);
  }
  return true;
}

}  // namespace

DfsCode MinimalDfsCode(const LabeledGraph& g) {
  DfsCode code;
  Greedy(g, nullptr, &code);
  return code;
}

bool IsMinimalDfsCode(const DfsCode& code) {
  if (code.empty()) return true;
  DfsCode built;
  return Greedy(code.ToGraph(), &code, &built);
}

}  // namespace tnmine::gspan
