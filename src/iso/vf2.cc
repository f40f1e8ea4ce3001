#include "iso/vf2.h"

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <tuple>

#include "common/bitwords.h"
#include "common/scratch.h"

namespace tnmine::iso {

using graph::Edge;
using graph::EdgeId;
using graph::GraphView;
using graph::kInvalidVertex;
using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

/// Per-run search state, pooled per thread (common::ScratchLease): after
/// the first few runs on a thread have warmed these buffers' capacities,
/// a match run performs no heap allocation.
struct SubgraphMatcher::MatchScratch {
  std::vector<VertexId> vertex_image;  // pattern v -> target v
  // Placed target vertices, one bit each — used-vertex exclusion during
  // candidate enumeration is a word AND against the domain bitmaps.
  common::ScratchBitset used;
  // One candidate-domain bitmap per depth (recursion at depth d iterates
  // its own domain while deeper levels fill theirs). Touched-range
  // clearing keeps a rebuild O(domain), not O(target vertices).
  std::vector<common::ScratchBitset> depth_domains;
  LabelTally have;              // induced-check tally buffer
  std::vector<EdgeId> avail;    // emit-time parallel-edge pool
  Embedding emb;                // reused embedding handed to callbacks
  // Logical state is fully re-initialized per run; keeping contents (and
  // therefore capacity) across leases is the point.
  void Reset() {}
};

SubgraphMatcher::SubgraphMatcher(const LabeledGraph& pattern)
    : pattern_(pattern) {
  TNMINE_CHECK_MSG(pattern.num_vertices() > 0, "pattern must be non-empty");
  TNMINE_CHECK_MSG(pattern.IsDense(),
                   "pattern must be dense (Compact() it first)");
  BuildPlan();
}

void SubgraphMatcher::BuildPlan() {
  // Placement order: BFS from the highest-degree vertex of each component,
  // so every non-root vertex is anchored to an already-placed neighbor and
  // candidate sets come from target adjacency lists instead of all
  // vertices.
  const std::size_t n = pattern_.num_vertices();
  std::vector<char> placed(n, 0);
  order_.reserve(n);
  while (order_.size() < n) {
    VertexId root = kInvalidVertex;
    std::size_t best_degree = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (!placed[v] &&
          (root == kInvalidVertex || pattern_.Degree(v) > best_degree)) {
        root = v;
        best_degree = pattern_.Degree(v);
      }
    }
    // BFS over the undirected view of the pattern.
    std::vector<VertexId> queue = {root};
    placed[root] = 1;
    std::size_t head = 0;
    while (head < queue.size()) {
      const VertexId v = queue[head++];
      order_.push_back(v);
      auto visit = [&](EdgeId e) {
        const Edge& edge = pattern_.edge(e);
        const VertexId other = (edge.src == v) ? edge.dst : edge.src;
        if (!placed[other]) {
          placed[other] = 1;
          queue.push_back(other);
        }
      };
      pattern_.ForEachOutEdge(v, visit);
      pattern_.ForEachInEdge(v, visit);
    }
  }

  // Position of each pattern vertex in the order.
  std::vector<std::size_t> position(n, 0);
  for (std::size_t i = 0; i < n; ++i) position[order_[i]] = i;

  // Back edges per depth: the pattern edges connecting order_[i] to
  // earlier-placed vertices (self-loops count once, via the out side).
  struct PatternEdgeRef {
    EdgeId edge;
    bool outgoing;  // relative to the vertex being placed
  };
  std::vector<std::vector<PatternEdgeRef>> back_edges(n);
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId p = order_[i];
    pattern_.ForEachOutEdge(p, [&](EdgeId e) {
      const VertexId other = pattern_.edge(e).dst;
      if (position[other] < i || other == p) {
        back_edges[i].push_back({e, /*outgoing=*/true});
      }
    });
    pattern_.ForEachInEdge(p, [&](EdgeId e) {
      const VertexId other = pattern_.edge(e).src;
      if (position[other] < i) {
        back_edges[i].push_back({e, /*outgoing=*/false});
      }
    });
  }

  // Compile the per-depth plan rows: wanted label, degree floors, merged
  // requirement tallies (the former per-call rebuild), anchors, and the
  // induced-matching obligations.
  want_label_.resize(n);
  p_out_degree_.resize(n);
  p_in_degree_.resize(n);
  out_label_floor_.resize(n);
  in_label_floor_.resize(n);
  requirements_.resize(n);
  self_loop_need_.resize(n);
  anchors_.resize(n);
  has_anchor_.assign(n, false);
  induced_pairs_.resize(n);
  induced_loop_need_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId p = order_[i];
    want_label_[i] = pattern_.vertex_label(p);
    p_out_degree_[i] = static_cast<std::uint32_t>(pattern_.OutDegree(p));
    p_in_degree_[i] = static_cast<std::uint32_t>(pattern_.InDegree(p));
    // A monomorphism maps p's edges of each label and direction to
    // distinct target arcs of the same label and direction (a self-loop
    // is an arc both ways, on both sides).
    std::map<Label, std::uint32_t> out_floor;
    std::map<Label, std::uint32_t> in_floor;
    pattern_.ForEachOutEdge(p, [&](EdgeId e) {
      ++out_floor[pattern_.edge(e).label];
    });
    pattern_.ForEachInEdge(p, [&](EdgeId e) {
      ++in_floor[pattern_.edge(e).label];
    });
    out_label_floor_[i].assign(out_floor.begin(), out_floor.end());
    in_label_floor_[i].assign(in_floor.begin(), in_floor.end());
    std::map<Label, std::uint32_t> loop_need;
    for (const PatternEdgeRef& ref : back_edges[i]) {
      const Edge& pedge = pattern_.edge(ref.edge);
      if (pedge.src == pedge.dst) {
        if (ref.outgoing) ++loop_need[pedge.label];
        continue;
      }
      if (!has_anchor_[i]) {
        has_anchor_[i] = true;
        anchors_[i] = {ref.outgoing ? pedge.dst : pedge.src, ref.outgoing,
                       pedge.label};
      }
      const VertexId other = ref.outgoing ? pedge.dst : pedge.src;
      bool merged = false;
      for (Requirement& req : requirements_[i]) {
        if (req.other == other && req.outgoing == ref.outgoing &&
            req.label == pedge.label) {
          ++req.count;
          merged = true;
          break;
        }
      }
      if (!merged) {
        requirements_[i].push_back({other, ref.outgoing, pedge.label, 1});
      }
    }
    self_loop_need_[i].assign(loop_need.begin(), loop_need.end());

    // Induced obligations: the exact per-label multiset of pattern edges
    // between p and every other pattern vertex, both directions. Empty
    // tallies still matter (the target must carry nothing there).
    auto tally = [&](VertexId a, VertexId b) {
      std::map<Label, std::uint32_t> counts;
      pattern_.ForEachOutEdge(a, [&](EdgeId e) {
        if (pattern_.edge(e).dst == b) ++counts[pattern_.edge(e).label];
      });
      return LabelTally(counts.begin(), counts.end());
    };
    for (VertexId q = 0; q < n; ++q) {
      if (q == p) continue;
      induced_pairs_[i].push_back({q, tally(p, q), tally(q, p)});
    }
    induced_loop_need_[i] = tally(p, p);
  }

  // Emit plan: group parallel pattern edges by (src, dst, label). The
  // vertex mapping is injective, so plan-time groups coincide exactly
  // with the former emit-time groups keyed by mapped endpoints.
  std::map<std::tuple<VertexId, VertexId, Label>, std::vector<EdgeId>>
      groups;
  pattern_.ForEachEdge([&](EdgeId e) {
    const Edge& edge = pattern_.edge(e);
    groups[std::make_tuple(edge.src, edge.dst, edge.label)].push_back(e);
  });
  for (auto& [key, pattern_edges] : groups) {
    const auto& [src, dst, label] = key;
    emit_groups_.push_back({src, dst, label, std::move(pattern_edges)});
  }
}

namespace {

bool EdgeAllowed(const MatchOptions& options, EdgeId e) {
  return options.forbidden_target_edges == nullptr ||
         !(*options.forbidden_target_edges)[e];
}

bool VertexAllowed(const MatchOptions& options, VertexId v) {
  return options.forbidden_target_vertices == nullptr ||
         !(*options.forbidden_target_vertices)[v];
}

/// The contiguous arc subrange of OutArcs(src) with the given (label,
/// dst): parallel edges, ascending EdgeId (the arc sort order).
std::span<const GraphView::Arc> PairRange(const GraphView& target,
                                          VertexId src, VertexId dst,
                                          Label label) {
  const std::span<const GraphView::Arc> range = target.OutArcs(src, label);
  const GraphView::Arc* lo = std::lower_bound(
      range.data(), range.data() + range.size(), dst,
      [](const GraphView::Arc& a, VertexId v) { return a.other < v; });
  const GraphView::Arc* hi = std::upper_bound(
      lo, range.data() + range.size(), dst,
      [](VertexId v, const GraphView::Arc& a) { return v < a.other; });
  return {lo, static_cast<std::size_t>(hi - lo)};
}

/// Counts live, allowed target edges src -> dst with the given label.
std::size_t CountTargetEdges(const GraphView& target,
                             const MatchOptions& options, VertexId src,
                             VertexId dst, Label label) {
  const std::span<const GraphView::Arc> range =
      PairRange(target, src, dst, label);
  if (options.forbidden_target_edges == nullptr) return range.size();
  std::size_t count = 0;
  for (const GraphView::Arc& arc : range) {
    if (EdgeAllowed(options, arc.edge)) ++count;
  }
  return count;
}

/// Tallies allowed arcs of `arcs` pointing at `other` into sorted
/// (label, count) runs. Arcs are label-major sorted, so the filtered
/// subsequence yields ascending labels directly.
void BuildPairTally(std::span<const GraphView::Arc> arcs, VertexId other,
                    const MatchOptions& options,
                    std::vector<std::pair<Label, std::uint32_t>>* out) {
  out->clear();
  for (const GraphView::Arc& arc : arcs) {
    if (arc.other != other || !EdgeAllowed(options, arc.edge)) continue;
    if (!out->empty() && out->back().first == arc.label) {
      ++out->back().second;
    } else {
      out->emplace_back(arc.label, 1);
    }
  }
}

}  // namespace

bool SubgraphMatcher::EmitCurrentEmbedding() {
  Embedding& emb = scratch_->emb;
  emb.vertex_map = scratch_->vertex_image;
  emb.edge_map.assign(pattern_.edge_capacity(), graph::kInvalidEdge);
  for (const EmitGroup& group : emit_groups_) {
    const VertexId ts = scratch_->vertex_image[group.src];
    const VertexId td = scratch_->vertex_image[group.dst];
    std::vector<EdgeId>& avail = scratch_->avail;
    avail.clear();
    for (const GraphView::Arc& arc :
         PairRange(*target_, ts, td, group.label)) {
      if (EdgeAllowed(*options_, arc.edge)) avail.push_back(arc.edge);
    }
    // avail is ascending (the arc sort order); hand the k smallest target
    // edges to the group's pattern edges in ascending pattern-id order —
    // exactly the former per-emission pool assignment.
    if (avail.size() < group.pattern_edges.size()) {
      TNMINE_DCHECK(false);  // cannot happen if feasibility was exact
      return true;
    }
    for (std::size_t i = 0; i < group.pattern_edges.size(); ++i) {
      emb.edge_map[group.pattern_edges[i]] = avail[i];
    }
  }
  ++emitted_;
  return (*callback_)(emb);
}

bool SubgraphMatcher::TryCandidate(std::size_t depth, VertexId t) {
  // Returns false to abort the whole enumeration.
  std::vector<VertexId>& vi = scratch_->vertex_image;
  if (scratch_->used.Test(t) || !VertexAllowed(*options_, t)) return true;
  if (target_->vertex_label(t) != want_label_[depth]) return true;
  if (target_->OutDegree(t) < p_out_degree_[depth] ||
      target_->InDegree(t) < p_in_degree_[depth]) {
    return true;
  }
  for (const auto& [label, need] : out_label_floor_[depth]) {
    if (target_->OutArcs(t, label).size() < need) return true;
  }
  for (const auto& [label, need] : in_label_floor_[depth]) {
    if (target_->InArcs(t, label).size() < need) return true;
  }
  for (const Requirement& req : requirements_[depth]) {
    const VertexId image = vi[req.other];
    const std::size_t available =
        req.outgoing
            ? CountTargetEdges(*target_, *options_, t, image, req.label)
            : CountTargetEdges(*target_, *options_, image, t, req.label);
    if (available < req.count) return true;
  }
  for (const auto& [label, need] : self_loop_need_[depth]) {
    if (CountTargetEdges(*target_, *options_, t, t, label) < need) {
      return true;
    }
  }
  if (options_->induced) {
    // Exact multiset equality against every placed vertex: the target
    // may carry no edge (by direction and label) that the pattern does
    // not.
    for (const InducedPair& pair : induced_pairs_[depth]) {
      const VertexId tq = vi[pair.other];
      if (tq == kInvalidVertex) continue;
      BuildPairTally(target_->OutArcs(t), tq, *options_, &scratch_->have);
      if (scratch_->have != pair.need_out) return true;
      BuildPairTally(target_->OutArcs(tq), t, *options_, &scratch_->have);
      if (scratch_->have != pair.need_in) return true;
    }
    BuildPairTally(target_->OutArcs(t), t, *options_, &scratch_->have);
    if (scratch_->have != induced_loop_need_[depth]) return true;
  }
  const VertexId p = order_[depth];
  vi[p] = t;
  scratch_->used.Set(t);
  const bool keep_going = Extend(depth + 1);
  scratch_->used.Clear(t);
  vi[p] = kInvalidVertex;
  return keep_going;
}

bool SubgraphMatcher::Extend(std::size_t depth) {
  if (exhausted_) return false;
  if (options_->max_search_steps != 0 &&
      ++steps_ > options_->max_search_steps) {
    exhausted_ = true;
    return false;
  }
  if (depth == order_.size()) {
    if (callback_ != nullptr) return EmitCurrentEmbedding();
    ++emitted_;
    if (first_ != nullptr) *first_ = scratch_->vertex_image;
    return false;
  }

  if (has_anchor_[depth]) {
    // Build the candidate domain as a bitmap from the label subrange of
    // the anchor image's adjacency (duplicate `other`s from parallel
    // target edges collapse into one bit), then walk it with used-vertex
    // exclusion folded in as a word AND. Bits come out ascending — the
    // exact order the former sorted candidate vector produced.
    const Anchor& anchor = anchors_[depth];
    const VertexId image = scratch_->vertex_image[anchor.other];
    common::ScratchBitset& domain = scratch_->depth_domains[depth];
    domain.EnsureBits(target_->num_vertices());
    domain.ClearTouched();
    const std::span<const GraphView::Arc> arcs =
        anchor.outgoing ? target_->InArcs(image, anchor.label)
                        : target_->OutArcs(image, anchor.label);
    for (const GraphView::Arc& arc : arcs) {
      if (!EdgeAllowed(*options_, arc.edge)) continue;
      domain.Set(arc.other);
    }
    // Deeper recursion only mutates deeper depths' domains and restores
    // `used` bits other than the one it placed, so reading both word by
    // word at iteration time admits exactly the candidates the former
    // per-vertex used check admitted.
    const common::ScratchBitset& used = scratch_->used;
    for (std::size_t w = domain.touched_begin(); w < domain.touched_end();
         ++w) {
      std::uint64_t word = domain.word(w) & ~used.word(w);
      while (word != 0) {
        const VertexId t =
            static_cast<VertexId>(w * common::kBitsPerWord +
                                  static_cast<std::size_t>(
                                      std::countr_zero(word)));
        word &= word - 1;
        if (!TryCandidate(depth, t)) return false;
      }
    }
    return true;
  }

  // Unanchored (component root): every target vertex with the wanted
  // label, ascending — the same sequence the former all-vertex scan
  // admitted past its label check.
  for (VertexId t : target_->VerticesWithLabel(want_label_[depth])) {
    if (!TryCandidate(depth, t)) return false;
  }
  return true;
}

std::uint64_t SubgraphMatcher::Run(
    const GraphView& target, const MatchOptions& options,
    const std::function<bool(const Embedding&)>* callback,
    std::vector<VertexId>* first) {
  common::ScratchLease<MatchScratch> scratch;
  scratch_ = scratch.get();
  target_ = &target;
  options_ = &options;
  callback_ = callback;
  first_ = first;
  scratch_->vertex_image.assign(pattern_.num_vertices(), kInvalidVertex);
  scratch_->used.EnsureBits(target.num_vertices());
  // Full clear (not touched-range): a callback abort can unwind past the
  // per-candidate Clear() calls, leaving stale bits behind.
  scratch_->used.ClearAll();
  if (scratch_->depth_domains.size() < order_.size()) {
    scratch_->depth_domains.resize(order_.size());
  }
  emitted_ = 0;
  steps_ = 0;
  exhausted_ = false;
  if (pattern_.num_vertices() <= target.num_vertices() &&
      pattern_.num_edges() <= target.num_edges()) {
    Extend(0);
  }
  scratch_ = nullptr;
  target_ = nullptr;
  return emitted_;
}

std::uint64_t SubgraphMatcher::ForEachEmbedding(
    const GraphView& target, const MatchOptions& options,
    const std::function<bool(const Embedding&)>& fn) {
  return Run(target, options, &fn, nullptr);
}

bool SubgraphMatcher::Contains(const GraphView& target,
                               const MatchOptions& options) {
  return Run(target, options, nullptr, nullptr) > 0;
}

bool SubgraphMatcher::FirstOccurrence(const GraphView& target,
                                      const MatchOptions& options,
                                      std::vector<VertexId>* vertex_map) {
  return Run(target, options, nullptr, vertex_map) > 0;
}

std::uint64_t SubgraphMatcher::CountEmbeddings(const GraphView& target,
                                               std::uint64_t limit,
                                               const MatchOptions& options) {
  return ForEachEmbedding(target, options, [&](const Embedding&) {
    return limit == 0 || emitted_ < limit;
  });
}

bool ContainsSubgraph(const LabeledGraph& pattern,
                      const LabeledGraph& target) {
  return SubgraphMatcher(pattern).Contains(GraphView(target));
}

std::uint64_t CountEmbeddings(const LabeledGraph& pattern,
                              const LabeledGraph& target,
                              std::uint64_t limit) {
  return SubgraphMatcher(pattern).CountEmbeddings(GraphView(target), limit);
}

bool ContainsInducedSubgraph(const LabeledGraph& pattern,
                             const LabeledGraph& target) {
  MatchOptions options;
  options.induced = true;
  return SubgraphMatcher(pattern).Contains(GraphView(target), options);
}

}  // namespace tnmine::iso
