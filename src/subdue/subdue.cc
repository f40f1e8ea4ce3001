#include "subdue/subdue.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/budget.h"
#include "common/check.h"
#include "common/failpoint.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "graph/graph_view.h"
#include "iso/canonical.h"
#include "subdue/mdl.h"

namespace tnmine::subdue {

using graph::Edge;
using graph::EdgeId;
using graph::kInvalidVertex;
using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

namespace {

/// Position of `v` in `inst.vertices`, or inst.vertices.size() if absent.
std::uint32_t PositionOf(const Instance& inst, VertexId v) {
  return static_cast<std::uint32_t>(
      std::find(inst.vertices.begin(), inst.vertices.end(), v) -
      inst.vertices.begin());
}

/// Builds the local pattern graph of an instance. Vertex order follows
/// inst.vertices.
LabeledGraph PatternOf(const LabeledGraph& host, const Instance& inst) {
  LabeledGraph pattern;
  for (VertexId v : inst.vertices) pattern.AddVertex(host.vertex_label(v));
  for (EdgeId e : inst.edges) {
    const Edge& edge = host.edge(e);
    pattern.AddEdge(PositionOf(inst, edge.src), PositionOf(inst, edge.dst),
                    edge.label);
  }
  return pattern;
}

/// An instance's shape: its local graph with vertices numbered by instance
/// position, laid out as the vertex count, the vertex labels in instance
/// order, then the sorted (src, dst, label) triples of its edges. The count
/// prefix fixes where the labels end, and labels are stored as their
/// two's-complement words, so no label value (negative ones included) can
/// make two different local graphs share a layout.
std::vector<std::uint32_t> ShapeOf(const LabeledGraph& host,
                                   const Instance& inst) {
  std::vector<std::array<std::uint32_t, 3>> triples;
  for (const EdgeId e : inst.edges) {
    const Edge& edge = host.edge(e);
    triples.push_back({PositionOf(inst, edge.src), PositionOf(inst, edge.dst),
                       static_cast<std::uint32_t>(edge.label)});
  }
  std::sort(triples.begin(), triples.end());
  std::vector<std::uint32_t> words = {
      static_cast<std::uint32_t>(inst.vertices.size())};
  for (const VertexId v : inst.vertices) {
    words.push_back(static_cast<std::uint32_t>(host.vertex_label(v)));
  }
  for (const auto& triple : triples) {
    words.insert(words.end(), triple.begin(), triple.end());
  }
  return words;
}

/// One extension of a parent instance, named up to its grown local graph:
/// the parent instance's interned shape, the anchor's position in the
/// instance, 1 if the new edge leaves the anchor, the edge label, the
/// target's position (the instance size for a new vertex) and the new
/// vertex's label (0 when the target is in the instance). The grown local
/// graph (vertices in instance order, a new vertex last) is a function of
/// these words, so all instances with one key share one canonical code.
using ExtensionKey = std::array<std::uint32_t, 6>;

/// FNV-1a over 32-bit words (shapes, extension keys, edge-id sets).
struct WordsHash {
  template <typename Words>
  std::size_t operator()(const Words& words) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint32_t w : words) h = (h ^ w) * 1099511628211ULL;
    return static_cast<std::size_t>(h);
  }
};

/// Greedy vertex-disjoint instance selection, in list order. Returns the
/// selected indices.
std::vector<std::size_t> SelectDisjoint(const LabeledGraph& host,
                                        const std::vector<Instance>& insts) {
  std::vector<char> used(host.num_vertices(), 0);
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    bool free = true;
    for (VertexId v : insts[i].vertices) {
      if (used[v]) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    for (VertexId v : insts[i].vertices) used[v] = 1;
    chosen.push_back(i);
  }
  return chosen;
}

/// Evaluation context: host-graph quantities precomputed once per run.
struct EvalContext {
  const LabeledGraph* host;
  EvalMethod method;
  bool allow_overlap;
  double base_cost;          // DL(G) bits or size(G)
  std::size_t host_vlabels;  // label alphabet sizes of the host
  std::size_t host_elabels;
  Label replacement_label;   // fresh label used by trial compressions
};

void Evaluate(const EvalContext& ctx, Substructure* sub) {
  const std::vector<std::size_t> chosen =
      SelectDisjoint(*ctx.host, sub->instances);
  sub->non_overlapping_instances = chosen.size();
  switch (ctx.method) {
    case EvalMethod::kSetCover: {
      // No negative examples in transportation data (Section 5.1): the
      // value degenerates to the number of counted instances.
      sub->value = static_cast<double>(ctx.allow_overlap
                                           ? sub->instances.size()
                                           : chosen.size());
      return;
    }
    case EvalMethod::kMdl: {
      TNMINE_COUNTER_ADD("subdue/mdl_computations", 1);
      const LabeledGraph compressed =
          CompressGraph(*ctx.host, *sub, ctx.replacement_label);
      // The compressed graph and the substructure are priced with the
      // host's alphabets extended by the replacement label.
      const double dl_s = DescriptionLengthBits(
          sub->pattern, ctx.host_vlabels + 1, ctx.host_elabels);
      const double dl_gs = DescriptionLengthBits(
          compressed, ctx.host_vlabels + 1, ctx.host_elabels);
      sub->value = ctx.base_cost / std::max(1e-9, dl_s + dl_gs);
      return;
    }
    case EvalMethod::kSize: {
      const LabeledGraph compressed =
          CompressGraph(*ctx.host, *sub, ctx.replacement_label);
      const double denom = static_cast<double>(GraphSize(sub->pattern) +
                                               GraphSize(compressed));
      sub->value = ctx.base_cost / std::max(1.0, denom);
      return;
    }
  }
  TNMINE_CHECK(false);
}

}  // namespace

LabeledGraph CompressGraph(const LabeledGraph& g, const Substructure& sub,
                           Label replacement_label) {
  const std::vector<std::size_t> chosen = SelectDisjoint(g, sub.instances);
  // Host vertex -> owning chosen instance (or none).
  std::vector<std::int32_t> owner(g.num_vertices(), -1);
  std::unordered_set<EdgeId> instance_edges;
  for (std::size_t rank = 0; rank < chosen.size(); ++rank) {
    const Instance& inst = sub.instances[chosen[rank]];
    for (VertexId v : inst.vertices) {
      owner[v] = static_cast<std::int32_t>(rank);
    }
    instance_edges.insert(inst.edges.begin(), inst.edges.end());
  }
  LabeledGraph out;
  // One vertex per chosen instance, then the untouched vertices.
  std::vector<VertexId> instance_vertex(chosen.size());
  for (std::size_t rank = 0; rank < chosen.size(); ++rank) {
    instance_vertex[rank] = out.AddVertex(replacement_label);
  }
  std::vector<VertexId> mapped(g.num_vertices(), kInvalidVertex);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mapped[v] = owner[v] >= 0
                    ? instance_vertex[static_cast<std::size_t>(owner[v])]
                    : out.AddVertex(g.vertex_label(v));
  }
  g.ForEachEdge([&](EdgeId e) {
    if (instance_edges.contains(e)) return;
    const Edge& edge = g.edge(e);
    out.AddEdge(mapped[edge.src], mapped[edge.dst], edge.label);
  });
  return out;
}

SubdueResult DiscoverSubstructures(const LabeledGraph& g,
                                   const SubdueOptions& options) {
  TNMINE_TRACE_SPAN("subdue/discover");
  TNMINE_CHECK(options.beam_width >= 1);
  TNMINE_CHECK(options.num_best >= 1);
  TNMINE_COUNTER_ADD("subdue/runs_started", 1);
  SubdueResult result;
  // Sequential search, sequential ledger: the same allotment always cuts
  // the beam at the same substructure.
  common::BudgetMeter meter(options.budget);
  // Run-local telemetry, flushed once at the end (the discovery loop is
  // sequential, so locals also keep totals trivially deterministic).
  std::uint64_t instances_grown = 0;
  std::uint64_t beam_evictions = 0;

  EvalContext ctx;
  ctx.host = &g;
  ctx.method = options.method;
  ctx.allow_overlap = options.allow_overlap;
  ctx.host_vlabels = std::max<std::size_t>(1, g.CountDistinctVertexLabels());
  ctx.host_elabels = std::max<std::size_t>(1, g.CountDistinctEdgeLabels());
  // A label value guaranteed unused by the host.
  Label max_label = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_label = std::max(max_label, g.vertex_label(v));
  }
  ctx.replacement_label = max_label + 1;
  ctx.base_cost = options.method == EvalMethod::kMdl
                      ? DescriptionLengthBits(g, ctx.host_vlabels,
                                              ctx.host_elabels)
                      : static_cast<double>(GraphSize(g));
  result.base_cost = ctx.base_cost;

  const std::size_t limit =
      options.limit != 0 ? options.limit : g.num_edges() / 2 + 1;

  // Flat snapshot of the host: the growth loop below walks its
  // EdgeId-ascending adjacency spans (discovery order is output-relevant
  // here — the max_instances cap and SelectDisjoint are first-come).
  const graph::GraphView view(g);

  // Initial substructures: one per distinct vertex label, instances in
  // ascending VertexId order (the order the label index stores).
  std::map<Label, Substructure> initial;
  for (const Label label : view.DistinctVertexLabels()) {
    Substructure sub;
    sub.pattern.AddVertex(label);
    sub.code = iso::CanonicalCode(sub.pattern);
    for (const VertexId v : view.VerticesWithLabel(label)) {
      if (options.max_instances != 0 &&
          sub.instances.size() >= options.max_instances) {
        break;
      }
      sub.instances.push_back(Instance{{v}, {}});
    }
    initial.emplace(label, std::move(sub));
  }

  std::vector<Substructure> best;
  auto offer_best = [&](const Substructure& sub) {
    best.push_back(sub);
    std::sort(best.begin(), best.end(),
              [](const Substructure& a, const Substructure& b) {
                return a.value > b.value;
              });
    if (best.size() > options.num_best) best.resize(options.num_best);
  };

  std::vector<Substructure> parents;
  {
    TNMINE_TRACE_SPAN("subdue/evaluate");
    for (auto& [label, sub] : initial) {
      const common::MiningOutcome stop =
          meter.Charge(1 + sub.instances.size());
      if (stop != common::MiningOutcome::kComplete) {
        result.outcome = common::CombineOutcomes(result.outcome, stop);
        break;
      }
      Evaluate(ctx, &sub);
      ++result.substructures_evaluated;
      offer_best(sub);
      parents.push_back(std::move(sub));
    }
  }
  std::sort(parents.begin(), parents.end(),
            [](const Substructure& a, const Substructure& b) {
              return a.value > b.value;
            });
  if (parents.size() > options.beam_width) {
    beam_evictions += parents.size() - options.beam_width;
    parents.resize(options.beam_width);
  }

  auto full = [&](const std::vector<Instance>& instances) {
    return options.max_instances != 0 &&
           instances.size() >= options.max_instances;
  };

  while (result.outcome == common::MiningOutcome::kComplete &&
         !parents.empty() && result.substructures_evaluated < limit) {
    // Grow every parent instance by one host edge; group the grown
    // instances by pattern isomorphism class. A bad_alloc (real or
    // injected) anywhere in the round is absorbed at this boundary:
    // `best` keeps the substructures already evaluated.
    try {
      struct Child {
        LabeledGraph pattern;
        std::vector<Instance> instances;
        // Edge sets of the instances kept: a grown instance's vertices are
        // exactly its edges' endpoints, so its edge set identifies it.
        std::unordered_set<std::vector<EdgeId>, WordsHash> seen;
      };
      std::map<std::string, Child> children;
      {
        TNMINE_TRACE_SPAN("subdue/grow");
        // One canonical code per extension key, computed at the key's first
        // instance; every later instance with the key joins that child
        // (DESIGN.md §11, "SUBDUE extension keys").
        std::unordered_map<std::vector<std::uint32_t>, std::uint32_t,
                           WordsHash>
            shapes;
        std::unordered_map<ExtensionKey, Child*, WordsHash> by_key;
        for (const Substructure& parent : parents) {
          if (result.outcome != common::MiningOutcome::kComplete) break;
          if (options.max_pattern_edges != 0 &&
              parent.pattern.num_edges() >= options.max_pattern_edges) {
            continue;
          }
          for (const Instance& inst : parent.instances) {
            const common::MiningOutcome grow_stop = meter.Charge(1);
            if (grow_stop != common::MiningOutcome::kComplete) {
              result.outcome =
                  common::CombineOutcomes(result.outcome, grow_stop);
              break;
            }
            const std::uint32_t shape =
                shapes.try_emplace(ShapeOf(g, inst), shapes.size())
                    .first->second;
            for (std::uint32_t anchor = 0; anchor < inst.vertices.size();
                 ++anchor) {
              auto try_extend = [&](EdgeId e, bool outgoing) {
                if (std::binary_search(inst.edges.begin(), inst.edges.end(),
                                       e)) {
                  return;
                }
                ++instances_grown;
                const Edge& edge = g.edge(e);
                const VertexId other = outgoing ? edge.dst : edge.src;
                const std::uint32_t target = PositionOf(inst, other);
                const bool to_new = target == inst.vertices.size();
                const ExtensionKey key = {
                    shape, anchor, outgoing,
                    static_cast<std::uint32_t>(edge.label), target,
                    to_new ? static_cast<std::uint32_t>(g.vertex_label(other))
                           : 0};
                Child*& child = by_key[key];
                if (child != nullptr && full(child->instances)) return;
                Instance grown = inst;
                grown.edges.insert(std::lower_bound(grown.edges.begin(),
                                                    grown.edges.end(), e),
                                   e);
                if (to_new) grown.vertices.push_back(other);
                if (child == nullptr) {
                  LabeledGraph pattern = PatternOf(g, grown);
                  auto [it, inserted] =
                      children.try_emplace(iso::CanonicalCode(pattern));
                  if (inserted) it->second.pattern = std::move(pattern);
                  child = &it->second;
                  if (full(child->instances)) return;
                }
                if (!child->seen.insert(grown.edges).second) return;
                child->instances.push_back(std::move(grown));
              };
              const VertexId v = inst.vertices[anchor];
              for (EdgeId e : view.OutEdgesById(v)) try_extend(e, true);
              for (EdgeId e : view.InEdgesById(v)) {
                if (g.edge(e).src != g.edge(e).dst) try_extend(e, false);
              }
            }
          }
        }
      }

      // A budget stop mid-grow leaves `children` with partially grown
      // instance groups; evaluating them would under-count, so stop here.
      if (result.outcome != common::MiningOutcome::kComplete) break;

      {
        TNMINE_TRACE_SPAN("subdue/evaluate");
        std::vector<Substructure> evaluated;
        for (auto& [code, child] : children) {
          if (result.substructures_evaluated >= limit) break;
          (void)TNMINE_FAILPOINT("subdue/evaluate");
          const common::MiningOutcome eval_stop =
              meter.Charge(1 + child.instances.size());
          if (eval_stop != common::MiningOutcome::kComplete) {
            result.outcome =
                common::CombineOutcomes(result.outcome, eval_stop);
            break;
          }
          Substructure sub;
          sub.pattern = std::move(child.pattern);
          sub.code = code;
          sub.instances = std::move(child.instances);
          Evaluate(ctx, &sub);
          ++result.substructures_evaluated;
          offer_best(sub);
          evaluated.push_back(std::move(sub));
        }
        std::sort(evaluated.begin(), evaluated.end(),
                  [](const Substructure& a, const Substructure& b) {
                    return a.value > b.value;
                  });
        if (evaluated.size() > options.beam_width) {
          beam_evictions += evaluated.size() - options.beam_width;
          evaluated.resize(options.beam_width);
        }
        parents = std::move(evaluated);
      }
    } catch (const std::bad_alloc&) {
      result.outcome = common::CombineOutcomes(
          result.outcome, common::MiningOutcome::kMemoryBudgetExceeded);
      break;
    }
  }

  result.best = std::move(best);
  result.work_ticks = meter.ticks_spent();
  TNMINE_COUNTER_ADD("subdue/substructures_evaluated",
                     result.substructures_evaluated);
  TNMINE_COUNTER_ADD("subdue/instances_grown", instances_grown);
  TNMINE_COUNTER_ADD("subdue/beam_evictions", beam_evictions);
  common::RecordOutcome("subdue", result.outcome);
  return result;
}

std::vector<HierarchyLevel> HierarchicalDiscover(
    const LabeledGraph& g, const SubdueOptions& options, std::size_t passes,
    common::MiningOutcome* outcome) {
  std::vector<HierarchyLevel> levels;
  if (outcome != nullptr) *outcome = common::MiningOutcome::kComplete;
  LabeledGraph current = g;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    if (current.num_edges() == 0) break;
    const SubdueResult found = DiscoverSubstructures(current, options);
    if (found.outcome != common::MiningOutcome::kComplete) {
      // Keep completed levels; a truncated pass cannot be trusted to have
      // found the genuinely best substructure.
      if (outcome != nullptr) {
        *outcome = common::CombineOutcomes(*outcome, found.outcome);
      }
      break;
    }
    if (found.best.empty()) break;
    const Substructure& winner = found.best.front();
    // Stop when nothing compresses any more (for instance-count methods,
    // require at least two disjoint instances with at least one edge).
    if (options.method == EvalMethod::kSetCover) {
      if (winner.non_overlapping_instances < 2 ||
          winner.pattern.num_edges() == 0) {
        break;
      }
    } else if (winner.value <= 1.0) {
      break;
    }
    Label max_label = 0;
    for (VertexId v = 0; v < current.num_vertices(); ++v) {
      max_label = std::max(max_label, current.vertex_label(v));
    }
    HierarchyLevel level;
    level.substructure = winner;
    level.compressed = CompressGraph(current, winner, max_label + 1)
                           .Compact(/*drop_isolated_vertices=*/false);
    levels.push_back(level);
    current = levels.back().compressed;
  }
  return levels;
}

}  // namespace tnmine::subdue
