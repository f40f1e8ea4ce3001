#ifndef TNMINE_ISO_VF2_H_
#define TNMINE_ISO_VF2_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph_view.h"
#include "graph/labeled_graph.h"

namespace tnmine::iso {

/// One occurrence of a pattern inside a target graph.
///
/// `vertex_map[p]` is the target vertex playing pattern vertex p;
/// `edge_map[i]` is the target edge playing the i-th live pattern edge
/// (pattern edges are indexed by ascending EdgeId). When the pattern has
/// parallel edges, interchangeable target edges are assigned in a fixed
/// deterministic order, so each distinct vertex mapping yields exactly one
/// embedding.
struct Embedding {
  std::vector<graph::VertexId> vertex_map;
  std::vector<graph::EdgeId> edge_map;
};

/// Options for subgraph matching.
struct MatchOptions {
  /// Target vertices that may not be used (size num_vertices of the target,
  /// nonzero = forbidden). Used by SUBDUE's no-overlap instance search.
  const std::vector<char>* forbidden_target_vertices = nullptr;
  /// Target edges that may not be used (indexed by EdgeId over the
  /// target's edge_capacity()).
  const std::vector<char>* forbidden_target_edges = nullptr;
  /// Abort the search after this many recursive extensions (0 = unlimited);
  /// a safety valve against pathological workloads. When tripped, the run
  /// visits no further embeddings and SubgraphMatcher::exhausted() reports
  /// it, so a caller can tell "none left" from "stopped looking".
  std::uint64_t max_search_steps = 0;
  /// Induced matching (AGM-style semantics, the paper's [10]): between
  /// every pair of mapped vertices the target must carry *exactly* the
  /// pattern's edges — same multiplicities per direction and label, and
  /// nothing more. Default is the non-induced monomorphism FSG/gSpan use.
  bool induced = false;
};

/// Label-preserving subgraph (monomorphism) matcher for directed labeled
/// multigraphs — the Section 4 notion of "identical" subgraphs: vertices
/// map injectively with equal labels, and every pattern edge maps to a
/// distinct live target edge with the same direction and label. The match
/// is NOT induced: extra target edges between mapped vertices are allowed,
/// which is the semantics FSG/gSpan support counting requires.
///
/// Construction compiles the PATTERN into a search plan (placement order,
/// per-depth requirement tallies, per-(label, direction) degree floors,
/// emit groups); targets are bound per call as prebuilt graph::GraphView
/// snapshots. One plan can therefore be reused against many targets — the
/// FSG support-counting loop builds one matcher per candidate and runs it
/// over every transaction view its parent's occurrence does not settle. The
/// per-run search state lives in a per-thread scratch lease, so repeated
/// runs on a warmed thread do not allocate.
class SubgraphMatcher {
 public:
  /// Compiles the plan for `pattern` only; bind a target per call.
  /// `pattern` must be dense (no tombstoned edges), non-empty, and must
  /// outlive the matcher.
  explicit SubgraphMatcher(const graph::LabeledGraph& pattern);

  /// Invokes `fn` for each embedding of the pattern in `target`; `fn`
  /// returns false to stop the enumeration. Returns the number of
  /// embeddings visited.
  std::uint64_t ForEachEmbedding(
      const graph::GraphView& target, const MatchOptions& options,
      const std::function<bool(const Embedding&)>& fn);

  /// True if at least one embedding exists in `target`.
  bool Contains(const graph::GraphView& target,
                const MatchOptions& options = {});

  /// The vertex map of the first embedding ForEachEmbedding would visit,
  /// written to `vertex_map` without building its edge map. Returns false
  /// (leaving `vertex_map` alone) when the run found none.
  bool FirstOccurrence(const graph::GraphView& target,
                       const MatchOptions& options,
                       std::vector<graph::VertexId>* vertex_map);

  /// Counts embeddings in `target`, stopping early at `limit` when
  /// nonzero.
  std::uint64_t CountEmbeddings(const graph::GraphView& target,
                                std::uint64_t limit = 0,
                                const MatchOptions& options = {});

  /// True when the last run stopped because it hit
  /// MatchOptions::max_search_steps: a "no" (or a short count) from that
  /// run says nothing about the embeddings it did not reach.
  bool exhausted() const { return exhausted_; }

 private:
  struct MatchScratch;  // per-run search state, pooled per thread

  /// A required edge multiplicity between the vertex being placed and an
  /// earlier-placed pattern vertex.
  struct Requirement {
    graph::VertexId other;  // earlier-placed pattern vertex
    bool outgoing;          // relative to the vertex being placed
    graph::Label label;
    std::uint32_t count;
  };

  /// Sorted (label, multiplicity) tally.
  using LabelTally = std::vector<std::pair<graph::Label, std::uint32_t>>;

  /// Induced-matching obligation against one other pattern vertex: the
  /// exact per-label edge multiset required in each direction (empty
  /// means the target must carry no such edges at all).
  struct InducedPair {
    graph::VertexId other;  // pattern vertex (any, not just earlier)
    LabelTally need_out;    // placed vertex -> other
    LabelTally need_in;     // other -> placed vertex
  };

  /// Anchor: the first non-self-loop back edge of a depth, used to
  /// enumerate candidates from the anchor image's adjacency.
  struct Anchor {
    graph::VertexId other;
    bool outgoing;
    graph::Label label;
  };

  /// Parallel pattern edges grouped by endpoints and label; target edges
  /// are assigned to `pattern_edges` (ascending) in ascending-target-id
  /// order at emit time.
  struct EmitGroup {
    graph::VertexId src;
    graph::VertexId dst;
    graph::Label label;
    std::vector<graph::EdgeId> pattern_edges;
  };

  void BuildPlan();
  /// One search over `target`. With a callback every embedding is emitted
  /// to it; without one the run stops at the first embedding and copies
  /// its vertex images to `first` (when non-null).
  std::uint64_t Run(const graph::GraphView& target,
                    const MatchOptions& options,
                    const std::function<bool(const Embedding&)>* callback,
                    std::vector<graph::VertexId>* first);
  bool Extend(std::size_t depth);
  bool TryCandidate(std::size_t depth, graph::VertexId t);
  bool EmitCurrentEmbedding();

  const graph::LabeledGraph& pattern_;

  // --- Search plan (pattern-only, built once). ---
  std::vector<graph::VertexId> order_;  // placement order
  std::vector<graph::Label> want_label_;
  std::vector<std::uint32_t> p_out_degree_;
  std::vector<std::uint32_t> p_in_degree_;
  // Per-(label, direction) degree floors: a target vertex needs at least
  // this many out-/in-arcs of each label to play the depth's vertex.
  std::vector<LabelTally> out_label_floor_;
  std::vector<LabelTally> in_label_floor_;
  std::vector<std::vector<Requirement>> requirements_;
  std::vector<LabelTally> self_loop_need_;
  std::vector<Anchor> anchors_;  // valid when has_anchor_[depth]
  std::vector<bool> has_anchor_;
  std::vector<std::vector<InducedPair>> induced_pairs_;
  std::vector<LabelTally> induced_loop_need_;
  std::vector<EmitGroup> emit_groups_;

  // --- Per-run state. ---
  const graph::GraphView* target_ = nullptr;
  const MatchOptions* options_ = nullptr;
  const std::function<bool(const Embedding&)>* callback_ = nullptr;
  std::vector<graph::VertexId>* first_ = nullptr;
  MatchScratch* scratch_ = nullptr;
  std::uint64_t emitted_ = 0;
  std::uint64_t steps_ = 0;
  bool exhausted_ = false;
};

/// Convenience wrappers (snapshot the target per call; hot loops should
/// prebuild GraphViews and reuse a SubgraphMatcher instead).
bool ContainsSubgraph(const graph::LabeledGraph& pattern,
                      const graph::LabeledGraph& target);
std::uint64_t CountEmbeddings(const graph::LabeledGraph& pattern,
                              const graph::LabeledGraph& target,
                              std::uint64_t limit = 0);
/// Induced-subgraph containment (MatchOptions::induced).
bool ContainsInducedSubgraph(const graph::LabeledGraph& pattern,
                             const graph::LabeledGraph& target);

}  // namespace tnmine::iso

#endif  // TNMINE_ISO_VF2_H_
