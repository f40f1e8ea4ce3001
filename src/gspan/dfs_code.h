#ifndef TNMINE_GSPAN_DFS_CODE_H_
#define TNMINE_GSPAN_DFS_CODE_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/labeled_graph.h"

namespace tnmine::gspan {

/// One entry of a DFS code (Yan & Han, ICDM 2002), extended for directed
/// multigraphs: the edge between DFS-discovery positions `from` and `to`,
/// carrying the vertex labels at both ends, the edge label, and whether
/// the underlying directed edge runs from -> to (`forward_direction`) or
/// to -> from.
///
/// A forward entry (to > from) discovers position `to`, a tree edge of
/// the DFS. A backward entry (to <= from) closes an edge between known
/// positions: a self-loop has to == from, and a parallel or antiparallel
/// edge is a backward entry to a rightmost-path position.
///
/// Entries compare in gSpan's DFS lexicographic order, extended for
/// direction: backward before forward; backward entries by `to`
/// ascending; forward entries by `from` descending (the deepest
/// rightmost-path vertex first); then from label, edge label, direction
/// and to label. Two codes that agree up to some entry share their
/// rightmost path, so this order decides between any two rightmost-path
/// extensions of one prefix — and under it every prefix of a minimal
/// code is itself minimal, the property gSpan's pruning rests on.
struct DfsEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  graph::Label from_label = 0;
  graph::Label edge_label = 0;
  bool forward_direction = true;  ///< directed edge goes from -> to
  graph::Label to_label = 0;

  bool is_forward() const { return to > from; }

  bool operator==(const DfsEdge&) const = default;
  std::strong_ordering operator<=>(const DfsEdge& other) const;
};

/// A DFS code: the edge sequence of one depth-first traversal of a
/// connected graph. Two isomorphic graphs share the same *minimal* DFS
/// code (lexicographically smallest over all traversals), which is
/// gSpan's canonical form.
class DfsCode {
 public:
  DfsCode() = default;
  explicit DfsCode(std::vector<DfsEdge> edges) : edges_(std::move(edges)) {}

  const std::vector<DfsEdge>& edges() const { return edges_; }
  std::size_t size() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }

  void push_back(const DfsEdge& entry) { edges_.push_back(entry); }
  void pop_back() { edges_.pop_back(); }

  /// Lexicographic comparison over the edge sequence.
  auto operator<=>(const DfsCode&) const = default;

  /// Number of DFS positions the code discovers.
  std::uint32_t NumVertices() const;

  /// Positions on the rightmost path — the tree path from the root to
  /// the last discovered position — rightmost position first. A
  /// nonempty code's path always ends at the root, position 0.
  std::vector<std::uint32_t> RightmostPath() const;

  /// Reconstructs the pattern graph this code describes. DFS positions
  /// become vertex ids.
  graph::LabeledGraph ToGraph() const;

  /// Readable single-line form, for debugging and tests.
  std::string ToString() const;

 private:
  std::vector<DfsEdge> edges_;
};

/// Computes the minimal DFS code of a connected, dense labeled graph
/// (direction-aware) by gSpan's greedy construction: starting from every
/// orientation of every edge, keep only the traversals whose next
/// rightmost-path extension is the smallest entry on offer. No
/// backtracking is needed, because the smallest extension of a minimal
/// prefix always continues to a complete minimal code.
DfsCode MinimalDfsCode(const graph::LabeledGraph& g);

/// True when `code` is its graph's minimal DFS code — the gSpan
/// duplicate-pruning test. Runs the greedy construction on the code's
/// graph and stops at the first entry where it finds a smaller one.
bool IsMinimalDfsCode(const DfsCode& code);

}  // namespace tnmine::gspan

#endif  // TNMINE_GSPAN_DFS_CODE_H_
