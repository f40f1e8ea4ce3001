#ifndef TNMINE_ISO_CANONICAL_H_
#define TNMINE_ISO_CANONICAL_H_

#include <cstdint>
#include <string>

#include "graph/labeled_graph.h"

namespace tnmine::iso {

/// Returns a canonical code for `g`: a byte string such that two labeled
/// directed multigraphs have equal codes if and only if they are
/// isomorphic (label-preserving, direction-preserving).
///
/// The code is computed by iterated color refinement (1-WL with vertex
/// labels and directed edge-label neighborhoods) followed by a
/// depth-first search over vertex orderings consistent with the refined
/// partition, with lexicographic prefix pruning and sound transposition-
/// automorphism candidate pruning. Exponential in the worst case (as any
/// canonical form must be), but fast for the small, richly-labeled
/// patterns graph miners produce. Intended for pattern-sized graphs; a
/// guard rejects graphs with more than `kMaxCanonicalVertices` vertices.
std::string CanonicalCode(const graph::LabeledGraph& g);

inline constexpr std::size_t kMaxCanonicalVertices = 64;

/// True when `a` and `b` are isomorphic (via canonical codes).
bool AreIsomorphic(const graph::LabeledGraph& a, const graph::LabeledGraph& b);

/// Memoized CanonicalCode, safe to call from any thread. Returns exactly
/// CanonicalCode(g) — the cache can never change an answer, only skip the
/// canonical-ordering search.
///
/// The miners re-derive the same concrete pattern graphs over and over
/// (gSpan rebuilds each extension per arrival path; FSG re-codes every
/// downward-closure sub-pattern; Algorithm 1 re-mines overlapping
/// partitions), so exact-graph memoization hits often. Entries are keyed
/// by the graph's exact byte serialization (vertex labels in id order plus
/// the live edge list) — identical bytes imply an identical graph, so a
/// hit is always sound. The cheap isomorphism-invariant fingerprint
/// (vertex/edge label multisets + degree sequence) is used as the hash, so
/// the many isomorphic-but-differently-numbered variants of one pattern
/// land in the same bucket and probe cheaply. `g` must be dense
/// (tombstone-free), as all miner pattern graphs are.
///
/// The first miss of a key inserts a pending entry and computes the code;
/// a thread that misses the same key meanwhile waits for that code and
/// counts a hit. Between clears each distinct graph is therefore coded,
/// and counted as a miss, exactly once, whatever the thread schedule.
std::string CanonicalCodeCached(const graph::LabeledGraph& g);

/// Drops every cached canonical code (all shards). Never required for
/// correctness — codes are immutable facts about graphs — but used by
/// benchmarks to time cold runs, and by long-lived processes to bound
/// memory. Shards also self-clear when they exceed a fixed entry budget;
/// which keys such a clear drops depends on the order of the misses, so
/// past it the hit and miss counts can depend on the schedule again.
void ClearCanonicalCodeCache();

/// Cache effectiveness counters (process-wide, monotonically increasing
/// except across ClearCanonicalCodeCache, which resets them).
struct CanonicalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
CanonicalCacheStats GetCanonicalCacheStats();

/// Fast isomorphism-invariant 64-bit hash: equal for isomorphic graphs,
/// usually different otherwise. Use for pre-bucketing before the exact
/// CanonicalCode comparison.
std::uint64_t InvariantHash(const graph::LabeledGraph& g);

}  // namespace tnmine::iso

#endif  // TNMINE_ISO_CANONICAL_H_
