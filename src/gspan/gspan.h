#ifndef TNMINE_GSPAN_GSPAN_H_
#define TNMINE_GSPAN_GSPAN_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/thread_pool.h"
#include "graph/labeled_graph.h"
#include "graph/transaction_source.h"
#include "pattern/pattern.h"

namespace tnmine::gspan {

/// Options for the pattern-growth miner.
struct GspanOptions {
  /// Minimum number of supporting transactions (absolute count).
  ///
  /// Degenerate-value contract (shared verbatim with FsgOptions, and
  /// cross-checked by tools/scenario_fuzz): 0 is accepted and means the
  /// same as 1 — mine every pattern that occurs at all. Support counting
  /// only ever visits patterns with at least one occurrence, so "at least
  /// zero supporting transactions" and "at least one" denote the same
  /// pattern set; clamping 0 to 1 inside the miner makes the two miners
  /// agree at both degenerate values by construction.
  std::size_t min_support = 2;
  /// Stop growing patterns past this many edges (0 = unlimited).
  std::size_t max_edges = 0;
  /// Lanes for mining the frequent 1-edge seed subtrees concurrently.
  /// Any value yields byte-identical results (see MineGspan).
  common::Parallelism parallelism;
  /// Resource governance. The tick allotment is Slice()d across seed
  /// subtrees before the parallel fan-out, so a tick-truncated run is
  /// byte-identical at any thread count; deadline/memory/cancel cutoffs
  /// are honored but scheduling-dependent. Default: inert (unbounded).
  common::ResourceBudget budget;
};

struct GspanResult {
  std::vector<pattern::FrequentPattern> patterns;
  /// Distinct pattern isomorphism classes visited during growth.
  std::size_t patterns_explored = 0;
  /// Largest pattern size (edges) reached.
  std::size_t max_level = 0;
  /// How the run ended. Anything but kComplete means `patterns` is the
  /// best partial result found before the budget/cancel cutoff: every
  /// pattern listed is genuinely frequent, but deeper extensions may be
  /// missing. Seed patterns are always recorded, so a truncated run on a
  /// non-trivial input is never empty.
  common::MiningOutcome outcome = common::MiningOutcome::kComplete;
  /// Work ticks spent (summed over seed subtrees; deterministic).
  std::uint64_t work_ticks = 0;
};

/// gSpan pattern-growth mining (Yan & Han, ICDM 2002 — the "modern"
/// baseline the paper cites as [23]) over directed labeled multigraph
/// transactions.
///
/// Patterns are DFS codes (dfs_code.h) grown one edge at a time, depth
/// first, and only along the rightmost path. A child whose code is not
/// its graph's minimal DFS code is pruned with its whole subtree, so
/// every pattern class is visited exactly once: at its minimal code,
/// whose prefixes are all minimal and all frequent. Each pattern keeps
/// its projected database — every embedding per transaction, stored as a
/// 12-byte link to the parent embedding it extends — so support counting
/// and extension enumeration never re-run subgraph isomorphism (the
/// decisive difference from FSG's Apriori candidate generation).
/// Embeddings are exact, never capped: the memory ceiling in `budget` is
/// the one bound on their bytes, and hitting it is reported as
/// kMemoryBudgetExceeded.
///
/// Produces exactly the connected frequent patterns FSG produces on the
/// same input, with the same supports and TID sets (a property the test
/// suite and tools/scenario_fuzz cross-check). Each emitted pattern's
/// graph is its minimal DFS code's graph (vertex ids are DFS positions)
/// and its `code` is the library's canonical code of that graph.
///
/// Parallel execution: each frequent minimal first entry (one edge type
/// in its smaller orientation) seeds a growth subtree mined on its own
/// pool lane. A pattern's minimal code starts with exactly one such
/// entry, so the subtrees are disjoint, and the result is their outputs
/// concatenated in seed order, each in DFS preorder — byte-identical at
/// any thread count.
GspanResult MineGspan(const std::vector<graph::LabeledGraph>& transactions,
                      const GspanOptions& options);

/// Same miner over a TransactionSource — the out-of-core entry point
/// (DESIGN.md §16). The seed scan walks the source one shard at a time
/// and every seed subtree reads its projected database's transactions
/// through its own Reader, so at most a bounded set of shards is
/// resident per lane. Output is byte-identical to the in-memory overload
/// for the same transaction sequence, at any shard cut and any thread
/// count.
GspanResult MineGspan(graph::TransactionSource& source,
                      const GspanOptions& options);

}  // namespace tnmine::gspan

#endif  // TNMINE_GSPAN_GSPAN_H_
