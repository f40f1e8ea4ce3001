#ifndef TNMINE_FSG_FSG_H_
#define TNMINE_FSG_FSG_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/thread_pool.h"
#include "graph/labeled_graph.h"
#include "graph/transaction_source.h"
#include "pattern/pattern.h"

namespace tnmine::fsg {

/// Options for the FSG miner.
struct FsgOptions {
  /// Minimum number of supporting transactions (absolute count).
  ///
  /// Degenerate-value contract (shared verbatim with GspanOptions, and
  /// cross-checked by tools/scenario_fuzz): 0 is accepted and means the
  /// same as 1 — mine every pattern that occurs at all. Support counting
  /// only ever visits patterns with at least one occurrence, so "at least
  /// zero supporting transactions" and "at least one" denote the same
  /// pattern set; clamping 0 to 1 inside the miner makes the two miners
  /// agree at both degenerate values by construction.
  std::size_t min_support = 2;
  /// Stop after patterns of this many edges (0 = unlimited).
  std::size_t max_edges = 0;
  /// Per-containment-check VF2 step budget (0 = unlimited); a safety valve
  /// for pathological transactions. A check that exhausts it leaves the
  /// candidate's support unknown, so the candidate ends as a work-allotment
  /// stop (kDeadlineExceeded) and its level is truncated, never
  /// under-counted.
  std::uint64_t max_match_steps = 2'000'000;
  /// Lanes for candidate support counting — candidates are counted in
  /// groups by generating parent, and each group's checks are independent
  /// of every other group's. Any value yields identical results:
  /// candidates are settled and emitted in sorted canonical-code order.
  common::Parallelism parallelism;
  /// Resource governance. Tick accounting is kept deterministic across
  /// thread counts by metering the sequential phases directly and, for
  /// the parallel support-counting phase, charging each candidate's
  /// (scheduling-independent) check count in sorted-candidate order after
  /// the parallel map — see MineFsg. The memory ceiling bounds the
  /// estimated bytes FSG retains between levels plus the level's
  /// candidate set; the candidate that would cross it ends the run as
  /// kMemoryBudgetExceeded, which reproduces the out-of-memory failures
  /// the paper hit on its 1 GB Sparc (Sections 6.1 and 8). Default: inert
  /// (unbounded).
  common::ResourceBudget budget;
};

/// Mining outcome with level-wise diagnostics.
struct FsgResult {
  std::vector<pattern::FrequentPattern> patterns;
  /// Number of completed levels (max pattern size reached, in edges).
  std::size_t levels_completed = 0;
  /// Candidates generated per level (index 0 = 1-edge patterns; for level
  /// 0 this counts distinct edge types observed).
  std::vector<std::size_t> candidates_per_level;
  /// Frequent patterns surviving per level.
  std::vector<std::size_t> frequent_per_level;
  /// Peak estimated footprint in bytes: the retained level-1 index,
  /// frontier and previous level's sets plus a level's candidate set.
  std::uint64_t peak_candidate_bytes = 0;
  /// How the run ended. Anything but kComplete means `patterns` holds the
  /// completed levels (plus any prefix of the truncated level's sorted
  /// candidates that was fully counted before the cutoff) — every pattern
  /// listed is genuinely frequent.
  common::MiningOutcome outcome = common::MiningOutcome::kComplete;
  /// Work ticks spent (deterministic for tick-budgeted runs).
  std::uint64_t work_ticks = 0;
};

/// FSG (Kuramochi & Karypis, ICDM 2001), reimplemented for directed
/// labeled graphs: Apriori-style level-wise search for all connected
/// subgraphs contained in at least `min_support` of the given graph
/// transactions.
///
/// Level 1 enumerates frequent single-edge patterns. Level k+1 candidates
/// are generated by extending each frequent k-edge pattern with one
/// frequent edge type (to a new vertex or between existing vertices),
/// deduplicated by canonical code, pruned by the downward-closure check
/// (every connected (k)-edge sub-pattern must itself be frequent), and
/// support-counted by subgraph-isomorphism against the transactions in
/// the generating parent's TID list: each check first extends one stored
/// occurrence of the parent by the added edge and runs VF2 only when
/// that fails (DESIGN.md §12, "Witness-first counting").
///
/// Transactions may be multigraphs; a pattern with parallel edges requires
/// matching parallel edges in a transaction. Transactions must be dense
/// (Compact() them first if they carry tombstones).
FsgResult MineFsg(const std::vector<graph::LabeledGraph>& transactions,
                  const FsgOptions& options);

/// Same miner over a TransactionSource — the out-of-core entry point
/// (DESIGN.md §16). Level 1 reads the shards in ascending order, twice
/// (edge types, then wedges), appending global tids; support counting
/// reads transactions through per-lane Readers, so at most a bounded set
/// of shards is resident at any moment. Output is
/// byte-identical to the in-memory overload for the same transaction
/// sequence, at any shard cut and any thread count.
FsgResult MineFsg(graph::TransactionSource& source, const FsgOptions& options);

}  // namespace tnmine::fsg

#endif  // TNMINE_FSG_FSG_H_
