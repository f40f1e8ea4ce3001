#ifndef TNMINE_CORE_MINER_H_
#define TNMINE_CORE_MINER_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/od_graph.h"
#include "graph/labeled_graph.h"
#include "partition/split_graph.h"
#include "partition/temporal.h"
#include "pattern/pattern.h"

namespace tnmine::core {

/// Which transaction-set miner drives a pipeline.
enum class MinerKind {
  kFsg,
  kGspan,
};

/// Options for Section 5's structural-similarity pipeline: Algorithm 1
/// (repeat: SplitGraph, mine, union the results).
struct StructuralMiningOptions {
  partition::SplitStrategy strategy = partition::SplitStrategy::kBreadthFirst;
  /// k — the number of graph transactions to partition into.
  std::size_t num_partitions = 400;
  /// m — how many independent partitionings to union (Algorithm 1;
  /// "running multiple times decreases the number of false drops").
  std::size_t repetitions = 1;
  /// s — minimum occurrences across the partition transactions.
  std::size_t min_support = 120;
  std::size_t max_pattern_edges = 4;
  MinerKind miner = MinerKind::kFsg;
  std::uint64_t seed = 1;
  /// Lanes shared between the repetition level and the miner beneath it:
  /// independent (SplitGraph, mine) repetitions run concurrently, and
  /// whatever lanes repetitions leave idle the per-call miners use (a
  /// nested parallel call from a busy pool runs inline). Results are
  /// identical for any value: each repetition derives its partitioning
  /// from seed + rep alone, and the union is merged in repetition order.
  common::Parallelism parallelism;
  /// Resource governance for the whole pipeline. The tick allotment is
  /// Slice()d across repetitions; within a repetition the split phase
  /// spends its (deterministic) cost first and the miner receives the
  /// exact remainder — so tick-truncated unions are byte-identical at any
  /// thread count. Default: inert (unbounded).
  common::ResourceBudget budget;
};

struct StructuralMiningResult {
  pattern::PatternRegistry registry;
  /// Partitions produced per repetition.
  std::vector<std::size_t> partitions_per_repetition;
  /// Frequent patterns found per repetition (before the union).
  std::vector<std::size_t> patterns_per_repetition;
  /// Combined outcome over every repetition's split + mine (severity
  /// max). Anything but kComplete means the union is a valid partial
  /// result: patterns present are genuinely frequent in the repetitions
  /// that produced them.
  common::MiningOutcome outcome = common::MiningOutcome::kComplete;
  /// Work ticks spent across all repetitions (deterministic).
  std::uint64_t work_ticks = 0;
};

/// Algorithm 1: for i in 1..m, SplitGraph(G, k) and mine frequent
/// subgraphs at support s; the union over repetitions is returned.
/// Vertex labels of `g` should be uniform for pure structural similarity
/// (use data::VertexLabeling::kUniform when building the OD graph).
StructuralMiningResult MineStructuralPatterns(
    const graph::LabeledGraph& g, const StructuralMiningOptions& options);

/// Options for Section 6's temporally-repeated-routes pipeline.
struct TemporalMiningOptions {
  partition::TemporalOptions partition;
  /// Support as a fraction of the temporal graph transactions (the paper
  /// used 5 %).
  double min_support_fraction = 0.05;
  std::size_t max_pattern_edges = 4;
  MinerKind miner = MinerKind::kFsg;
  /// Forwarded to the underlying miner (see FsgOptions / GspanOptions).
  common::Parallelism parallelism;
  /// Resource governance: the day partitioner spends its (deterministic)
  /// tick cost first, the miner receives the exact remainder. Default:
  /// inert (unbounded).
  common::ResourceBudget budget;
};

struct TemporalMiningResult {
  pattern::PatternRegistry registry;
  partition::TemporalPartition partition;
  partition::TemporalStats stats;
  std::size_t absolute_min_support = 0;
  /// Combined partition + mining outcome (severity max).
  common::MiningOutcome outcome = common::MiningOutcome::kComplete;
  std::uint64_t work_ticks = 0;
};

/// Partitions the dated transactions into per-day graph transactions and
/// mines patterns that repeat across days at the same locations.
TemporalMiningResult MineTemporalPatterns(
    const data::TransactionDataset& dataset,
    const TemporalMiningOptions& options);

}  // namespace tnmine::core

#endif  // TNMINE_CORE_MINER_H_
