#include "core/miner.h"

#include <algorithm>

#include "common/check.h"
#include "common/trace.h"
#include "fsg/fsg.h"
#include "gspan/gspan.h"

namespace tnmine::core {

namespace {

/// Runs the selected miner over a transaction set and returns the
/// frequent patterns; `outcome`/`ticks` receive the miner's MiningOutcome
/// and tick spend.
std::vector<pattern::FrequentPattern> RunMiner(
    const std::vector<graph::LabeledGraph>& transactions, MinerKind miner,
    std::size_t min_support, std::size_t max_edges,
    common::Parallelism parallelism, const common::ResourceBudget& budget,
    common::MiningOutcome* outcome, std::uint64_t* ticks) {
  if (miner == MinerKind::kFsg) {
    fsg::FsgOptions options;
    options.min_support = min_support;
    options.max_edges = max_edges;
    options.parallelism = parallelism;
    options.budget = budget;
    fsg::FsgResult result = fsg::MineFsg(transactions, options);
    *outcome = result.outcome;
    *ticks = result.work_ticks;
    return std::move(result.patterns);
  }
  gspan::GspanOptions options;
  options.min_support = min_support;
  options.max_edges = max_edges;
  options.parallelism = parallelism;
  options.budget = budget;
  gspan::GspanResult result = gspan::MineGspan(transactions, options);
  *outcome = result.outcome;
  *ticks = result.work_ticks;
  return std::move(result.patterns);
}

/// A tick-allotment sibling holding `parent`'s allotment minus what an
/// earlier (deterministic) phase already spent.
common::ResourceBudget RemainderBudget(const common::ResourceBudget& parent,
                                       std::uint64_t spent) {
  if (!parent.ticks_limited()) return parent;
  const std::uint64_t total = parent.tick_allotment();
  return parent.WithTicks(total > spent ? total - spent : 0);
}

}  // namespace

StructuralMiningResult MineStructuralPatterns(
    const graph::LabeledGraph& g, const StructuralMiningOptions& options) {
  TNMINE_TRACE_SPAN("core/structural_mine");
  TNMINE_CHECK(options.repetitions >= 1);
  // min_support = 0 is forwarded as-is: both miners clamp it to 1 (see
  // GspanOptions / FsgOptions for the shared degenerate-value contract).
  StructuralMiningResult result;
  // Each repetition is an independent (SplitGraph, mine) run seeded by
  // seed + rep; run them on parallel lanes and merge in rep order so the
  // union registry is filled deterministically.
  struct RepOutcome {
    std::size_t partitions = 0;
    std::vector<pattern::FrequentPattern> found;
    common::MiningOutcome outcome = common::MiningOutcome::kComplete;
    std::uint64_t ticks = 0;
  };
  std::vector<RepOutcome> outcomes = common::ParallelMap<RepOutcome>(
      options.parallelism, options.repetitions, [&](std::size_t rep) {
        // Each repetition spends its own deterministic Slice: the split
        // phase first, then the miner gets the exact remainder (the split
        // cost is a deterministic function of the graph and seed).
        const common::ResourceBudget rep_budget =
            options.budget.Slice(rep, options.repetitions);
        partition::SplitOptions split;
        split.strategy = options.strategy;
        split.num_partitions = options.num_partitions;
        split.seed = options.seed + rep;
        split.budget = rep_budget;
        partition::SplitResult split_result =
            partition::SplitGraphBudgeted(g, split);
        RepOutcome outcome;
        outcome.partitions = split_result.partitions.size();
        outcome.outcome = split_result.outcome;
        outcome.ticks = split_result.work_ticks;
        if (split_result.outcome != common::MiningOutcome::kComplete) {
          // An incomplete partitioning under-counts supports; mining it
          // would report unsound pattern supports, so this repetition
          // contributes nothing to the union.
          return outcome;
        }
        common::MiningOutcome mine_outcome =
            common::MiningOutcome::kComplete;
        std::uint64_t mine_ticks = 0;
        outcome.found =
            RunMiner(split_result.partitions, options.miner,
                     options.min_support, options.max_pattern_edges,
                     options.parallelism,
                     RemainderBudget(rep_budget, split_result.work_ticks),
                     &mine_outcome, &mine_ticks);
        outcome.outcome =
            common::CombineOutcomes(outcome.outcome, mine_outcome);
        outcome.ticks += mine_ticks;
        return outcome;
      });
  for (RepOutcome& outcome : outcomes) {
    result.partitions_per_repetition.push_back(outcome.partitions);
    result.patterns_per_repetition.push_back(outcome.found.size());
    result.outcome = common::CombineOutcomes(result.outcome, outcome.outcome);
    result.work_ticks += outcome.ticks;
    for (pattern::FrequentPattern& p : outcome.found) {
      // Across repetitions tids refer to different partitionings; keep
      // the max support, not the tid union.
      p.tids.Clear();
      result.registry.InsertOrMerge(std::move(p));
    }
  }
  common::RecordOutcome("core", result.outcome);
  return result;
}

TemporalMiningResult MineTemporalPatterns(
    const data::TransactionDataset& dataset,
    const TemporalMiningOptions& options) {
  TNMINE_TRACE_SPAN("core/temporal_mine");
  TemporalMiningResult result;
  partition::TemporalOptions part_options = options.partition;
  part_options.budget = options.budget;
  result.partition = partition::PartitionByActiveDay(dataset, part_options);
  result.outcome = result.partition.outcome;
  result.work_ticks = result.partition.work_ticks;
  result.stats = partition::ComputeTemporalStats(
      result.partition.transactions);
  if (result.partition.transactions.empty() ||
      result.partition.outcome != common::MiningOutcome::kComplete) {
    // Mining a truncated day set would report supports against a
    // different (smaller) transaction population than requested.
    common::RecordOutcome("core", result.outcome);
    return result;
  }
  result.absolute_min_support = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             options.min_support_fraction *
             static_cast<double>(result.partition.transactions.size())));
  common::MiningOutcome mine_outcome = common::MiningOutcome::kComplete;
  std::uint64_t mine_ticks = 0;
  std::vector<pattern::FrequentPattern> found = RunMiner(
      result.partition.transactions, options.miner,
      result.absolute_min_support, options.max_pattern_edges,
      options.parallelism,
      RemainderBudget(options.budget, result.partition.work_ticks),
      &mine_outcome, &mine_ticks);
  result.outcome = common::CombineOutcomes(result.outcome, mine_outcome);
  result.work_ticks += mine_ticks;
  for (pattern::FrequentPattern& p : found) {
    result.registry.InsertOrMerge(std::move(p), /*merge_tids=*/true);
  }
  common::RecordOutcome("core", result.outcome);
  return result;
}

}  // namespace tnmine::core
