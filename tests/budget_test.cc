// Resource-governance tests: the tick dimension of a ResourceBudget is
// deterministic by construction (allotments are Slice()d before the
// parallel fan-out), so the same tick budget must produce byte-identical
// partial results at any thread count, and a truncated run must carry an
// honest non-complete outcome alongside valid partial patterns.

#include "common/budget.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/miner.h"
#include "fsg/fsg.h"
#include "graph/labeled_graph.h"
#include "gspan/dfs_code.h"
#include "gspan/gspan.h"
#include "iso/canonical.h"
#include "partition/split_graph.h"
#include "pattern/pattern.h"
#include "pattern/tid_set.h"

namespace tnmine::common {
namespace {

using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

std::vector<LabeledGraph> RandomTransactions(std::uint64_t seed,
                                             std::size_t count,
                                             std::size_t vertices,
                                             std::size_t edges, int vlabels,
                                             int elabels) {
  Rng rng(seed);
  std::vector<LabeledGraph> txns;
  for (std::size_t t = 0; t < count; ++t) {
    LabeledGraph g;
    for (std::size_t i = 0; i < vertices; ++i) {
      g.AddVertex(static_cast<Label>(rng.NextBounded(vlabels)));
    }
    for (std::size_t i = 0; i < edges; ++i) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(vertices)),
                static_cast<VertexId>(rng.NextBounded(vertices)),
                static_cast<Label>(rng.NextBounded(elabels)));
    }
    txns.push_back(std::move(g));
  }
  return txns;
}

/// Byte-exact fingerprint of a pattern list: canonical code + support +
/// tids, in result order. Two runs that truncated identically produce
/// identical fingerprints.
std::string Fingerprint(const std::vector<pattern::FrequentPattern>& ps) {
  std::string out;
  for (const pattern::FrequentPattern& p : ps) {
    out += iso::CanonicalCode(p.graph);
    out += '#';
    out += std::to_string(p.support);
    for (std::uint32_t tid : p.tids) {
      out += ',';
      out += std::to_string(tid);
    }
    out += '\n';
  }
  return out;
}

TEST(BudgetTest, CombineOutcomesTakesSeverityMax) {
  EXPECT_EQ(CombineOutcomes(MiningOutcome::kComplete,
                            MiningOutcome::kDeadlineExceeded),
            MiningOutcome::kDeadlineExceeded);
  EXPECT_EQ(CombineOutcomes(MiningOutcome::kCancelled,
                            MiningOutcome::kMemoryBudgetExceeded),
            MiningOutcome::kCancelled);
  EXPECT_EQ(CombineOutcomes(MiningOutcome::kComplete,
                            MiningOutcome::kComplete),
            MiningOutcome::kComplete);
}

TEST(BudgetTest, SlicePartitionsTheAllotmentExactly) {
  BudgetLimits limits;
  limits.max_work_ticks = 10;
  const ResourceBudget budget(limits);
  std::uint64_t total = 0;
  for (std::size_t unit = 0; unit < 3; ++unit) {
    total += budget.Slice(unit, 3).tick_allotment();
  }
  EXPECT_EQ(total, 10u);
  // Remainder ticks go to the lowest-index units.
  EXPECT_EQ(budget.Slice(0, 3).tick_allotment(), 4u);
  EXPECT_EQ(budget.Slice(2, 3).tick_allotment(), 3u);
}

TEST(BudgetTest, MeterStopsAtTheAllotment) {
  BudgetLimits limits;
  limits.max_work_ticks = 5;
  BudgetMeter meter{ResourceBudget(limits)};
  EXPECT_EQ(meter.Charge(3), MiningOutcome::kComplete);
  EXPECT_EQ(meter.Charge(2), MiningOutcome::kComplete);
  EXPECT_EQ(meter.Charge(1), MiningOutcome::kDeadlineExceeded);
  // Sticky once stopped.
  EXPECT_EQ(meter.Charge(1), MiningOutcome::kDeadlineExceeded);
}

TEST(BudgetTest, AccountingOnlyBudgetNeverStops) {
  BudgetMeter meter{ResourceBudget(BudgetLimits{})};
  EXPECT_EQ(meter.Charge(1u << 20), MiningOutcome::kComplete);
  EXPECT_EQ(meter.ticks_spent(), 1u << 20);
}

TEST(BudgetTest, MemoryCeilingTripsAndReleases) {
  BudgetLimits limits;
  limits.max_memory_bytes = 100;
  const ResourceBudget budget(limits);
  EXPECT_TRUE(budget.TryChargeMemory(60));
  EXPECT_FALSE(budget.TryChargeMemory(60));  // would exceed: rejected
  EXPECT_EQ(budget.StopReason(), MiningOutcome::kMemoryBudgetExceeded);
  budget.ReleaseMemory(60);
  EXPECT_EQ(budget.memory_charged(), 0u);
  // The trip is sticky: a budget that overflowed stays stopped.
  EXPECT_EQ(budget.StopReason(), MiningOutcome::kMemoryBudgetExceeded);
}

TEST(BudgetTest, UnconditionalChargeNeverRefusesButCounts) {
  BudgetLimits limits;
  limits.max_memory_bytes = 100;
  const ResourceBudget budget(limits);
  budget.ChargeMemory(150);  // held bytes: counted, never refused
  EXPECT_EQ(budget.memory_charged(), 150u);
  EXPECT_EQ(budget.StopReason(), MiningOutcome::kComplete);
  EXPECT_FALSE(budget.TryChargeMemoryNoTrip(1));
  EXPECT_EQ(budget.StopReason(), MiningOutcome::kComplete);
  EXPECT_FALSE(budget.TryChargeMemory(1));  // the next charge trips
  EXPECT_EQ(budget.StopReason(), MiningOutcome::kMemoryBudgetExceeded);
  budget.ReleaseMemory(150);
  EXPECT_EQ(budget.memory_charged(), 0u);
}

TEST(BudgetTest, CancelTokenWinsOverEverything) {
  auto cancel = std::make_shared<CancelToken>();
  BudgetLimits limits;
  limits.max_work_ticks = 1;
  const ResourceBudget budget(limits, cancel);
  cancel->RequestCancel();
  EXPECT_EQ(budget.StopReason(), MiningOutcome::kCancelled);
}

// --- gSpan under a tick budget -------------------------------------------

struct GspanRun {
  gspan::GspanResult result;
  std::string fingerprint;
};

GspanRun RunGspan(const std::vector<LabeledGraph>& txns,
                  std::uint64_t max_ticks, std::size_t threads,
                  std::shared_ptr<CancelToken> cancel = nullptr) {
  gspan::GspanOptions options;
  options.min_support = 2;
  options.max_edges = 4;
  options.parallelism = Parallelism{threads};
  BudgetLimits limits;
  limits.max_work_ticks = max_ticks;
  options.budget = ResourceBudget(limits, std::move(cancel));
  GspanRun run;
  run.result = gspan::MineGspan(txns, options);
  run.fingerprint = Fingerprint(run.result.patterns);
  return run;
}

TEST(BudgetTest, GspanHalfTickBudgetTruncatesDeterministically) {
  const auto txns = RandomTransactions(11, 24, 8, 14, 2, 2);

  // Measure the unbounded tick cost with an accounting-only budget.
  const GspanRun unbounded = RunGspan(txns, 0, 1);
  ASSERT_EQ(unbounded.result.outcome, MiningOutcome::kComplete);
  ASSERT_GT(unbounded.result.work_ticks, 100u);

  // Roughly half the budget: truncated but non-empty.
  const std::uint64_t half = unbounded.result.work_ticks / 2;
  const GspanRun t1 = RunGspan(txns, half, 1);
  EXPECT_EQ(t1.result.outcome, MiningOutcome::kDeadlineExceeded);
  EXPECT_FALSE(t1.result.patterns.empty());
  EXPECT_LT(t1.result.patterns.size(), unbounded.result.patterns.size());

  // Byte-identical partial output at 2 and 4 threads.
  const GspanRun t2 = RunGspan(txns, half, 2);
  const GspanRun t4 = RunGspan(txns, half, 4);
  EXPECT_EQ(t1.fingerprint, t2.fingerprint);
  EXPECT_EQ(t1.fingerprint, t4.fingerprint);
  EXPECT_EQ(t2.result.outcome, MiningOutcome::kDeadlineExceeded);
  EXPECT_EQ(t4.result.outcome, MiningOutcome::kDeadlineExceeded);

  // Tick accounting itself is thread-count independent.
  EXPECT_EQ(t1.result.work_ticks, t2.result.work_ticks);
  EXPECT_EQ(t1.result.work_ticks, t4.result.work_ticks);
}

TEST(BudgetTest, GspanCancelledNeverReportsComplete) {
  const auto txns = RandomTransactions(3, 12, 6, 10, 2, 2);
  auto cancel = std::make_shared<CancelToken>();
  cancel->RequestCancel();
  const GspanRun run = RunGspan(txns, 0, 2, cancel);
  EXPECT_EQ(run.result.outcome, MiningOutcome::kCancelled);
}

// --- FSG under a tick budget ---------------------------------------------

struct FsgRun {
  fsg::FsgResult result;
  std::string fingerprint;
};

FsgRun RunFsg(const std::vector<LabeledGraph>& txns, std::uint64_t max_ticks,
              std::size_t threads) {
  fsg::FsgOptions options;
  options.min_support = 2;
  options.max_edges = 4;
  options.parallelism = Parallelism{threads};
  BudgetLimits limits;
  limits.max_work_ticks = max_ticks;
  options.budget = ResourceBudget(limits);
  FsgRun run;
  run.result = fsg::MineFsg(txns, options);
  run.fingerprint = Fingerprint(run.result.patterns);
  return run;
}

TEST(BudgetTest, FsgHalfTickBudgetTruncatesDeterministically) {
  const auto txns = RandomTransactions(17, 24, 8, 14, 2, 2);

  const FsgRun unbounded = RunFsg(txns, 0, 1);
  ASSERT_EQ(unbounded.result.outcome, MiningOutcome::kComplete);
  ASSERT_GT(unbounded.result.work_ticks, 100u);

  const std::uint64_t half = unbounded.result.work_ticks / 2;
  const FsgRun t1 = RunFsg(txns, half, 1);
  EXPECT_EQ(t1.result.outcome, MiningOutcome::kDeadlineExceeded);
  EXPECT_FALSE(t1.result.patterns.empty());

  const FsgRun t2 = RunFsg(txns, half, 2);
  const FsgRun t4 = RunFsg(txns, half, 4);
  EXPECT_EQ(t1.fingerprint, t2.fingerprint);
  EXPECT_EQ(t1.fingerprint, t4.fingerprint);
  EXPECT_EQ(t1.result.work_ticks, t2.result.work_ticks);
  EXPECT_EQ(t1.result.work_ticks, t4.result.work_ticks);

  // The TID-set encoding must not shift the truncation point either: the
  // same tick budget mines the same pattern prefix whether every set is
  // forced sparse or forced bitmap (DESIGN.md §12).
  {
    const pattern::TidSet::ScopedEncodingPolicy force_sparse(
        pattern::TidSet::EncodingPolicy::kForceSparse);
    const FsgRun sparse = RunFsg(txns, half, 2);
    EXPECT_EQ(sparse.fingerprint, t1.fingerprint);
    EXPECT_EQ(sparse.result.work_ticks, t1.result.work_ticks);
  }
  {
    const pattern::TidSet::ScopedEncodingPolicy force_bitmap(
        pattern::TidSet::EncodingPolicy::kForceBitmap);
    const FsgRun bitmap = RunFsg(txns, half, 4);
    EXPECT_EQ(bitmap.fingerprint, t1.fingerprint);
    EXPECT_EQ(bitmap.result.work_ticks, t1.result.work_ticks);
  }
}

TEST(BudgetTest, TruncatedFsgOutputIsAPrefixOfTheUnbudgetedRun) {
  // The truncation-shape oracle (DESIGN.md §13, cross-checked at scale by
  // tools/scenario_fuzz --oracle budget_prefix): FSG appends patterns
  // level by level, each level in sorted canonical-code order, and the
  // tick ledger settles candidates in that same order — so whatever the
  // cut point, the truncated pattern list is an exact prefix (codes,
  // supports, and tid sets) of the unbudgeted list.
  const auto txns = RandomTransactions(17, 24, 8, 14, 2, 2);
  const FsgRun full = RunFsg(txns, 0, 1);
  ASSERT_EQ(full.result.outcome, MiningOutcome::kComplete);
  ASSERT_GT(full.result.work_ticks, 100u);
  for (const std::uint64_t denominator : {8u, 4u, 2u, 1u}) {
    const std::uint64_t allotment = full.result.work_ticks / denominator;
    const FsgRun cut = RunFsg(txns, allotment, 1);
    EXPECT_LE(cut.fingerprint.size(), full.fingerprint.size());
    EXPECT_EQ(full.fingerprint.compare(0, cut.fingerprint.size(),
                                       cut.fingerprint),
              0)
        << "allotment " << allotment << " of " << full.result.work_ticks;
    if (cut.result.outcome == MiningOutcome::kComplete) {
      EXPECT_EQ(cut.fingerprint, full.fingerprint);
    }
  }
}

TEST(BudgetTest, TruncatedGspanOutputKeepsAPrefixOfEachSeedSubtree) {
  // gSpan's counterpart: the allotment is Slice()d across seed subtrees,
  // which are disjoint and each mined depth-first, so a truncated run
  // keeps a prefix of every seed's patterns, with identical support and
  // tid sets (DESIGN.md §13). Across seeds it is not a prefix of the
  // full emission order: each subtree stops at its own slice.
  const auto txns = RandomTransactions(11, 24, 8, 14, 2, 2);
  const GspanRun full = RunGspan(txns, 0, 1);
  ASSERT_EQ(full.result.outcome, MiningOutcome::kComplete);
  ASSERT_GT(full.result.work_ticks, 100u);
  // Seed of a pattern: the first entry of its minimal DFS code.
  const auto seed_blocks =
      [](const std::vector<pattern::FrequentPattern>& patterns) {
        std::map<gspan::DfsEdge, std::string> blocks;
        for (const pattern::FrequentPattern& p : patterns) {
          blocks[gspan::MinimalDfsCode(p.graph).edges().front()] +=
              Fingerprint({p});
        }
        return blocks;
      };
  const auto reference = seed_blocks(full.result.patterns);
  for (const std::uint64_t denominator : {8u, 4u, 2u}) {
    const GspanRun cut =
        RunGspan(txns, full.result.work_ticks / denominator, 1);
    EXPECT_LE(cut.result.patterns.size(), full.result.patterns.size());
    for (const auto& [seed, block] : seed_blocks(cut.result.patterns)) {
      const auto it = reference.find(seed);
      ASSERT_NE(it, reference.end()) << block;
      EXPECT_EQ(it->second.compare(0, block.size(), block), 0)
          << "truncated:\n" << block << "full:\n" << it->second;
    }
  }
}

// --- Algorithm-1 driver under a tick budget ------------------------------

std::string RegistryFingerprint(const pattern::PatternRegistry& registry) {
  std::string out;
  for (const pattern::FrequentPattern* p : registry.SortedBySupport()) {
    out += iso::CanonicalCode(p->graph);
    out += '#';
    out += std::to_string(p->support);
    out += '\n';
  }
  return out;
}

TEST(BudgetTest, StructuralDriverTruncatesIdenticallyAcrossThreads) {
  // A dense random OD-style graph, partitioned and mined by Algorithm 1.
  Rng rng(5);
  LabeledGraph g;
  for (int i = 0; i < 40; ++i) g.AddVertex(0);
  for (int i = 0; i < 220; ++i) {
    g.AddEdge(static_cast<VertexId>(rng.NextBounded(40)),
              static_cast<VertexId>(rng.NextBounded(40)),
              static_cast<Label>(rng.NextBounded(3)));
  }

  auto run = [&](std::uint64_t max_ticks, std::size_t threads) {
    core::StructuralMiningOptions options;
    options.num_partitions = 8;
    options.repetitions = 3;
    options.min_support = 2;
    options.max_pattern_edges = 3;
    options.miner = core::MinerKind::kGspan;
    options.parallelism = Parallelism{threads};
    BudgetLimits limits;
    limits.max_work_ticks = max_ticks;
    options.budget = ResourceBudget(limits);
    return core::MineStructuralPatterns(g, options);
  };

  const auto unbounded = run(0, 1);
  ASSERT_EQ(unbounded.outcome, MiningOutcome::kComplete);
  ASSERT_GT(unbounded.work_ticks, 100u);

  const std::uint64_t half = unbounded.work_ticks / 2;
  const auto t1 = run(half, 1);
  EXPECT_EQ(t1.outcome, MiningOutcome::kDeadlineExceeded);
  const auto t2 = run(half, 2);
  const auto t4 = run(half, 4);
  EXPECT_EQ(RegistryFingerprint(t1.registry), RegistryFingerprint(t2.registry));
  EXPECT_EQ(RegistryFingerprint(t1.registry), RegistryFingerprint(t4.registry));
  EXPECT_EQ(t1.work_ticks, t2.work_ticks);
  EXPECT_EQ(t1.work_ticks, t4.work_ticks);
  EXPECT_EQ(t2.outcome, MiningOutcome::kDeadlineExceeded);
  EXPECT_EQ(t4.outcome, MiningOutcome::kDeadlineExceeded);
}

TEST(BudgetTest, SplitGraphKeepsConsumedEdgesOnTruncation) {
  Rng rng(9);
  LabeledGraph g;
  for (int i = 0; i < 20; ++i) g.AddVertex(0);
  for (int i = 0; i < 80; ++i) {
    g.AddEdge(static_cast<VertexId>(rng.NextBounded(20)),
              static_cast<VertexId>(rng.NextBounded(20)),
              static_cast<Label>(rng.NextBounded(2)));
  }
  partition::SplitOptions options;
  options.num_partitions = 4;
  BudgetLimits limits;
  limits.max_work_ticks = 30;  // well below the 80 edge moves needed
  options.budget = ResourceBudget(limits);
  const partition::SplitResult result =
      partition::SplitGraphBudgeted(g, options);
  EXPECT_EQ(result.outcome, MiningOutcome::kDeadlineExceeded);
  std::size_t assigned = 0;
  for (const LabeledGraph& part : result.partitions) {
    assigned += part.num_edges();
  }
  EXPECT_GT(assigned, 0u);
  EXPECT_LT(assigned, 80u);
}

}  // namespace
}  // namespace tnmine::common
