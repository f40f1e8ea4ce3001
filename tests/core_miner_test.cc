#include "core/miner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/budget.h"
#include "data/generator.h"
#include "synth/planted.h"

namespace tnmine::core {
namespace {

TEST(StructuralMiningTest, FindsPlantedPatternsWithDecentRecall) {
  // The footnote-2 experiment in miniature: plant patterns in a single
  // graph, partition + mine, expect >= 50 % recall.
  synth::PlantedOptions planted;
  planted.num_patterns = 5;
  planted.pattern_edges = 3;
  planted.instances_per_pattern = 40;
  planted.noise_vertices = 60;
  planted.noise_edges = 120;
  planted.num_edge_labels = 5;
  planted.seed = 11;
  const synth::PlantedResult data = synth::GeneratePlantedGraph(planted);

  for (auto strategy : {partition::SplitStrategy::kBreadthFirst,
                        partition::SplitStrategy::kDepthFirst}) {
    StructuralMiningOptions options;
    options.strategy = strategy;
    options.num_partitions = 40;
    options.repetitions = 3;
    options.min_support = 15;
    options.max_pattern_edges = 3;
    options.seed = 21;
    const StructuralMiningResult result =
        MineStructuralPatterns(data.graph, options);
    EXPECT_EQ(result.partitions_per_repetition.size(), 3u);
    EXPECT_FALSE(result.registry.empty());
    const double recall =
        synth::PatternRecall(data.patterns, result.registry);
    EXPECT_GE(recall, 0.5) << "strategy "
                           << static_cast<int>(strategy);
  }
}

TEST(StructuralMiningTest, RepetitionsOnlyAddPatterns) {
  synth::PlantedOptions planted;
  planted.seed = 13;
  const synth::PlantedResult data = synth::GeneratePlantedGraph(planted);
  StructuralMiningOptions one;
  one.num_partitions = 30;
  one.min_support = 10;
  one.max_pattern_edges = 2;
  one.repetitions = 1;
  StructuralMiningOptions three = one;
  three.repetitions = 3;
  const auto r1 = MineStructuralPatterns(data.graph, one);
  const auto r3 = MineStructuralPatterns(data.graph, three);
  EXPECT_GE(r3.registry.size(), r1.registry.size());
}

TEST(StructuralMiningTest, GspanBackendAgreesOnRegistryContents) {
  synth::PlantedOptions planted;
  planted.num_patterns = 3;
  planted.instances_per_pattern = 25;
  planted.seed = 17;
  const synth::PlantedResult data = synth::GeneratePlantedGraph(planted);
  StructuralMiningOptions options;
  options.num_partitions = 25;
  options.min_support = 8;
  options.max_pattern_edges = 3;
  options.repetitions = 1;
  options.miner = MinerKind::kFsg;
  const auto fsg_result = MineStructuralPatterns(data.graph, options);
  options.miner = MinerKind::kGspan;
  const auto gspan_result = MineStructuralPatterns(data.graph, options);
  // Same seed => same partitions => identical pattern sets.
  EXPECT_EQ(fsg_result.registry.size(), gspan_result.registry.size());
  for (const auto* p : fsg_result.registry.SortedBySupport()) {
    const auto* q = gspan_result.registry.Find(p->code);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(p->support, q->support);
  }
}

TEST(TemporalMiningTest, MinesRepeatedRoutesFromSyntheticData) {
  const auto ds =
      data::GenerateTransportData(data::GeneratorConfig::SmallScale());
  TemporalMiningOptions options;
  options.min_support_fraction = 0.05;
  options.max_pattern_edges = 3;
  const TemporalMiningResult result = MineTemporalPatterns(ds, options);
  EXPECT_GT(result.partition.transactions.size(), 0u);
  EXPECT_GE(result.absolute_min_support, 1u);
  EXPECT_FALSE(result.registry.empty());
  // Patterns carry tid lists that respect the support.
  for (const auto* p : result.registry.SortedBySupport()) {
    EXPECT_GE(p->support, result.absolute_min_support);
    EXPECT_EQ(p->support, p->tids.Cardinality());
  }
  // With location-unique vertex labels, patterns have distinct vertex
  // labels.
  const auto* top = result.registry.SortedBySupport().front();
  EXPECT_EQ(top->graph.CountDistinctVertexLabels(),
            top->graph.num_vertices());
}

TEST(TemporalMiningTest, MemoryCeilingEndsTheRunAsMemoryBudgetExceeded) {
  const auto ds =
      data::GenerateTransportData(data::GeneratorConfig::SmallScale());
  TemporalMiningOptions options;
  options.min_support_fraction = 0.05;
  options.max_pattern_edges = 3;
  const TemporalMiningResult full = MineTemporalPatterns(ds, options);
  ASSERT_EQ(full.outcome, common::MiningOutcome::kComplete);
  std::size_t max_edges = 0;
  for (const auto* p : full.registry.SortedBySupport()) {
    max_edges = std::max(max_edges, p->graph.num_edges());
  }
  ASSERT_GE(max_edges, 2u);  // so level 2 generates candidates
  // FSG's level-1 index alone exceeds 1 KiB, so the first level-2
  // candidate is refused and only the 1-edge patterns are reported.
  common::BudgetLimits limits;
  limits.max_memory_bytes = 1024;
  options.budget = common::ResourceBudget(limits);
  const TemporalMiningResult cut = MineTemporalPatterns(ds, options);
  EXPECT_EQ(cut.outcome, common::MiningOutcome::kMemoryBudgetExceeded);
  EXPECT_FALSE(cut.registry.empty());
  for (const auto* p : cut.registry.SortedBySupport()) {
    EXPECT_EQ(p->graph.num_edges(), 1u);
  }
  EXPECT_EQ(options.budget.memory_charged(), 0u);
}

TEST(TemporalMiningTest, EmptyDataset) {
  const TemporalMiningResult result =
      MineTemporalPatterns(data::TransactionDataset{}, {});
  EXPECT_TRUE(result.registry.empty());
  EXPECT_EQ(result.partition.transactions.size(), 0u);
}

}  // namespace
}  // namespace tnmine::core
