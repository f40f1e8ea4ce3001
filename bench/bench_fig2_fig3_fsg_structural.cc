// Experiments E5 + E6 — Section 5.2.2 / Figures 2 and 3: structurally
// similar routes via Algorithm 1 (SplitGraph + FSG).
//
// The paper ran breadth-first partitioning at support 240 (found an
// average of 667 frequent patterns; Figure 2 shows a hub-and-spoke found
// 243 times on OD_TH) and depth-first partitioning at support 120 (200
// patterns on average; Figure 3 shows a 14-edge pickup/delivery chain
// found 63 times on OD_TD). Reproduction targets: hundreds of frequent
// patterns per run; breadth-first surfaces hub-and-spoke shapes,
// depth-first surfaces chains.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/interestingness.h"
#include "core/miner.h"
#include "data/od_graph.h"
#include "pattern/render.h"

using namespace tnmine;

namespace {

/// Shape census over the patterns with at least `min_edges` edges.
void PrintShapeCensus(const std::vector<const pattern::FrequentPattern*>& ps,
                      std::size_t min_edges) {
  std::size_t hubs = 0, chains = 0, cycles = 0, other = 0;
  for (const auto* p : ps) {
    if (p->graph.num_edges() < min_edges) continue;
    switch (pattern::ClassifyShape(p->graph)) {
      case pattern::PatternShape::kHubAndSpoke: ++hubs; break;
      case pattern::PatternShape::kChain: ++chains; break;
      case pattern::PatternShape::kCycle: ++cycles; break;
      default: ++other; break;
    }
  }
  std::printf(
      "shape census (>=%zu edges): hub-and-spoke=%zu chain=%zu cycle=%zu "
      "other=%zu\n",
      min_edges, hubs, chains, cycles, other);
}

void ShowTop(const core::StructuralMiningResult& result,
             const Discretizer& bins, pattern::PatternShape want_shape,
             const char* figure) {
  std::printf("\nMost interesting patterns (%s analogue):\n", figure);
  const auto ranked = core::RankPatterns(result.registry);
  std::size_t shown = 0;
  bool shape_shown = false;
  for (const auto* p : ranked) {
    const bool is_wanted = p->graph.num_edges() >= 2 &&
                           pattern::ClassifyShape(p->graph) == want_shape;
    if (shown < 3 || (is_wanted && !shape_shown)) {
      std::printf("%s", pattern::RenderPattern(*p, &bins).c_str());
      ++shown;
      shape_shown |= is_wanted;
    }
    if (shown >= 4 && shape_shown) break;
  }
  PrintShapeCensus(ranked, 2);
}

}  // namespace

int main() {
  bench::RunReportScope report("bench_fig2_fig3_fsg_structural");
  const auto& ds = bench::PaperDataset();

  bench::Section(
      "E5 / Figure 2: breadth-first partitioning, OD_TH, support 240 "
      "(paper: avg 667 patterns; hub-and-spoke x243)");
  {
    const data::OdGraph od = data::BuildOdTh(ds);
    core::StructuralMiningOptions options;
    options.strategy = partition::SplitStrategy::kBreadthFirst;
    options.num_partitions = 400;
    options.min_support = 240;
    options.max_pattern_edges = 4;
    options.repetitions = 1;
    options.seed = 2005;
    Stopwatch sw;
    const auto result = core::MineStructuralPatterns(od.graph, options);
    bench::Row("runtime seconds", sw.ElapsedSeconds());
    bench::Row("partitions produced", result.partitions_per_repetition[0]);
    bench::Row("frequent patterns (paper avg: 667)", result.registry.size());
    ShowTop(result, od.discretizer, pattern::PatternShape::kHubAndSpoke,
            "Figure 2");
  }

  bench::Section(
      "E6 / Figure 3: depth-first partitioning, OD_TD, support 120 "
      "(paper: avg 200 patterns; 14-edge chain x63)");
  {
    const data::OdGraph od = data::BuildOdTd(ds);
    core::StructuralMiningOptions options;
    options.strategy = partition::SplitStrategy::kDepthFirst;
    options.num_partitions = 400;
    options.min_support = 120;
    options.max_pattern_edges = 4;
    options.repetitions = 1;
    options.seed = 2005;
    Stopwatch sw;
    const auto result = core::MineStructuralPatterns(od.graph, options);
    bench::Row("runtime seconds", sw.ElapsedSeconds());
    bench::Row("partitions produced", result.partitions_per_repetition[0]);
    bench::Row("frequent patterns (paper avg: 200)", result.registry.size());
    ShowTop(result, od.discretizer, pattern::PatternShape::kChain,
            "Figure 3");

    // The paper's Figure-3 chain itself was "frequent in 63 instances" —
    // below the headline support threshold — so surface the long chains
    // at a comparable support level.
    std::printf("\nLonger chains at support 60 (the Figure-3 pattern's own "
                "frequency level), up to 6 edges:\n");
    options.min_support = 60;
    options.max_pattern_edges = 6;
    Stopwatch low_sw;
    const auto low = core::MineStructuralPatterns(od.graph, options);
    bench::Row("runtime seconds (support 60)", low_sw.ElapsedSeconds());
    bench::Row("frequent patterns (support 60)", low.registry.size());
    const auto low_patterns = low.registry.SortedBySupport();
    std::vector<std::size_t> by_size(options.max_pattern_edges + 1);
    for (const auto* p : low_patterns) ++by_size[p->graph.num_edges()];
    std::string sizes;
    for (std::size_t edges = 1; edges < by_size.size(); ++edges) {
      if (edges > 1) sizes += ' ';
      sizes += std::to_string(edges);
      sizes += ':';
      sizes += std::to_string(by_size[edges]);
    }
    bench::Row("patterns by edges (support 60)", sizes);
    PrintShapeCensus(low_patterns, 4);
    const pattern::FrequentPattern* longest_chain = nullptr;
    for (const auto* p : low_patterns) {
      if (p->graph.num_edges() >= 3 &&
          pattern::ClassifyShape(p->graph) == pattern::PatternShape::kChain) {
        if (longest_chain == nullptr ||
            p->graph.num_edges() > longest_chain->graph.num_edges()) {
          longest_chain = p;
        }
      }
    }
    if (longest_chain != nullptr) {
      std::printf("%s",
                  pattern::RenderPattern(*longest_chain,
                                         &od.discretizer).c_str());
    } else {
      std::printf("  (no chain of >= 3 edges at this support)\n");
    }
  }
  return 0;
}
