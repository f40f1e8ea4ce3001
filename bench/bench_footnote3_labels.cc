// Experiment E11 — Section 8 / footnote 3: vertex-label cardinality blows
// up FSG's candidate sets.
//
// The paper generated synthetic transaction sets with the FSG authors'
// generator and "a large number of distinct vertex labels; this produced
// the same out of memory problems". Reproduction target: with transaction
// count and sizes fixed, raising the vertex-label alphabet multiplies the
// frequent-edge set and the level-2 candidate set until the memory budget
// aborts the run.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/budget.h"
#include "common/stopwatch.h"
#include "fsg/fsg.h"
#include "synth/kk_generator.h"

using namespace tnmine;

int main() {
  bench::RunReportScope report("bench_footnote3_labels");
  bench::Section(
      "E11 / footnote 3: FSG candidate growth vs. vertex-label "
      "cardinality (KK-style generator: |D|=200, |T|=20, |I|=5)");
  std::printf("%-9s %-9s %-12s %-14s %-10s %-8s\n", "vlabels", "F1",
              "candidates", "peak bytes", "oom", "seconds");
  for (const int vlabels : {4, 16, 64, 256, 1024}) {
    synth::KkOptions gen;
    gen.num_transactions = 200;
    gen.avg_transaction_edges = 20;
    // The potentially-frequent pool grows with the label alphabet, as in
    // the transportation data: each location pair is its own recurring
    // structure. This is what makes many labels translate into many
    // frequent edges and, from those, a combinatorial candidate set.
    gen.num_seed_patterns = std::min<std::size_t>(
        300, std::max<std::size_t>(20, static_cast<std::size_t>(vlabels)));
    gen.avg_pattern_edges = 5;
    gen.num_vertex_labels = vlabels;
    gen.num_edge_labels = 4;
    gen.seed = 11;
    const synth::KkResult data = synth::GenerateKkTransactions(gen);

    fsg::FsgOptions miner;
    miner.min_support = 2;  // low support, as in the failing 2005 runs
    miner.max_edges = 3;    // the level-3 join is where candidates explode
    common::BudgetLimits limits;
    limits.max_memory_bytes = 32ull << 20;
    miner.budget = common::ResourceBudget(limits);
    Stopwatch sw;
    const fsg::FsgResult result = fsg::MineFsg(data.transactions, miner);
    const std::size_t f1 = result.frequent_per_level.empty()
                               ? 0
                               : result.frequent_per_level[0];
    std::size_t candidates = 0;  // total generated beyond level 1
    for (std::size_t level = 1; level < result.candidates_per_level.size();
         ++level) {
      candidates += result.candidates_per_level[level];
    }
    const bool aborted =
        result.outcome == common::MiningOutcome::kMemoryBudgetExceeded;
    std::printf("%-9d %-9zu %-12zu %-14llu %-10s %-8.2f\n", vlabels, f1,
                candidates,
                static_cast<unsigned long long>(result.peak_candidate_bytes),
                aborted ? "yes" : "no", sw.ElapsedSeconds());
  }
  std::printf(
      "\nReading: with a chemistry-sized alphabet (paper's comparison "
      "dataset: 66\nvertex labels) the frequent-edge set F1 stays around a "
      "hundred; with a\ntransportation-sized alphabet of recurring "
      "location labels F1 grows an order\nof magnitude, and FSG's "
      "candidate generation scales with it. Combined with\nthe large "
      "temporal transactions (see bench_table2_table3_temporal, which "
      "does\nabort on the memory budget), this is the failure mode of "
      "Section 8 /\nfootnote 3. The tiny 4-label row shows the opposite "
      "regime: everything is\nfrequent, so the lattice itself explodes.\n");
  return 0;
}
