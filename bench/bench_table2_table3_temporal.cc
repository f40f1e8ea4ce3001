// Experiment E9 — Section 6 / Table 2: temporally partitioned graph data,
// plus the full-dataset FSG attempt that ran out of memory.
//
// The paper built one graph transaction per date (an OD pair is active on
// every day between its requested pickup and delivery dates), with
// location-unique vertex labels and 7 gross-weight edge bins; Table 2
// summarizes the result (146 transactions, avg 1,092 edges, max 4,462,
// heavily skewed sizes). FSG could not run on this set — "insufficient
// memory / swap space" on a 1 GB Sparc — which we reproduce with a memory
// ceiling on the miner's ResourceBudget.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/budget.h"
#include "common/stopwatch.h"
#include "fsg/fsg.h"
#include "partition/temporal.h"

using namespace tnmine;

int main() {
  bench::RunReportScope report("bench_table2_table3_temporal");
  const auto& ds = bench::PaperDataset();

  bench::Section("E9 / Table 2: per-day graph transactions (before "
                 "component splitting)");
  partition::TemporalOptions options;
  options.split_components = false;
  options.remove_single_edge_transactions = false;
  options.deduplicate_edges = true;
  const partition::TemporalPartition tp =
      partition::PartitionByActiveDay(ds, options);
  const partition::TemporalStats stats =
      partition::ComputeTemporalStats(tp.transactions);
  bench::Row("input transactions (paper: 146)", stats.num_transactions);
  bench::Row("distinct edge labels (paper: 7)", stats.distinct_edge_labels);
  bench::Row("distinct vertex labels (paper: 3,835)",
             stats.distinct_vertex_labels);
  bench::Row("avg edges per transaction (paper: 1,092)", stats.avg_edges);
  bench::Row("avg vertices per transaction (paper: 601)",
             stats.avg_vertices);
  bench::Row("max edges (paper: 4,462)", stats.max_edges);
  bench::Row("max vertices (paper: 2,140)", stats.max_vertices);
  std::printf("  size histogram (edge count; paper: 73/5/3/31/34):\n");
  const char* bucket_names[6] = {"[1,10)", "[10,100)", "[100,1000)",
                                 "[1000,2000)", "[2000,5000)", "[5000,+)"};
  for (int b = 0; b < 6; ++b) {
    std::printf("    %-14s %zu\n", bucket_names[b], stats.size_buckets[b]);
  }

  bench::Section(
      "E9b / Section 6.1: FSG on the full temporal set aborts on memory "
      "(paper: 'unable to run FSG... insufficient memory / swap space', "
      "1 GB machine)");
  {
    // The raw huge day-graphs (no component splitting, no day filter) —
    // this is the workload that killed FSG.
    const partition::TemporalPartition big = tp;
    bench::Row("graph transactions", big.transactions.size());
    // At 100 % support nothing is frequent (no route runs every single
    // day), so the level-wise search exits immediately — the hard case is
    // a low support, where the location-unique labels make the
    // frequent-edge set huge and candidate generation blows the budget.
    fsg::FsgOptions miner;
    miner.max_edges = 3;
    common::BudgetLimits limits;
    limits.max_memory_bytes = 64ull << 20;  // modest budget, 2005-style
    for (const double support_fraction : {1.0, 0.02}) {
      miner.min_support = std::max<std::size_t>(
          2, static_cast<std::size_t>(
                 support_fraction *
                 static_cast<double>(big.transactions.size())));
      miner.budget = common::ResourceBudget(limits);
      Stopwatch sw;
      const fsg::FsgResult result = fsg::MineFsg(big.transactions, miner);
      const bool aborted =
          result.outcome == common::MiningOutcome::kMemoryBudgetExceeded;
      std::printf("  support %.0f%% (= %zu transactions):\n",
                  100 * support_fraction, miner.min_support);
      bench::Row("  runtime seconds", sw.ElapsedSeconds());
      bench::Row("  frequent patterns", result.patterns.size());
      bench::Row("  aborted out of memory",
                 std::string(aborted ? "yes (as the paper reports)" : "no"));
      bench::Row("  levels completed before abort",
                 result.levels_completed);
      bench::Row("  peak candidate bytes", result.peak_candidate_bytes);
    }
  }
  return 0;
}
