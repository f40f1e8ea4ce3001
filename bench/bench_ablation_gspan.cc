// Ablation A1 — Apriori candidate generation (FSG) vs. pattern growth
// (gSpan), the design axis Section 8 points at: "the existing graph
// mining algorithms need to be enhanced... or new graph mining algorithms
// need to be investigated".
//
// Both miners produce identical pattern sets (the test suite verifies
// this); what differs is cost. google-benchmark times both on the same
// partitioned transportation workload and on a KK-style synthetic set.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/miner.h"
#include "data/od_graph.h"
#include "fsg/fsg.h"
#include "gspan/gspan.h"
#include "partition/split_graph.h"
#include "synth/kk_generator.h"

using namespace tnmine;

namespace {

const std::vector<graph::LabeledGraph>& OdPartitions() {
  static const auto* partitions = [] {
    const data::OdGraph od = data::BuildOdTh(bench::PaperDataset());
    partition::SplitOptions split;
    split.strategy = partition::SplitStrategy::kBreadthFirst;
    split.num_partitions = 800;
    split.seed = 5;
    return new std::vector<graph::LabeledGraph>(
        partition::SplitGraph(od.graph, split));
  }();
  return *partitions;
}

const std::vector<graph::LabeledGraph>& KkTransactions() {
  static const auto* txns = [] {
    synth::KkOptions gen;
    gen.num_transactions = 150;
    gen.avg_transaction_edges = 18;
    gen.num_vertex_labels = 8;
    gen.num_edge_labels = 4;
    gen.seed = 9;
    return new std::vector<graph::LabeledGraph>(
        synth::GenerateKkTransactions(gen).transactions);
  }();
  return *txns;
}

void BM_FsgOdPartitions(benchmark::State& state) {
  const auto& txns = OdPartitions();
  fsg::FsgOptions options;
  options.min_support = static_cast<std::size_t>(state.range(0));
  options.max_edges = 3;
  std::size_t patterns = 0;
  for (auto _ : state) {
    patterns = fsg::MineFsg(txns, options).patterns.size();
    benchmark::DoNotOptimize(patterns);
  }
  state.counters["patterns"] = static_cast<double>(patterns);
}

void BM_GspanOdPartitions(benchmark::State& state) {
  const auto& txns = OdPartitions();
  gspan::GspanOptions options;
  options.min_support = static_cast<std::size_t>(state.range(0));
  options.max_edges = 3;
  std::size_t patterns = 0;
  for (auto _ : state) {
    patterns = gspan::MineGspan(txns, options).patterns.size();
    benchmark::DoNotOptimize(patterns);
  }
  state.counters["patterns"] = static_cast<double>(patterns);
}

void BM_FsgKk(benchmark::State& state) {
  fsg::FsgOptions options;
  options.min_support = static_cast<std::size_t>(state.range(0));
  options.max_edges = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fsg::MineFsg(KkTransactions(), options).patterns.size());
  }
}

void BM_GspanKk(benchmark::State& state) {
  gspan::GspanOptions options;
  options.min_support = static_cast<std::size_t>(state.range(0));
  options.max_edges = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gspan::MineGspan(KkTransactions(), options).patterns.size());
  }
}

BENCHMARK(BM_FsgOdPartitions)->Arg(480)->Arg(240)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GspanOdPartitions)->Arg(480)->Arg(240)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FsgKk)->Arg(30)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GspanKk)->Arg(30)->Arg(15)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  tnmine::bench::RunReportScope report("bench_ablation_gspan");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
