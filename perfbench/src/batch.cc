#include "batch.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/miner.h"
#include "data/generator.h"
#include "data/od_graph.h"
#include "fsg/fsg.h"
#include "graph/algorithms.h"
#include "gspan/gspan.h"
#include "iso/canonical.h"
#include "layers.h"
#include "partition/split_graph.h"
#include "partition/temporal.h"
#include "spans.h"
#include "stats.h"
#include "subdue/subdue.h"

namespace perfbench {

namespace {

using namespace tnmine;

/// Share of the run spent setting up again between jobs (see
/// SetupSampler).
constexpr double kSetupShare = 0.1;
/// At least one untraced and one traced job.
constexpr std::uint64_t kMinJobs = 2;
/// Generator seed of the paper-scale dataset every batch workload mines.
/// The dataset is the same for every workload seed: re-generating it per
/// seed moved SUBDUE's job time by 3x and gSpan's by 40% between seeds,
/// more than any bound could absorb. The workload seed instead drives
/// each workload's own randomness (see Setup).
constexpr std::uint64_t kDatasetSeed = 2005;
/// The default workload seed, at which the pinned counts hold.
constexpr std::uint64_t kPinnedSeed = 2005;

/// Temporal workload: support 1%, on the days with fewer than 1,500
/// distinct locations (the paper's Table 3 filter, at a higher cut). All
/// days at 1% take ~12 s a job, too long to run a reference and several
/// jobs inside one benchmark run.
constexpr double kTemporalSupport = 0.01;
constexpr std::size_t kTemporalMaxLabels = 1500;
/// gSpan workload: k=6000, s=300 (the ROADMAP sizing, k=4000 and s=400,
/// takes ~6 s a job: two jobs a run gave too noisy a median).
constexpr std::size_t kGspanPartitions = 6000;
constexpr std::size_t kGspanSupport = 300;
/// SUBDUE workload: substructures evaluated per discovery. The ROADMAP
/// sizing used 300; here 8 take ~0.3 s, while 10 already take 4-5 s and
/// 50 take ~9 s, too few jobs per run for a steady median.
constexpr std::size_t kSubdueLimit = 8;
/// Independent discoveries per SUBDUE job, spread over the pool's lanes.
/// SUBDUE is sequential: run alone, a job sat on one CPU, and the host
/// slows single CPUs for minutes at a time, which spread the job time 30%
/// between runs. Like the other batch jobs, the copies keep every CPU
/// busy, so a slowed CPU costs the job a share of its time.
constexpr std::size_t kSubdueCopies = 8;

using PatternList = std::vector<std::pair<std::string, std::size_t>>;

PatternList ListOf(const pattern::PatternRegistry& registry) {
  PatternList out;
  for (const pattern::FrequentPattern* p : registry.SortedBySupport()) {
    out.emplace_back(p->code, p->support);
  }
  return out;
}

PatternList ListOf(const std::vector<pattern::FrequentPattern>& patterns) {
  PatternList out;
  for (const pattern::FrequentPattern& p : patterns) {
    out.emplace_back(p.code, p.support);
  }
  return out;
}

bool Complete(common::MiningOutcome outcome) {
  return outcome == common::MiningOutcome::kComplete;
}

std::string Join(const std::vector<std::size_t>& values) {
  std::string out;
  for (std::size_t v : values) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

/// What a job produced: whether every library call completed, the result
/// count of each call, and a fingerprint over every (code, support).
struct JobOutput {
  bool complete = true;
  std::vector<std::size_t> counts;
  std::uint64_t fingerprint = Fnv1a("");

  void Add(bool call_complete, PatternList patterns) {
    complete = complete && call_complete;
    counts.push_back(patterns.size());
    std::sort(patterns.begin(), patterns.end());
    for (const auto& [code, support] : patterns) {
      fingerprint =
          Fnv1a(code + '#' + std::to_string(support) + ';', fingerprint);
    }
  }
};

struct SetupTimes {
  double generate_s = 0.0;
  double graph_s = 0.0;  ///< OD graphs and the SUBDUE region
};

/// One batch workload: inputs built from the seed, the measured job, and
/// the check it must pass.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  virtual std::string Describe() const = 0;
  virtual SetupTimes Setup(std::uint64_t seed) = 0;
  /// The measured job: calls through the library's public entry points.
  virtual JobOutput Job() = 0;
  /// A run that does not rely on a pinned seed and that every job must
  /// equal.
  virtual JobOutput Reference() = 0;
  /// Traced jobs only: direct calls into the layers beneath the job, each
  /// in its own span under `parent`.
  virtual void Decompose(SpanRecorder* spans, std::uint64_t job,
                         int parent) = 0;
  /// Result counts per call the job must reproduce at `seed`; empty when
  /// nothing is pinned for that seed.
  virtual std::vector<std::size_t> Pinned(std::uint64_t seed) const = 0;
  /// Name of the direct span of the miner the job runs ("" = none).
  virtual const char* MinerSpan() const = 0;
  /// Name of the direct span of the partitioner ("" = none).
  virtual const char* PartitionSpan() const = 0;
};

data::TransactionDataset PaperDataset() {
  data::GeneratorConfig config = data::GeneratorConfig::PaperScale();
  config.seed = kDatasetSeed;
  return data::GenerateTransportData(config);
}

/// Algorithm 1 (SplitGraph, then mine, one repetition) on OD graphs: the
/// structural workload with FSG and the gspan workload.
class Algorithm1Workload final : public BatchWorkload {
 public:
  explicit Algorithm1Workload(core::MinerKind miner) : miner_(miner) {}

  std::string Describe() const override {
    return fsg()
               ? "Figure 2 query (OD_TH, BF, k=400, s=240, <=4 edges) then "
                 "Figure 3 query (OD_TD, DF, k=400, s=120, <=4 edges), "
                 "FSG via core::MineStructuralPatterns"
               : "OD_TH, BF, k=6000, s=300, <=3 edges, gSpan via "
                 "core::MineStructuralPatterns";
  }

  /// The workload seed is SplitGraph's seed: it picks the partitions.
  SetupTimes Setup(std::uint64_t seed) override {
    SetupTimes times;
    Stopwatch watch;
    dataset_ = PaperDataset();
    times.generate_s = watch.ElapsedSeconds();
    watch.Reset();
    hours_ = data::BuildOdTh(dataset_);
    if (fsg()) distance_ = data::BuildOdTd(dataset_);
    times.graph_s = watch.ElapsedSeconds();
    queries_.clear();
    if (fsg()) {
      queries_.push_back(Query(&hours_, partition::SplitStrategy::kBreadthFirst,
                               400, 240, 4, seed));
      queries_.push_back(Query(&distance_,
                               partition::SplitStrategy::kDepthFirst, 400,
                               120, 4, seed));
    } else {
      queries_.push_back(Query(&hours_, partition::SplitStrategy::kBreadthFirst,
                               kGspanPartitions, kGspanSupport, 3, seed));
    }
    return times;
  }

  JobOutput Job() override { return Run(common::Parallelism{}); }

  JobOutput Reference() override {
    // FSG: the same job on one lane. gSpan: FSG on the same partitions.
    if (fsg()) return Run(common::Parallelism::Serial());
    JobOutput out;
    for (const Pipeline& q : queries_) {
      const partition::SplitResult split = Split(q);
      const fsg::FsgResult mined = fsg::MineFsg(split.partitions, FsgOf(q));
      out.Add(Complete(split.outcome) && Complete(mined.outcome),
              ListOf(mined.patterns));
    }
    return out;
  }

  void Decompose(SpanRecorder* spans, std::uint64_t job,
                 int parent) override {
    for (const Pipeline& q : queries_) {
      partition::SplitResult split;
      {
        ScopedSpan span(spans, PartitionSpan(), job, parent);
        split = Split(q);
      }
      ScopedSpan span(spans, MinerSpan(), job, parent);
      if (fsg()) {
        fsg::MineFsg(split.partitions, FsgOf(q));
      } else {
        gspan::GspanOptions options;
        options.min_support = q.options.min_support;
        options.max_edges = q.options.max_pattern_edges;
        gspan::MineGspan(split.partitions, options);
      }
    }
  }

  std::vector<std::size_t> Pinned(std::uint64_t seed) const override {
    if (seed != kPinnedSeed) return {};
    if (fsg()) return {743, 968};
    return {382};
  }
  const char* MinerSpan() const override {
    return fsg() ? "fsg.mine" : "gspan.mine";
  }
  const char* PartitionSpan() const override { return "partition.split"; }

 private:
  struct Pipeline {
    const data::OdGraph* od;
    core::StructuralMiningOptions options;
  };

  bool fsg() const { return miner_ == core::MinerKind::kFsg; }

  Pipeline Query(const data::OdGraph* od, partition::SplitStrategy strategy,
                 std::size_t k, std::size_t support, std::size_t max_edges,
                 std::uint64_t seed) const {
    Pipeline q{od, {}};
    q.options.strategy = strategy;
    q.options.num_partitions = k;
    q.options.min_support = support;
    q.options.max_pattern_edges = max_edges;
    q.options.repetitions = 1;
    q.options.miner = miner_;
    q.options.seed = seed;
    return q;
  }

  static partition::SplitResult Split(const Pipeline& q) {
    partition::SplitOptions split;
    split.strategy = q.options.strategy;
    split.num_partitions = q.options.num_partitions;
    split.seed = q.options.seed;
    return partition::SplitGraphBudgeted(q.od->graph, split);
  }

  static fsg::FsgOptions FsgOf(const Pipeline& q) {
    fsg::FsgOptions options;
    options.min_support = q.options.min_support;
    options.max_edges = q.options.max_pattern_edges;
    return options;
  }

  JobOutput Run(common::Parallelism lanes) {
    JobOutput out;
    for (const Pipeline& q : queries_) {
      core::StructuralMiningOptions options = q.options;
      options.parallelism = lanes;
      const core::StructuralMiningResult mined =
          core::MineStructuralPatterns(q.od->graph, options);
      out.Add(Complete(mined.outcome), ListOf(mined.registry));
    }
    return out;
  }

  core::MinerKind miner_;
  data::TransactionDataset dataset_;
  data::OdGraph hours_;
  data::OdGraph distance_;
  std::vector<Pipeline> queries_;
};

/// Section 6 temporal mining: one graph transaction per day and
/// connected component, FSG over thousands of tiny location-labeled
/// transactions.
class TemporalWorkload final : public BatchWorkload {
 public:
  std::string Describe() const override {
    char text[200];
    std::snprintf(text, sizeof(text),
                  "core::MineTemporalPatterns on the days with < %zu "
                  "distinct locations, support %.0f%%, <=4 edges, FSG",
                  kTemporalMaxLabels, kTemporalSupport * 100);
    return text;
  }

  /// The workload seed shuffles the dataset's transaction order, which
  /// renumbers the location labels; the pattern count cannot change.
  SetupTimes Setup(std::uint64_t seed) override {
    SetupTimes times;
    Stopwatch watch;
    dataset_ = PaperDataset();
    SplitMix64 rng(seed);
    Shuffle(&dataset_.mutable_transactions(), &rng);
    times.generate_s = watch.ElapsedSeconds();
    options_.min_support_fraction = kTemporalSupport;
    options_.max_pattern_edges = 4;
    options_.partition.max_distinct_vertex_labels = kTemporalMaxLabels;
    return times;
  }

  JobOutput Job() override { return Run(common::Parallelism{}); }
  JobOutput Reference() override {
    return Run(common::Parallelism::Serial());
  }

  void Decompose(SpanRecorder* spans, std::uint64_t job,
                 int parent) override {
    partition::TemporalPartition days;
    {
      ScopedSpan span(spans, PartitionSpan(), job, parent);
      days = partition::PartitionByActiveDay(dataset_, options_.partition);
    }
    fsg::FsgOptions options;
    options.min_support = std::max<std::size_t>(
        1, static_cast<std::size_t>(options_.min_support_fraction *
                                    static_cast<double>(
                                        days.transactions.size())));
    options.max_edges = options_.max_pattern_edges;
    ScopedSpan span(spans, MinerSpan(), job, parent);
    fsg::MineFsg(days.transactions, options);
  }

  /// Shuffling cannot change the pattern count, so it is pinned at every
  /// seed.
  std::vector<std::size_t> Pinned(std::uint64_t) const override {
    return {941};
  }
  const char* MinerSpan() const override { return "fsg.mine"; }
  const char* PartitionSpan() const override { return "partition.by_day"; }

 private:
  JobOutput Run(common::Parallelism lanes) {
    core::TemporalMiningOptions options = options_;
    options.parallelism = lanes;
    const core::TemporalMiningResult mined =
        core::MineTemporalPatterns(dataset_, options);
    JobOutput out;
    out.Add(Complete(mined.outcome), ListOf(mined.registry));
    return out;
  }

  data::TransactionDataset dataset_;
  core::TemporalMiningOptions options_;
};

/// The Figure 1 region: a BFS from the `rank`-th busiest vertex outside
/// the 40 busiest hubs, n vertices, induced. The paper benches build the
/// same region; the construction is repeated here so that the workload
/// changes only with this benchmark.
graph::LabeledGraph Region(const graph::LabeledGraph& g, std::size_t n,
                           std::size_t rank) {
  constexpr std::size_t kExcludeTop = 40;
  std::vector<graph::VertexId> by_degree(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(),
            [&](graph::VertexId a, graph::VertexId b) {
              return g.Degree(a) > g.Degree(b);
            });
  std::vector<char> blocked(g.num_vertices(), 0);
  for (std::size_t i = 0; i < std::min(kExcludeTop, by_degree.size()); ++i) {
    blocked[by_degree[i]] = 1;
  }
  const graph::VertexId seed =
      by_degree[std::min(kExcludeTop + rank, by_degree.size() - 1)];
  std::vector<graph::VertexId> region;
  std::vector<graph::VertexId> queue = {seed};
  blocked[seed] = 1;
  for (std::size_t head = 0; head < queue.size() && region.size() < n;) {
    const graph::VertexId v = queue[head++];
    region.push_back(v);
    const auto visit = [&](graph::EdgeId e) {
      const graph::Edge& edge = g.edge(e);
      const graph::VertexId other = edge.src == v ? edge.dst : edge.src;
      if (!blocked[other]) {
        blocked[other] = 1;
        queue.push_back(other);
      }
    };
    g.ForEachOutEdge(v, visit);
    g.ForEachInEdge(v, visit);
  }
  return graph::InducedSubgraph(g, region);
}

/// An isomorphic copy of `g` with vertex ids and edge order shuffled.
graph::LabeledGraph Permuted(const graph::LabeledGraph& g,
                             std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<graph::VertexId> order(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) order[v] = v;
  Shuffle(&order, &rng);
  graph::LabeledGraph out;
  std::vector<graph::VertexId> renamed(g.num_vertices());
  for (graph::VertexId v : order) renamed[v] = out.AddVertex(g.vertex_label(v));
  std::vector<graph::EdgeId> edges = g.LiveEdges();
  Shuffle(&edges, &rng);
  for (graph::EdgeId e : edges) {
    const graph::Edge& edge = g.edge(e);
    out.AddEdge(renamed[edge.src], renamed[edge.dst], edge.label);
  }
  return out;
}

/// SUBDUE beam search with MDL on the Figure 1 region. FSG and gSpan do
/// not run.
class SubdueWorkload final : public BatchWorkload {
 public:
  std::string Describe() const override {
    return std::to_string(kSubdueCopies) +
           " independent subdue::DiscoverSubstructures calls on the pool's "
           "lanes, each on the Figure 1 region (OD_GW, 100 vertices), MDL, "
           "beam 4, best 3, no overlap, max_instances 1500, limit " +
           std::to_string(kSubdueLimit);
  }

  /// The workload seed renumbers the region's vertices and reorders its
  /// edges: an isomorphic host graph that SUBDUE walks in another order.
  SetupTimes Setup(std::uint64_t seed) override {
    SetupTimes times;
    Stopwatch watch;
    const data::TransactionDataset dataset = PaperDataset();
    times.generate_s = watch.ElapsedSeconds();
    watch.Reset();
    region_ = Permuted(Region(data::BuildOdGw(dataset).graph, 100, 100), seed);
    times.graph_s = watch.ElapsedSeconds();
    return times;
  }

  /// Every copy must yield the same output; the job's is the first's.
  JobOutput Job() override {
    const std::vector<JobOutput> copies = common::ParallelMap<JobOutput>(
        common::Parallelism{}, kSubdueCopies,
        [&](std::size_t) { return OutputOf(Discover()); });
    JobOutput out = copies.front();
    for (const JobOutput& copy : copies) {
      out.complete = out.complete && copy.complete;
      if (copy.fingerprint != out.fingerprint) out.fingerprint = 0;
    }
    return out;
  }

  JobOutput Reference() override {
    // SUBDUE is sequential: its check is determinism (every job equals
    // this run) plus every reported instance being a genuine occurrence
    // of its substructure in the host graph.
    const subdue::SubdueResult result = Discover();
    JobOutput out = OutputOf(result);
    out.complete = out.complete && InstancesValid(result);
    return out;
  }

  void Decompose(SpanRecorder*, std::uint64_t, int) override {}

  /// Best substructures, substructures evaluated, and the instances of
  /// each best substructure.
  std::vector<std::size_t> Pinned(std::uint64_t seed) const override {
    if (seed != kPinnedSeed) return {};
    return {3, kSubdueLimit, 552, 1500, 1500};
  }
  const char* MinerSpan() const override { return ""; }
  const char* PartitionSpan() const override { return ""; }

 private:
  subdue::SubdueResult Discover() const {
    subdue::SubdueOptions options;
    options.method = subdue::EvalMethod::kMdl;
    options.beam_width = 4;
    options.num_best = 3;
    options.allow_overlap = false;
    options.max_instances = 1500;
    options.limit = kSubdueLimit;
    return subdue::DiscoverSubstructures(region_, options);
  }

  static JobOutput OutputOf(const subdue::SubdueResult& result) {
    PatternList best;
    for (const subdue::Substructure& sub : result.best) {
      char value[32];
      std::snprintf(value, sizeof(value), "%.17g", sub.value);
      best.emplace_back(sub.code + '|' + value + '|' +
                            std::to_string(sub.non_overlapping_instances),
                        sub.instances.size());
    }
    JobOutput out;
    out.Add(Complete(result.outcome), std::move(best));
    out.counts.push_back(result.substructures_evaluated);
    for (const subdue::Substructure& sub : result.best) {
      out.counts.push_back(sub.instances.size());
    }
    return out;
  }

  /// Every instance's edges exist in the host, stay inside its vertices,
  /// and form a graph isomorphic to the substructure's pattern.
  bool InstancesValid(const subdue::SubdueResult& result) const {
    for (const subdue::Substructure& sub : result.best) {
      for (const subdue::Instance& inst : sub.instances) {
        if (inst.edges.size() != sub.pattern.num_edges()) return false;
        graph::LabeledGraph g;
        std::vector<graph::VertexId> local(region_.num_vertices(),
                                           graph::kInvalidVertex);
        for (graph::VertexId v : inst.vertices) {
          if (v >= region_.num_vertices()) return false;
          local[v] = g.AddVertex(region_.vertex_label(v));
        }
        for (graph::EdgeId e : inst.edges) {
          if (e >= region_.edge_capacity() || !region_.edge_alive(e)) {
            return false;
          }
          const graph::Edge& edge = region_.edge(e);
          if (local[edge.src] == graph::kInvalidVertex ||
              local[edge.dst] == graph::kInvalidVertex) {
            return false;
          }
          g.AddEdge(local[edge.src], local[edge.dst], edge.label);
        }
        if (iso::CanonicalCode(g) != sub.code) return false;
      }
    }
    return true;
  }

  graph::LabeledGraph region_;
};

std::unique_ptr<BatchWorkload> MakeWorkload(const std::string& name) {
  if (name == "structural") {
    return std::make_unique<Algorithm1Workload>(core::MinerKind::kFsg);
  }
  if (name == "gspan") {
    return std::make_unique<Algorithm1Workload>(core::MinerKind::kGspan);
  }
  if (name == "temporal") return std::make_unique<TemporalWorkload>();
  if (name == "subdue") return std::make_unique<SubdueWorkload>();
  return nullptr;
}

/// Per-layer metrics of the traced jobs.
void ReportLayers(const BatchWorkload& workload, const SpanRecorder& spans,
                  const RegistryDeltas& deltas,
                  const std::vector<double>& untraced,
                  const std::vector<double>& traced_calls,
                  double setup_s, double generate_s, double graph_s,
                  const Options& options, Report* report) {
  const std::map<std::string, SpanTotals> totals = spans.Aggregate();
  const auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_seconds;
  };
  const double jobs = static_cast<double>(traced_calls.size());
  const double call = total("job.call");
  const std::string miner = workload.MinerSpan();
  const std::string partitioner = workload.PartitionSpan();
  const double split = total(partitioner);
  const double mine = total(miner);

  report->Set("data.generate_frac", Share(generate_s, setup_s));
  report->Set("data.od_graph_frac", Share(graph_s, setup_s));
  report->Set("partition.split_frac", Share(total("partition.split"), call));
  report->Set("partition.by_day_frac",
              Share(total("partition.by_day"), call));
  report->Set("fsg.mine_frac", Share(total("fsg.mine"), call));
  report->Set("gspan.mine_frac", Share(total("gspan.mine"), call));
  SetRegistryLayers(deltas, call, jobs, report);
  // Spans on parallel lanes (SUBDUE's copies) sum past the job's wall
  // time; the unattributed share is then 0, not negative.
  const double unattributed =
      std::max(0.0, Share(call - deltas.leaf_seconds(), call));
  report->Set("trace.unattributed_frac", unattributed);
  const double untraced_job = Median(untraced);
  const double traced_job = Median(traced_calls);
  report->Set("trace.overhead_frac",
              Share(traced_job - untraced_job, untraced_job));

  // The same layers in seconds per job, for the reader.
  report->Line("traced jobs %.0f, untraced jobs %zu", jobs, untraced.size());
  report->Line("data.generate_s %.4f s, data.od_graph_s %.4f s "
               "(medians of the set-ups)", generate_s, graph_s);
  if (!partitioner.empty()) {
    report->Line("%s_s %.4f s per job (direct call)", partitioner.c_str(),
                 split / jobs);
  }
  if (!miner.empty()) {
    report->Line("%s_s %.4f s per job (direct call)", miner.c_str(),
                 mine / jobs);
    report->Line("core.driver_s %.4f s per job (core spans minus the "
                 "partition and miner spans inside them)",
                 deltas.driver_seconds() / jobs);
  }
  report->Line("fsg.level1_s %.4f s, fsg.count_s %.4f s, "
               "subdue.discover_s %.4f s per job (registry spans)",
               deltas.level1_seconds() / jobs,
               deltas.span_seconds("fsg/count_phase") / jobs,
               deltas.span_seconds("subdue/discover") / jobs);
  report->Line("span self times (benchmark spans, totals over the run):");
  for (const auto& [name, t] : totals) {
    report->Line("  %-18s n=%-3zu total %.4f s  self %.4f s", name.c_str(),
                 t.count, t.total_seconds, t.self_seconds);
  }
  report->Line("tracing overhead %+.2f%% (traced call %.4f s vs untraced "
               "job %.4f s, medians)",
               Share(traced_job - untraced_job, untraced_job) * 100,
               traced_job, untraced_job);
  const double covered = Share(deltas.leaf_seconds(), call);
  if (covered < 0.9) {
    report->Line("FLAG: layer spans cover %.1f%% of job_s, below the 90%% "
                 "of ROADMAP aim 1; gap %.4f s per job",
                 covered * 100, (call - deltas.leaf_seconds()) / jobs);
  } else {
    report->Line("layer spans cover %.1f%% of job_s%s", covered * 100,
                 covered > 1.0 ? " (spans on parallel lanes add up)" : "");
  }
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  if (spans.WriteJson(path)) report->Line("spans written to %s", path.c_str());
}

}  // namespace

bool IsBatchWorkload(const std::string& name) {
  return MakeWorkload(name) != nullptr;
}

void RunBatch(const Options& options, Report* report) {
  const std::unique_ptr<BatchWorkload> workload =
      MakeWorkload(options.workload);
  const std::uint64_t seed = options.seed;
  report->Line("workload %s, seed %llu: %s", options.workload.c_str(),
               static_cast<unsigned long long>(seed),
               workload->Describe().c_str());

  SetupSampler setups(kSetupShare);
  std::vector<double> generate_s, graph_s;
  const auto set_up = [&] {
    RotatingCpuPin pin;  // every Setup is sequential
    Stopwatch watch;
    const SetupTimes times = workload->Setup(seed);
    setups.Add(watch.ElapsedSeconds());
    generate_s.push_back(times.generate_s);
    graph_s.push_back(times.graph_s);
  };
  set_up();

  iso::ClearCanonicalCodeCache();
  const JobOutput reference = workload->Reference();
  if (!reference.complete) {
    report->Fail("the reference run did not complete or its output is "
                 "invalid");
  }
  const std::vector<std::size_t> pinned = workload->Pinned(seed);

  SpanRecorder spans;
  RegistryDeltas deltas;
  std::vector<double> untraced, traced_calls;
  double peak_rss_mb = 0.0;
  bool rss_reset = true;
  Stopwatch window;
  for (std::uint64_t job = 0;
       job < kMinJobs || window.ElapsedSeconds() < options.seconds; ++job) {
    // The set-up yields the same inputs every time, so jobs are unchanged.
    while (setups.Due(window.ElapsedSeconds())) set_up();
    const bool traced = options.trace && job % 2 == 1;
    // Every job starts from an empty canonical-code cache, so no job
    // profits from the one before it.
    iso::ClearCanonicalCodeCache();
    // peak_rss_mb covers the jobs alone, not the set-ups between them.
    // Traced jobs are reset too, so that they start as untraced ones do.
    rss_reset = ResetPeakRss() && rss_reset;
    JobOutput out;
    if (traced) {
      ScopedSpan root(&spans, "job", job);
      const telemetry::MetricsSnapshot before =
          telemetry::Registry::Global().Snapshot();
      Stopwatch watch;
      {
        ScopedSpan call(&spans, "job.call", job, root.id());
        out = workload->Job();
      }
      traced_calls.push_back(watch.ElapsedSeconds());
      deltas.Add(before, telemetry::Registry::Global().Snapshot());
      workload->Decompose(&spans, job, root.id());
    } else {
      Stopwatch watch;
      out = workload->Job();
      untraced.push_back(watch.ElapsedSeconds());
      peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    }
    // A job equal to the reference also equals the run's first job.
    std::string why;
    if (!out.complete) {
      why = "a library call did not complete";
    } else if (out.fingerprint != reference.fingerprint) {
      why = "output differs from the reference run";
    } else if (!pinned.empty() && out.counts != pinned) {
      why = "counts differ from the pinned counts " + Join(pinned);
    }
    report->Operation(why.empty());
    if (!why.empty()) {
      report->Fail("job " + std::to_string(job) + ": " + why + " (counts " +
                   Join(out.counts) + ")");
    }
  }
  report->Line("result counts per call: %s%s",
               Join(reference.counts).c_str(),
               pinned.empty() ? "" : " (pinned)");

  if (options.trace) {
    ReportLayers(*workload, spans, deltas, untraced, traced_calls,
                 Median(setups.seconds()), Median(generate_s),
                 Median(graph_s), options, report);
    return;
  }
  // The time metrics are taken over the faster half of the set-ups and
  // of the jobs.
  const std::vector<double> fast_setups =
      Pick(setups.seconds(), FasterHalf(setups.seconds()));
  const double setup_s = Median(fast_setups);
  const std::vector<double> fast = Pick(untraced, FasterHalf(untraced));
  const double job_s = Median(fast);
  double busy = 0.0;
  for (double t : fast) busy += t;
  const Tail tail = TailPercentile(fast);
  report->Set("setup_s", setup_s);
  report->Set("job_s", job_s);
  report->Set("job_tail_s", tail.value);
  report->Set("throughput_per_s", Share(fast.size(), busy));
  report->Set("peak_rss_mb", peak_rss_mb);
  report->Line("setup_s %.4f s (median of the faster %zu of %zu set-ups "
               "spread over the run; all: %.4f s)",
               setup_s, fast_setups.size(), setups.seconds().size(),
               Median(setups.seconds()));
  std::string times;
  for (double t : untraced) times += " " + std::to_string(t);
  report->Line("job_s %.4f s (median of the faster %zu of %zu jobs; all: "
               "%.4f s;%s)",
               job_s, fast.size(), untraced.size(), Median(untraced),
               times.c_str());
  report->Line("job_tail_s %.4f s (%s)", tail.value, Describe(tail).c_str());
  report->Line("throughput_per_s %.4f jobs/s", Share(fast.size(), busy));
  report->Line("peak_rss_mb %.1f MB (highest of the jobs%s)", peak_rss_mb,
               rss_reset ? ", each counted from the RSS at its start"
                         : "; the peak could not be reset, so it covers "
                           "the whole process");
}

}  // namespace perfbench
