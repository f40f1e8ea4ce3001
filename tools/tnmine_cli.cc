// tnmine_cli — command-line driver for the tnmine library.
//
// Subcommands:
//   generate   synthesize a transaction dataset and write it as CSV
//   stats      print the Section-3 dataset description
//   structural mine structurally similar routes (Section 5 pipeline)
//   temporal   mine temporally repeated routes (Section 6 pipeline)
//   subdue     discover SUBDUE substructures on the OD graph (Section 5.1)
//   episodes   mine periodic / chained route episodes (Section 9 extension)
//   export     write ARFF / SUBDUE / FSG files for external tools
//   mine       run FSG/gSpan over an out-of-core shard directory
//              (tnshard build) or an FSG-format file (DESIGN.md §16)
//
// Observability (DESIGN.md §9): every subcommand accepts
//   --metrics-out <file>   write a RunReport JSON (counters + spans + wall
//                          time) after the command finishes
//   --trace-out <file>     record a trace session and write Chrome
//                          trace_event JSON (load in chrome://tracing)
//
// Resource governance (DESIGN.md §10): the mining subcommands
// (structural, temporal, subdue) accept
//   --deadline-ms <n>      stop mining after n milliseconds of wall time
//   --max-memory-mb <n>    cap tracked candidate/embedding memory
//   --max-work-ticks <n>   deterministic work budget (same tick budget =>
//                          byte-identical partial results at any --threads)
// A truncated run prints its outcome (deadline_exceeded,
// memory_budget_exceeded, cancelled), returns the partial results mined
// so far, and still flushes --metrics-out / --trace-out. SIGINT (Ctrl-C)
// cancels cooperatively through the same mechanism instead of killing
// the process.
//
// Examples:
//   tnmine_cli generate --out /tmp/data.csv --scale small --seed 7
//   tnmine_cli structural --data /tmp/data.csv --strategy bf --k 40 \
//       --support 12 --top 3 --dot /tmp/patterns
//   tnmine_cli temporal --data /tmp/data.csv --support-fraction 0.05
//   tnmine_cli episodes --data /tmp/data.csv --min-occurrences 5
//   tnmine_cli structural --data /tmp/data.csv --miner gspan \
//       --metrics-out report.json --trace-out trace.json

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/episodes.h"
#include "core/flow_balance.h"
#include "core/interestingness.h"
#include "core/miner.h"
#include "data/generator.h"
#include "data/od_graph.h"
#include "fsg/fsg.h"
#include "graph/graph_io.h"
#include "graph/transaction_source.h"
#include "gspan/gspan.h"
#include "ml/arff.h"
#include "partition/split_graph.h"
#include "pattern/dot.h"
#include "pattern/render.h"
#include "server/json.h"
#include "server/wire.h"
#include "subdue/subdue.h"
#include "tools/flag_parser.h"

namespace {

using namespace tnmine;
using tnmine::tools::Flags;

/// Cancel token shared by every budget this process builds. The signal
/// handler sees it through a raw pointer: RequestCancel is a single
/// relaxed atomic store, which is async-signal-safe; miners observe it at
/// their next budget poll and unwind with partial results, so the
/// metrics/trace flush in main() still runs.
std::shared_ptr<common::CancelToken> g_cancel_token;
common::CancelToken* g_cancel_raw = nullptr;

extern "C" void HandleSigint(int) {
  if (g_cancel_raw != nullptr) g_cancel_raw->RequestCancel();
}

/// Builds the run's ResourceBudget from the common governance flags.
/// With no flags set the budget is inert (unbounded) but still carries
/// the SIGINT cancel token.
common::ResourceBudget BudgetFromFlags(const Flags& flags) {
  common::BudgetLimits limits;
  limits.deadline_ms =
      static_cast<std::uint64_t>(flags.GetInt("deadline-ms", 0));
  limits.max_memory_bytes =
      static_cast<std::uint64_t>(flags.GetInt("max-memory-mb", 0)) *
      (1ull << 20);
  limits.max_work_ticks =
      static_cast<std::uint64_t>(flags.GetInt("max-work-ticks", 0));
  return common::ResourceBudget(limits, g_cancel_token);
}

/// Announces a truncated run. Partial results are valid (patterns shown
/// are genuinely frequent in the work that completed), so the exit code
/// stays 0; scripts can read the outcome from the RunReport counters.
void PrintOutcome(common::MiningOutcome outcome) {
  if (outcome != common::MiningOutcome::kComplete) {
    std::printf("outcome: %s (partial results)\n",
                common::ToString(outcome));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: tnmine_cli <generate|stats|structural|temporal|"
               "subdue|episodes|deadhead|export|mine|client> "
               "[--flag value ...]\n"
               "common flags: --metrics-out <file> --trace-out <file>\n"
               "see the header of tools/tnmine_cli.cc for examples\n");
  return 2;
}

bool LoadData(const Flags& flags, data::TransactionDataset* dataset) {
  const std::string path = flags.Get("data", "");
  if (path.empty()) {
    std::fprintf(stderr, "--data <csv> is required\n");
    return false;
  }
  std::string error;
  if (!data::TransactionDataset::LoadCsv(path, dataset, &error)) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out <csv> is required\n");
    return 2;
  }
  data::GeneratorConfig config =
      flags.Get("scale", "small") == "paper"
          ? data::GeneratorConfig::PaperScale()
          : data::GeneratorConfig::SmallScale();
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 2005));
  const data::TransactionDataset dataset =
      data::GenerateTransportData(config);
  std::string error;
  if (!dataset.SaveCsv(out, &error)) {
    std::fprintf(stderr, "write failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %zu transactions to %s\n", dataset.size(),
              out.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  const data::DatasetStats stats = dataset.ComputeStats();
  std::printf("transactions:          %zu\n", stats.num_transactions);
  std::printf("distinct locations:    %zu\n", stats.distinct_locations);
  std::printf("distinct origins:      %zu\n", stats.distinct_origins);
  std::printf("distinct destinations: %zu\n", stats.distinct_destinations);
  std::printf("distinct OD pairs:     %zu\n", stats.distinct_od_pairs);
  std::printf("weight range:          %.0f - %.0f lb\n", stats.weight.min,
              stats.weight.max);
  std::printf("distance mean:         %.0f mi\n", stats.distance.mean);
  std::printf("TL / LTL:              %zu / %zu\n", stats.num_truckload,
              stats.num_less_than_truckload);
  return 0;
}

/// True when --`flag` is absent or one of `accepted` (the first is the
/// default). Otherwise prints a usage error listing the accepted values:
/// the commands check their choice flags before loading any data, so a
/// typo fails fast instead of silently running the default experiment.
bool IsAccepted(const Flags& flags, const char* flag,
                std::initializer_list<const char*> accepted) {
  if (!flags.Has(flag)) return true;
  const std::string value = flags.Get(flag, "");
  std::string list;
  for (const char* choice : accepted) {
    if (value == choice) return true;
    list += list.empty() ? choice : std::string(", ") + choice;
  }
  std::fprintf(stderr, "usage error: --%s '%s' is not one of: %s\n", flag,
               value.c_str(), list.c_str());
  return false;
}

/// The --attribute values BuildGraphFor understands.
bool IsAcceptedAttribute(const Flags& flags) {
  return IsAccepted(flags, "attribute", {"weight", "hours", "distance"});
}

data::OdGraph BuildGraphFor(const Flags& flags,
                            const data::TransactionDataset& dataset) {
  const std::string attr = flags.Get("attribute", "weight");
  if (attr == "hours") return data::BuildOdTh(dataset);
  if (attr == "distance") return data::BuildOdTd(dataset);
  return data::BuildOdGw(dataset);
}

int CmdStructural(const Flags& flags) {
  if (!IsAcceptedAttribute(flags) ||
      !IsAccepted(flags, "strategy", {"bf", "df"}) ||
      !IsAccepted(flags, "miner", {"fsg", "gspan"})) {
    return 2;
  }
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  const data::OdGraph od = BuildGraphFor(flags, dataset);
  core::StructuralMiningOptions options;
  options.strategy = flags.Get("strategy", "bf") == "df"
                         ? partition::SplitStrategy::kDepthFirst
                         : partition::SplitStrategy::kBreadthFirst;
  options.num_partitions =
      static_cast<std::size_t>(flags.GetInt("k", 40));
  options.min_support =
      static_cast<std::size_t>(flags.GetInt("support", 10));
  options.max_pattern_edges =
      static_cast<std::size_t>(flags.GetInt("max-edges", 3));
  options.repetitions =
      static_cast<std::size_t>(flags.GetInt("reps", 1));
  options.miner = flags.Get("miner", "fsg") == "gspan"
                      ? core::MinerKind::kGspan
                      : core::MinerKind::kFsg;
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  options.parallelism = common::Parallelism{
      static_cast<std::size_t>(flags.GetInt("threads", 0))};
  options.budget = BudgetFromFlags(flags);
  const auto result = core::MineStructuralPatterns(od.graph, options);
  PrintOutcome(result.outcome);
  std::printf("%zu frequent pattern classes\n", result.registry.size());
  const auto ranked = core::RankPatterns(result.registry);
  const std::size_t top =
      static_cast<std::size_t>(flags.GetInt("top", 3));
  const std::string dot_dir = flags.Get("dot", "");
  for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
    std::printf("\n#%zu %s", i + 1,
                pattern::RenderPattern(*ranked[i],
                                       &od.discretizer).c_str());
    if (!dot_dir.empty()) {
      pattern::DotOptions dot;
      dot.name = "pattern" + std::to_string(i + 1);
      dot.show_vertex_labels = false;
      dot.bins = &od.discretizer;
      const std::string path =
          dot_dir + "/pattern" + std::to_string(i + 1) + ".dot";
      if (graph::WriteTextFile(path, pattern::ToDot(*ranked[i], dot))) {
        std::printf("  (wrote %s)\n", path.c_str());
      }
    }
  }
  return 0;
}

int CmdTemporal(const Flags& flags) {
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  core::TemporalMiningOptions options;
  options.min_support_fraction = flags.GetDouble("support-fraction", 0.05);
  options.max_pattern_edges =
      static_cast<std::size_t>(flags.GetInt("max-edges", 3));
  options.partition.max_distinct_vertex_labels =
      static_cast<std::size_t>(flags.GetInt("max-labels", 0));
  options.parallelism = common::Parallelism{
      static_cast<std::size_t>(flags.GetInt("threads", 0))};
  options.budget = BudgetFromFlags(flags);
  const auto result = core::MineTemporalPatterns(dataset, options);
  PrintOutcome(result.outcome);
  std::printf("%zu per-day transactions (support threshold %zu)\n",
              result.partition.transactions.size(),
              result.absolute_min_support);
  std::printf("%zu temporally repeated pattern classes\n",
              result.registry.size());
  const std::size_t top =
      static_cast<std::size_t>(flags.GetInt("top", 3));
  std::size_t shown = 0;
  for (const auto* p : result.registry.SortedBySupport()) {
    if (p->graph.num_edges() < 2) continue;
    std::printf("\n%s", pattern::RenderPattern(
                            *p, &result.partition.discretizer).c_str());
    if (++shown == top) break;
  }
  return 0;
}

int CmdSubdue(const Flags& flags) {
  if (!IsAcceptedAttribute(flags) ||
      !IsAccepted(flags, "method", {"mdl", "size", "setcover"})) {
    return 2;
  }
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  const data::OdGraph od = BuildGraphFor(flags, dataset);
  subdue::SubdueOptions options;
  const std::string method = flags.Get("method", "mdl");
  options.method = method == "size"      ? subdue::EvalMethod::kSize
                   : method == "setcover" ? subdue::EvalMethod::kSetCover
                                          : subdue::EvalMethod::kMdl;
  options.beam_width =
      static_cast<std::size_t>(flags.GetInt("beam", 4));
  options.num_best = static_cast<std::size_t>(flags.GetInt("best", 3));
  options.max_pattern_edges =
      static_cast<std::size_t>(flags.GetInt("max-edges", 0));
  options.limit = static_cast<std::size_t>(flags.GetInt("limit", 0));
  options.budget = BudgetFromFlags(flags);
  const auto result = subdue::DiscoverSubstructures(od.graph, options);
  PrintOutcome(result.outcome);
  std::printf("evaluated %zu substructures (base cost %.1f)\n",
              result.substructures_evaluated, result.base_cost);
  for (std::size_t i = 0; i < result.best.size(); ++i) {
    const subdue::Substructure& sub = result.best[i];
    std::printf("#%zu value %.4f | %zu vertices, %zu edges | "
                "%zu instances (%zu disjoint)\n",
                i + 1, sub.value, sub.pattern.num_vertices(),
                sub.pattern.num_edges(), sub.instances.size(),
                sub.non_overlapping_instances);
  }
  return 0;
}

int CmdEpisodes(const Flags& flags) {
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  core::EpisodeOptions options;
  options.min_occurrences =
      static_cast<std::size_t>(flags.GetInt("min-occurrences", 5));
  options.min_period_days =
      static_cast<int>(flags.GetInt("min-period", 2));
  options.max_period_days =
      static_cast<int>(flags.GetInt("max-period", 28));
  const auto result = core::MineRouteEpisodes(dataset, options);
  std::printf("periodic routes: %zu\n", result.routes.size());
  const std::size_t top =
      static_cast<std::size_t>(flags.GetInt("top", 5));
  for (std::size_t i = 0; i < std::min(top, result.routes.size()); ++i) {
    std::printf("  %s\n",
                core::EpisodeToString(result.routes[i]).c_str());
  }
  std::printf("chained paths: %zu\n", result.paths.size());
  std::size_t shown = 0;
  for (const auto& p : result.paths) {
    if (p.stops.size() < 3) continue;
    std::printf("  %s\n", core::EpisodeToString(p).c_str());
    if (++shown == top) break;
  }
  return 0;
}

int CmdDeadhead(const Flags& flags) {
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  core::LaneBalanceOptions options;
  options.min_forward_shipments =
      static_cast<std::size_t>(flags.GetInt("min-forward", 10));
  options.min_imbalance = flags.GetDouble("min-imbalance", 0.8);
  const auto lanes = core::FindDeadheadLanes(dataset, options);
  const std::size_t top =
      static_cast<std::size_t>(flags.GetInt("top", 10));
  std::printf("deadhead lanes (one-directional traffic): %zu\n",
              lanes.size());
  for (std::size_t i = 0; i < std::min(top, lanes.size()); ++i) {
    std::printf("  %s\n", core::ToString(lanes[i]).c_str());
  }
  core::MarketFlowOptions market_options;
  market_options.min_shipments =
      static_cast<std::size_t>(flags.GetInt("min-shipments", 20));
  const auto markets = core::ComputeMarketFlows(dataset, market_options);
  std::printf("most imbalanced markets:\n");
  for (std::size_t i = 0; i < std::min(top, markets.size()); ++i) {
    std::printf("  %s\n", core::ToString(markets[i]).c_str());
  }
  return 0;
}

int CmdExport(const Flags& flags) {
  if (!IsAcceptedAttribute(flags)) return 2;
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  std::string error;
  if (flags.Has("arff")) {
    const ml::AttributeTable table =
        ml::AttributeTable::FromTransactions(dataset);
    if (!ml::SaveArff(table, "transport", flags.Get("arff", ""), &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.Get("arff", "").c_str());
  }
  if (flags.Has("subdue")) {
    const data::OdGraph od = BuildGraphFor(flags, dataset);
    if (!graph::WriteTextFile(flags.Get("subdue", ""),
                              graph::WriteSubdueFormat(od.graph))) {
      std::fprintf(stderr, "cannot write SUBDUE file\n");
      return 1;
    }
    std::printf("wrote %s\n", flags.Get("subdue", "").c_str());
  }
  if (flags.Has("fsg")) {
    const data::OdGraph od = BuildGraphFor(flags, dataset);
    partition::SplitOptions split;
    split.num_partitions =
        static_cast<std::size_t>(flags.GetInt("k", 40));
    const auto parts = partition::SplitGraph(od.graph, split);
    if (!graph::WriteTextFile(flags.Get("fsg", ""),
                              graph::WriteFsgFormat(parts))) {
      std::fprintf(stderr, "cannot write FSG file\n");
      return 1;
    }
    std::printf("wrote %s (%zu transactions)\n",
                flags.Get("fsg", "").c_str(), parts.size());
  }
  return 0;
}

/// `client` — one request to a running tnmined (DESIGN.md §14).
///
///   tnmine_cli client --connect unix:/tmp/tnmined.sock --op stats
///   tnmine_cli client --connect tcp:127.0.0.1:7077 --op structural \
///       --miner gspan --support 10 --top 3
///
/// Mining flags mirror the local subcommands (dashes become underscores
/// in the request params); only flags the caller passes are sent, so the
/// server's defaults — and thus its cache key — stay canonical. The raw
/// response JSON goes to stdout. Exit code: 0 on ok:true, 3 on a server
/// error response, 1 on transport failure.
///
/// --repeat N re-sends the same request on one connection (the second
/// response of a mining op should come back "cached":true) and
/// --disconnect-after-ms N sends the request, sleeps, and closes without
/// reading the response — the mid-flight disconnect path the server must
/// answer by cancelling the mining run.
///
/// Resilience (DESIGN.md §15): --retry N makes up to N total attempts
/// with exponential backoff + deterministic jitter
/// (--retry-backoff-ms, --retry-seed); --request-deadline-ms caps the
/// whole attempt loop; --io-timeout-ms bounds each frame read/write.
/// Request retry is gated on idempotency: every current op is a read
/// except load_snapshot and shutdown, whose requests are never
/// re-sent (their connects still retry — connecting is always safe).
/// --failpoint site:kind[:hit] arms deterministic fault injection in
/// this client process (e.g. wire/connect_fail:io:1 to prove --retry
/// rides through a transient connect failure).
/// Opens the transaction set for `mine`: an out-of-core shard directory
/// (--shard-dir, written by tnshard build) or an FSG-format text file
/// (--fsg, loaded whole into RAM). Prints and returns null on error.
std::unique_ptr<graph::TransactionSource> OpenMiningSource(
    const Flags& flags, const common::ResourceBudget& budget) {
  const std::string shard_dir = flags.Get("shard-dir", "");
  const std::string fsg_path = flags.Get("fsg", "");
  if (shard_dir.empty() == fsg_path.empty()) {
    std::fprintf(stderr,
                 "exactly one of --shard-dir <dir> or --fsg <file> is "
                 "required\n");
    return nullptr;
  }
  std::string error;
  if (!shard_dir.empty()) {
    graph::ShardedTransactionSource::Options options;
    options.max_resident_shards = static_cast<std::size_t>(
        std::max(1L, flags.GetInt("max-resident-shards", 2)));
    options.budget = budget;
    options.verify_fingerprints = flags.GetInt("verify", 0) != 0;
    auto source =
        graph::ShardedTransactionSource::Open(shard_dir, options, &error);
    if (!source)
      std::fprintf(stderr, "cannot open shard dir %s: %s\n",
                   shard_dir.c_str(), error.c_str());
    return source;
  }
  std::string text;
  if (!graph::ReadTextFile(fsg_path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", fsg_path.c_str());
    return nullptr;
  }
  std::vector<graph::LabeledGraph> transactions;
  if (!graph::ReadFsgFormat(text, &transactions, &error)) {
    std::fprintf(stderr, "cannot parse %s: %s\n", fsg_path.c_str(),
                 error.c_str());
    return nullptr;
  }
  std::vector<graph::GraphView> views;
  views.reserve(transactions.size());
  for (const graph::LabeledGraph& t : transactions) views.emplace_back(t);
  return std::make_unique<graph::InMemoryTransactionSource>(
      std::move(views));
}

/// `mine` — FSG/gSpan straight over a TransactionSource, the CLI face of
/// the out-of-core path (DESIGN.md §16). With --shard-dir the resident
/// working set is bounded by --max-resident-shards mapped shards, each
/// charged against --max-memory-mb; output is byte-identical to mining
/// the same transactions in RAM.
int CmdMine(const Flags& flags) {
  if (!IsAccepted(flags, "miner", {"fsg", "gspan"})) return 2;
  const common::ResourceBudget budget = BudgetFromFlags(flags);
  const std::unique_ptr<graph::TransactionSource> source =
      OpenMiningSource(flags, budget);
  if (!source) return 2;

  const auto min_support =
      static_cast<std::size_t>(flags.GetInt("support", 2));
  const auto max_edges =
      static_cast<std::size_t>(flags.GetInt("max-edges", 3));
  const common::Parallelism parallelism{
      static_cast<std::size_t>(flags.GetInt("threads", 0))};

  std::vector<pattern::FrequentPattern> patterns;
  common::MiningOutcome outcome;
  if (flags.Get("miner", "fsg") == "gspan") {
    gspan::GspanOptions options;
    options.min_support = min_support;
    options.max_edges = max_edges;
    options.parallelism = parallelism;
    options.budget = budget;
    gspan::GspanResult result = gspan::MineGspan(*source, options);
    outcome = result.outcome;
    patterns = std::move(result.patterns);
  } else {
    fsg::FsgOptions options;
    options.min_support = min_support;
    options.max_edges = max_edges;
    options.parallelism = parallelism;
    options.budget = budget;
    fsg::FsgResult result = fsg::MineFsg(*source, options);
    outcome = result.outcome;
    patterns = std::move(result.patterns);
  }

  PrintOutcome(outcome);
  std::printf("%zu transactions in %zu shards\n",
              source->num_transactions(), source->num_shards());
  std::printf("%zu frequent patterns\n", patterns.size());
  const auto top = static_cast<std::size_t>(flags.GetInt("top", 3));
  // Rank by support descending; ties keep the miner's deterministic
  // enumeration order, so this listing is stable across runs too.
  std::vector<const pattern::FrequentPattern*> ranked;
  ranked.reserve(patterns.size());
  for (const pattern::FrequentPattern& p : patterns) ranked.push_back(&p);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const pattern::FrequentPattern* a,
                      const pattern::FrequentPattern* b) {
                     return a->support > b->support;
                   });
  for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
    const pattern::FrequentPattern& p = *ranked[i];
    std::printf("#%zu support=%zu vertices=%zu edges=%zu\n", i + 1,
                p.support, static_cast<std::size_t>(p.graph.num_vertices()),
                static_cast<std::size_t>(p.graph.num_edges()));
  }
  return 0;
}

int CmdClient(const Flags& flags) {
  const std::string connect = flags.Get("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr,
                 "--connect <unix:/path|tcp:host:port> is required\n");
    return 2;
  }
  const std::string op = flags.Get("op", "ping");

  for (const std::string& spec : flags.GetAll("failpoint")) {
    if (!tnmine::failpoint::ArmFromSpec(spec)) {
      std::fprintf(stderr, "client: bad --failpoint spec '%s'\n",
                   spec.c_str());
      return 2;
    }
  }

  server::RetryPolicy policy;
  policy.max_attempts =
      static_cast<int>(std::max(1L, flags.GetInt("retry", 1)));
  policy.initial_backoff_ms =
      static_cast<std::uint64_t>(flags.GetInt("retry-backoff-ms", 50));
  policy.jitter_seed =
      static_cast<std::uint64_t>(flags.GetInt("retry-seed", 1));
  policy.request_deadline_ms = static_cast<std::uint64_t>(
      flags.GetInt("request-deadline-ms", 0));
  // All current ops are reads; the mutating ones must not be re-sent
  // after an ambiguous transport failure (the first send may have been
  // applied).
  const bool idempotent =
      op != "load_snapshot" && op != "load_shards" && op != "shutdown";

  server::JsonValue request = server::JsonValue::MakeObject();
  request.Set("op", server::JsonValue(op));
  if (flags.Has("id"))
    request.Set("id", server::JsonValue(flags.Get("id", "")));

  server::JsonValue params = server::JsonValue::MakeObject();
  if (op == "load_snapshot") {
    params.Set("path", server::JsonValue(flags.Get("path", "")));
  } else if (op == "load_shards") {
    params.Set("dir", server::JsonValue(flags.Get("dir", "")));
  } else if (op == "structural" || op == "temporal" ||
             op == "mine_shards") {
    static constexpr const char* kStringFlags[] = {"attribute", "strategy",
                                                   "miner"};
    static constexpr const char* kIntFlags[] = {
        "k",           "support",        "max-edges",
        "max-labels",  "reps",           "seed",
        "threads",     "top",            "max-resident-shards",
        "deadline-ms", "max-work-ticks", "max-memory-mb"};
    static constexpr const char* kDoubleFlags[] = {"support-fraction"};
    const auto param_name = [](std::string name) {
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    };
    for (const char* flag : kStringFlags)
      if (flags.Has(flag))
        params.Set(param_name(flag),
                   server::JsonValue(flags.Get(flag, "")));
    for (const char* flag : kIntFlags)
      if (flags.Has(flag))
        params.Set(param_name(flag),
                   server::JsonValue(
                       static_cast<std::int64_t>(flags.GetInt(flag, 0))));
    for (const char* flag : kDoubleFlags)
      if (flags.Has(flag))
        params.Set(param_name(flag),
                   server::JsonValue(flags.GetDouble(flag, 0.0)));
  }
  if (!params.object().empty()) request.Set("params", params);

  server::BlockingClient client;
  client.set_io_timeout_ms(
      static_cast<std::uint64_t>(flags.GetInt("io-timeout-ms", 0)));
  std::string error;
  if (!client.Connect(connect, policy, &error)) {
    std::fprintf(stderr, "client: %s\n", error.c_str());
    return 1;
  }

  if (flags.Has("disconnect-after-ms")) {
    const long wait_ms = flags.GetInt("disconnect-after-ms", 0);
    if (!client.Send(request, &error)) {
      std::fprintf(stderr, "client: %s\n", error.c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    client.Close();
    std::printf("disconnected after %ld ms\n", wait_ms);
    return 0;
  }

  const long repeat = std::max(1L, flags.GetInt("repeat", 1));
  int rc = 0;
  for (long i = 0; i < repeat; ++i) {
    server::JsonValue response;
    if (!client.CallWithRetry(request, policy, idempotent, &response,
                              &error)) {
      std::fprintf(stderr, "client: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", response.Serialize().c_str());
    if (!response.Get("ok").AsBool(false)) rc = 3;
  }
  return rc;
}

}  // namespace

int Dispatch(const std::string& command, const Flags& flags, bool* known) {
  *known = true;
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "structural") return CmdStructural(flags);
  if (command == "temporal") return CmdTemporal(flags);
  if (command == "subdue") return CmdSubdue(flags);
  if (command == "episodes") return CmdEpisodes(flags);
  if (command == "deadhead") return CmdDeadhead(flags);
  if (command == "export") return CmdExport(flags);
  if (command == "mine") return CmdMine(flags);
  if (command == "client") return CmdClient(flags);
  *known = false;
  return Usage();
}

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (!flags.ok()) return 2;

  g_cancel_token = std::make_shared<tnmine::common::CancelToken>();
  g_cancel_raw = g_cancel_token.get();
  std::signal(SIGINT, HandleSigint);

  const std::string trace_out = flags.Get("trace-out", "");
  const std::string metrics_out = flags.Get("metrics-out", "");
  if (!trace_out.empty()) tnmine::trace::Session::Start();

  const auto start = std::chrono::steady_clock::now();
  bool known = false;
  const int rc = Dispatch(command, flags, &known);
  if (!known) return rc;

  if (!trace_out.empty()) {
    tnmine::trace::Session::Stop();
    if (!tnmine::trace::Session::WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "warning: could not write trace to %s\n",
                   trace_out.c_str());
    }
  }
  if (!metrics_out.empty()) {
    tnmine::telemetry::RunReportOptions report;
    report.binary = "tnmine_cli";
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    report.extra["command"] = command;
    if (g_cancel_token->cancelled()) report.extra["interrupted"] = "sigint";
    if (!tnmine::telemetry::WriteRunReport(metrics_out, report)) {
      std::fprintf(stderr, "warning: could not write RunReport to %s\n",
                   metrics_out.c_str());
    }
  }
  return rc;
}
