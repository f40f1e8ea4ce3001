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
// (structural, temporal, subdue, mine) accept
//   --deadline-ms <n>      stop mining after n milliseconds of wall time
//   --max-memory-mb <n>    ceiling on the estimated bytes the miners
//                          track: FSG's retained level-1 index, frontier
//                          and candidates, gSpan's projections, and the
//                          resident shards of `mine --shard-dir`
//   --max-work-ticks <n>   deterministic work budget (same tick budget =>
//                          byte-identical partial results at any --threads)
// A truncated run prints its outcome (deadline_exceeded,
// memory_budget_exceeded, cancelled), returns the partial results mined
// so far, and still flushes --metrics-out / --trace-out. SIGINT (Ctrl-C)
// cancels cooperatively through the same mechanism instead of killing
// the process.
//
// Usage errors exit 2 before any data loads or connection opens: a
// malformed number anywhere (--support ten, --support 12x), and on
// structural, temporal, subdue, mine, export and client's mining ops a
// value tnmined would reject too (--reps 0, --strategy dfs) or a flag the
// command does not have (--suport). Those commands' flags are the knobs
// of the request schema (server/request.h), dashes for underscores.
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
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/episodes.h"
#include "core/flow_balance.h"
#include "core/interestingness.h"
#include "core/miner.h"
#include "data/generator.h"
#include "data/od_graph.h"
#include "graph/graph_io.h"
#include "graph/transaction_source.h"
#include "ml/arff.h"
#include "partition/split_graph.h"
#include "pattern/dot.h"
#include "pattern/render.h"
#include "server/json.h"
#include "server/request.h"
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

/// Reads the flags of a command whose knobs are `op`'s request schema
/// (--max-edges sets max_edges) into params, each checked as tnmined
/// checks a request. Any other flag must be one of `own` or
/// --metrics-out / --trace-out: a typoed knob must not silently mine
/// the default. False after a usage error.
bool GivenParams(const Flags& flags, std::string_view op,
                 std::initializer_list<std::string_view> own,
                 server::JsonValue* params) {
  const std::span<const server::ParamSpec> schema = server::ParamSchema(op);
  *params = server::JsonValue::MakeObject();
  for (const auto& [flag, values] : flags.values()) {
    const auto spec = std::find_if(
        schema.begin(), schema.end(), [&](const server::ParamSpec& knob) {
          std::string spelled = knob.name;
          std::replace(spelled.begin(), spelled.end(), '_', '-');
          return flag == spelled;
        });
    if (spec == schema.end()) {
      if (flag == "metrics-out" || flag == "trace-out" ||
          std::find(own.begin(), own.end(), flag) != own.end()) {
        continue;
      }
      std::fprintf(stderr, "usage error: unknown flag --%s\n", flag.c_str());
      return false;
    }
    server::JsonValue value = server::ParamFromText(*spec, values.back());
    std::string must_be;
    if (!server::CheckParam(*spec, value, &must_be)) {
      std::fprintf(stderr, "usage error: --%s '%s' is not %s\n",
                   flag.c_str(), values.back().c_str(), must_be.c_str());
      return false;
    }
    params->Set(spec->name, std::move(value));
  }
  return true;
}

/// GivenParams made canonical: every other knob at its default, and the
/// listing length at kCliTop.
bool ReadParams(const Flags& flags, std::string_view op,
                std::initializer_list<std::string_view> own,
                server::JsonValue* params) {
  server::JsonValue given;
  std::string error;
  if (!GivenParams(flags, op, own, &given)) return false;
  if (!server::CanonicalizeParams(given, server::ParamSchema(op), params,
                                  &error)) {
    std::fprintf(stderr, "usage error: %s\n", error.c_str());
    return false;
  }
  if (params->Has("top") && !given.Has("top")) {
    params->Set("top", server::kCliTop);
  }
  return true;
}

int CmdStructural(const Flags& flags) {
  server::JsonValue params;
  if (!ReadParams(flags, "structural", {"data", "dot"}, &params)) return 2;
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  const data::OdGraph od =
      server::BuildOdGraph(dataset, params.Get("attribute").AsString());
  const core::StructuralMiningOptions options = server::StructuralOptions(
      params, {}, server::BudgetFor(params, {}, g_cancel_token));
  const auto result = core::MineStructuralPatterns(od.graph, options);
  PrintOutcome(result.outcome);
  std::printf("%zu frequent pattern classes\n", result.registry.size());
  const auto ranked = core::RankPatterns(result.registry);
  const auto top = static_cast<std::size_t>(params.Get("top").AsInt());
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
  server::JsonValue params;
  if (!ReadParams(flags, "temporal", {"data"}, &params)) return 2;
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  const core::TemporalMiningOptions options = server::TemporalOptions(
      params, {}, server::BudgetFor(params, {}, g_cancel_token));
  const auto result = core::MineTemporalPatterns(dataset, options);
  PrintOutcome(result.outcome);
  std::printf("%zu per-day transactions (support threshold %zu)\n",
              result.partition.transactions.size(),
              result.absolute_min_support);
  std::printf("%zu temporally repeated pattern classes\n",
              result.registry.size());
  const auto top = static_cast<std::size_t>(params.Get("top").AsInt());
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
  server::JsonValue params;
  if (!ReadParams(flags, "subdue", {"data"}, &params)) return 2;
  data::TransactionDataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  const data::OdGraph od =
      server::BuildOdGraph(dataset, params.Get("attribute").AsString());
  const subdue::SubdueOptions options = server::SubdueOptionsFor(
      params, server::BudgetFor(params, {}, g_cancel_token));
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
  server::JsonValue params;
  if (!ReadParams(flags, "export", {"data", "arff", "subdue", "fsg"},
                  &params)) {
    return 2;
  }
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
    const data::OdGraph od =
      server::BuildOdGraph(dataset, params.Get("attribute").AsString());
    if (!graph::WriteTextFile(flags.Get("subdue", ""),
                              graph::WriteSubdueFormat(od.graph))) {
      std::fprintf(stderr, "cannot write SUBDUE file\n");
      return 1;
    }
    std::printf("wrote %s\n", flags.Get("subdue", "").c_str());
  }
  if (flags.Has("fsg")) {
    const data::OdGraph od =
      server::BuildOdGraph(dataset, params.Get("attribute").AsString());
    partition::SplitOptions split;
    split.num_partitions = static_cast<std::size_t>(params.Get("k").AsInt());
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

/// Opens the transaction set for `mine`: an out-of-core shard directory
/// (--shard-dir, written by tnshard build) or an FSG-format text file
/// (--fsg, loaded whole into RAM). Prints and returns null on error.
std::unique_ptr<graph::TransactionSource> OpenMiningSource(
    const Flags& flags, const server::JsonValue& params,
    const common::ResourceBudget& budget) {
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
    graph::ShardedTransactionSource::Options options =
        server::ShardSourceOptions(params, budget);
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
  server::JsonValue params;
  if (!ReadParams(flags, "mine_shards", {"shard-dir", "fsg", "verify"},
                  &params)) {
    return 2;
  }
  const common::ResourceBudget budget =
      server::BudgetFor(params, {}, g_cancel_token);
  const std::unique_ptr<graph::TransactionSource> source =
      OpenMiningSource(flags, params, budget);
  if (!source) return 2;

  const server::TransactionMiningResult mined =
      server::MineTransactions(*source, params, {}, budget);
  PrintOutcome(mined.outcome);
  std::printf("%zu transactions in %zu shards\n",
              source->num_transactions(), source->num_shards());
  std::printf("%zu frequent patterns\n", mined.patterns.size());
  const auto ranked = server::RankBySupport(mined.patterns);
  const auto top = static_cast<std::size_t>(params.Get("top").AsInt());
  for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
    const pattern::FrequentPattern& p = *ranked[i];
    std::printf("#%zu support=%zu vertices=%zu edges=%zu\n", i + 1,
                p.support, static_cast<std::size_t>(p.graph.num_vertices()),
                static_cast<std::size_t>(p.graph.num_edges()));
  }
  return 0;
}

/// `client` — one request to a running tnmined (DESIGN.md §14).
///
///   tnmine_cli client --connect unix:/tmp/tnmined.sock --op stats
///   tnmine_cli client --connect tcp:127.0.0.1:7077 --op structural \
///       --miner gspan --support 10 --top 3
///
/// A mining op's flags are the knobs of its request schema, checked as
/// for the local subcommands before any connection opens. Only the
/// knobs the caller passes are sent, so the server's defaults — and
/// thus its cache key — stay canonical. The raw response JSON goes to
/// stdout. Exit code: 0 on ok:true, 2 on a usage error, 3 on a server
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
    if (!GivenParams(flags, op,
                     {"connect", "op", "id", "failpoint", "retry",
                      "retry-backoff-ms", "retry-seed", "request-deadline-ms",
                      "io-timeout-ms", "disconnect-after-ms", "repeat"},
                     &params)) {
      return 2;
    }
  }
  if (!params.object().empty()) request.Set("params", params);
  const long wait_ms = flags.GetInt("disconnect-after-ms", 0);
  const long repeat = std::max(1L, flags.GetInt("repeat", 1));

  server::BlockingClient client;
  client.set_io_timeout_ms(
      static_cast<std::uint64_t>(flags.GetInt("io-timeout-ms", 0)));
  std::string error;
  if (!client.Connect(connect, policy, &error)) {
    std::fprintf(stderr, "client: %s\n", error.c_str());
    return 1;
  }

  if (flags.Has("disconnect-after-ms")) {
    if (!client.Send(request, &error)) {
      std::fprintf(stderr, "client: %s\n", error.c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    client.Close();
    std::printf("disconnected after %ld ms\n", wait_ms);
    return 0;
  }

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
