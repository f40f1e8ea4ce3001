#include "server/request.h"

#include <algorithm>
#include <utility>

#include "common/parse.h"
#include "fsg/fsg.h"
#include "gspan/gspan.h"
#include "partition/split_graph.h"

namespace tnmine::server {

namespace {

using Kind = ParamSpec::Kind;

constexpr ParamSpec Int(const char* name, std::int64_t default_value,
                        std::int64_t min = 0) {
  return {name, Kind::kInt, default_value, min};
}

constexpr ParamSpec Fraction(const char* name, double default_value) {
  return {name, Kind::kFraction, 0, 0, default_value};
}

constexpr ParamSpec Choice(const char* name,
                           std::span<const char* const> choices) {
  return {name, Kind::kChoice, 0, 0, 0, choices};
}

constexpr const char* kAttributes[] = {"weight", "hours", "distance"};
constexpr const char* kStrategies[] = {"bf", "df"};
constexpr const char* kMiners[] = {"fsg", "gspan"};
constexpr const char* kMethods[] = {"mdl", "size", "setcover"};

constexpr ParamSpec kStructuralParams[] = {
    Choice("attribute", kAttributes),
    Choice("strategy", kStrategies),
    Choice("miner", kMiners),
    Int("k", 40, 1),
    Int("support", 10),
    Int("max_edges", 3),
    Int("reps", 1, 1),
    Int("seed", 1),
    Int("threads", 0),
    Int("top", 5),
    Int("deadline_ms", 0),
    Int("max_work_ticks", 0),
    Int("max_memory_mb", 0),
};

constexpr ParamSpec kShardMiningParams[] = {
    Choice("miner", kMiners),
    Int("support", 2),
    Int("max_edges", 3),
    Int("threads", 0),
    Int("top", 5),
    Int("max_resident_shards", 2),
    Int("deadline_ms", 0),
    Int("max_work_ticks", 0),
    Int("max_memory_mb", 0),
};

constexpr ParamSpec kTemporalParams[] = {
    Fraction("support_fraction", 0.05),
    Int("max_edges", 3),
    Int("max_labels", 0),
    Int("threads", 0),
    Int("top", 5),
    Int("deadline_ms", 0),
    Int("max_work_ticks", 0),
    Int("max_memory_mb", 0),
};

constexpr ParamSpec kSubdueParams[] = {
    Choice("attribute", kAttributes),
    Choice("method", kMethods),
    Int("beam", 4, 1),
    Int("best", 3, 1),
    Int("max_edges", 0),
    Int("limit", 0),
    Int("deadline_ms", 0),
    Int("max_work_ticks", 0),
    Int("max_memory_mb", 0),
};

/// `export --fsg` writes the partitions a structural request would mine.
constexpr ParamSpec kExportParams[] = {
    Choice("attribute", kAttributes),
    Int("k", 40, 1),
};

std::size_t Size(const JsonValue& params, std::string_view name) {
  return static_cast<std::size_t>(params.Get(name).AsInt());
}

common::Parallelism Lanes(const JsonValue& params,
                          common::Parallelism fallback) {
  return params.Get("threads").AsInt() > 0
             ? common::Parallelism{Size(params, "threads")}
             : fallback;
}

/// FsgOptions or GspanOptions of a mine_shards request.
template <typename Options>
Options MinerOptions(const JsonValue& params, common::Parallelism lanes,
                     const common::ResourceBudget& budget) {
  Options options;
  options.min_support = Size(params, "support");
  options.max_edges = Size(params, "max_edges");
  options.parallelism = Lanes(params, lanes);
  options.budget = budget;
  return options;
}

}  // namespace

std::span<const ParamSpec> ParamSchema(std::string_view op) {
  if (op == "structural") return kStructuralParams;
  if (op == "temporal") return kTemporalParams;
  if (op == "mine_shards") return kShardMiningParams;
  if (op == "subdue") return kSubdueParams;
  if (op == "export") return kExportParams;
  return {};
}

bool CheckParam(const ParamSpec& spec, const JsonValue& value,
                std::string* must_be) {
  switch (spec.kind) {
    case Kind::kChoice:
      if (!value.is_string()) {
        *must_be = "a string";
        return false;
      }
      if (std::find(spec.choices.begin(), spec.choices.end(),
                    value.AsString()) != spec.choices.end()) {
        return true;
      }
      *must_be = "one of: ";
      for (const char* choice : spec.choices) {
        if (choice != spec.choices[0]) *must_be += ", ";
        *must_be += choice;
      }
      return false;
    case Kind::kFraction:
      if (!value.is_number()) {
        *must_be = "a number";
        return false;
      }
      if (value.AsDouble() >= 0.0 && value.AsDouble() <= 1.0) return true;
      *must_be = "in [0, 1]";
      return false;
    case Kind::kInt:
      if (value.kind() != JsonValue::Kind::kInt) {
        *must_be = "an integer";
        return false;
      }
      if (value.AsInt() >= spec.min) return true;
      *must_be = "at least " + std::to_string(spec.min);
      return false;
  }
  return false;
}

JsonValue ParamFromText(const ParamSpec& spec, std::string_view text) {
  std::int64_t integer = 0;
  double number = 0.0;
  if (spec.kind == Kind::kInt && ParseInt64(text, &integer)) {
    return JsonValue(integer);
  }
  if (spec.kind == Kind::kFraction && ParseFiniteDouble(text, &number)) {
    return JsonValue(number);
  }
  return JsonValue(std::string(text));
}

bool CanonicalizeParams(const JsonValue& given,
                        std::span<const ParamSpec> schema,
                        JsonValue* canonical, std::string* error) {
  *canonical = JsonValue::MakeObject();
  if (!given.is_null() && !given.is_object()) {
    *error = "params must be an object";
    return false;
  }
  for (const ParamSpec& spec : schema) {
    const JsonValue& v = given.Get(spec.name);
    std::string must_be;
    if (!v.is_null() && !CheckParam(spec, v, &must_be)) {
      *error = std::string("param '") + spec.name + "' must be " + must_be;
      return false;
    }
    switch (spec.kind) {
      case Kind::kChoice:
        canonical->Set(spec.name, v.AsString(spec.choices[0]));
        break;
      case Kind::kFraction:
        canonical->Set(spec.name, v.AsDouble(spec.default_fraction));
        break;
      case Kind::kInt:
        canonical->Set(spec.name, v.AsInt(spec.default_int));
        break;
    }
  }
  if (given.is_object()) {
    for (const auto& [key, unused] : given.object()) {
      if (std::none_of(schema.begin(), schema.end(),
                       [&](const ParamSpec& spec) {
                         return key == spec.name;
                       })) {
        *error = "unknown param '" + key + "'";
        return false;
      }
    }
  }
  return true;
}

common::ResourceBudget BudgetFor(
    const JsonValue& params, const common::BudgetLimits& defaults,
    std::shared_ptr<common::CancelToken> token) {
  common::BudgetLimits limits;
  limits.deadline_ms =
      static_cast<std::uint64_t>(params.Get("deadline_ms").AsInt());
  limits.max_work_ticks =
      static_cast<std::uint64_t>(params.Get("max_work_ticks").AsInt());
  limits.max_memory_bytes =
      static_cast<std::uint64_t>(params.Get("max_memory_mb").AsInt())
      << 20;
  if (limits.deadline_ms == 0) limits.deadline_ms = defaults.deadline_ms;
  if (limits.max_work_ticks == 0) {
    limits.max_work_ticks = defaults.max_work_ticks;
  }
  if (limits.max_memory_bytes == 0) {
    limits.max_memory_bytes = defaults.max_memory_bytes;
  }
  return common::ResourceBudget(limits, std::move(token));
}

std::span<const char* const> OdAttributes() { return kAttributes; }

data::OdGraph BuildOdGraph(const data::TransactionDataset& dataset,
                           std::string_view attribute) {
  if (attribute == "hours") return data::BuildOdTh(dataset);
  if (attribute == "distance") return data::BuildOdTd(dataset);
  return data::BuildOdGw(dataset);
}

core::StructuralMiningOptions StructuralOptions(
    const JsonValue& params, common::Parallelism lanes,
    const common::ResourceBudget& budget) {
  core::StructuralMiningOptions options;
  options.strategy = params.Get("strategy").AsString() == "df"
                         ? partition::SplitStrategy::kDepthFirst
                         : partition::SplitStrategy::kBreadthFirst;
  options.num_partitions = Size(params, "k");
  options.min_support = Size(params, "support");
  options.max_pattern_edges = Size(params, "max_edges");
  options.repetitions = Size(params, "reps");
  options.miner = params.Get("miner").AsString() == "gspan"
                      ? core::MinerKind::kGspan
                      : core::MinerKind::kFsg;
  options.seed = static_cast<std::uint64_t>(params.Get("seed").AsInt());
  options.parallelism = Lanes(params, lanes);
  options.budget = budget;
  return options;
}

core::TemporalMiningOptions TemporalOptions(
    const JsonValue& params, common::Parallelism lanes,
    const common::ResourceBudget& budget) {
  core::TemporalMiningOptions options;
  options.min_support_fraction = params.Get("support_fraction").AsDouble();
  options.max_pattern_edges = Size(params, "max_edges");
  options.partition.max_distinct_vertex_labels = Size(params, "max_labels");
  options.parallelism = Lanes(params, lanes);
  options.budget = budget;
  return options;
}

subdue::SubdueOptions SubdueOptionsFor(const JsonValue& params,
                                       const common::ResourceBudget& budget) {
  subdue::SubdueOptions options;
  const std::string& method = params.Get("method").AsString();
  options.method = method == "size"       ? subdue::EvalMethod::kSize
                   : method == "setcover" ? subdue::EvalMethod::kSetCover
                                          : subdue::EvalMethod::kMdl;
  options.beam_width = Size(params, "beam");
  options.num_best = Size(params, "best");
  options.max_pattern_edges = Size(params, "max_edges");
  options.limit = Size(params, "limit");
  options.budget = budget;
  return options;
}

graph::ShardedTransactionSource::Options ShardSourceOptions(
    const JsonValue& params, const common::ResourceBudget& budget) {
  graph::ShardedTransactionSource::Options options;
  options.max_resident_shards =
      std::max<std::size_t>(1, Size(params, "max_resident_shards"));
  options.budget = budget;
  return options;
}

TransactionMiningResult MineTransactions(
    graph::TransactionSource& source, const JsonValue& params,
    common::Parallelism lanes, const common::ResourceBudget& budget) {
  if (params.Get("miner").AsString() == "gspan") {
    gspan::GspanResult mined = gspan::MineGspan(
        source, MinerOptions<gspan::GspanOptions>(params, lanes, budget));
    return {std::move(mined.patterns), mined.outcome, mined.work_ticks};
  }
  fsg::FsgResult mined = fsg::MineFsg(
      source, MinerOptions<fsg::FsgOptions>(params, lanes, budget));
  return {std::move(mined.patterns), mined.outcome, mined.work_ticks};
}

std::vector<const pattern::FrequentPattern*> RankBySupport(
    const std::vector<pattern::FrequentPattern>& patterns) {
  std::vector<const pattern::FrequentPattern*> ranked;
  ranked.reserve(patterns.size());
  for (const pattern::FrequentPattern& p : patterns) ranked.push_back(&p);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const pattern::FrequentPattern* a,
                      const pattern::FrequentPattern* b) {
                     return a->support > b->support;
                   });
  return ranked;
}

}  // namespace tnmine::server
