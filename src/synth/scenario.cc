#include "synth/scenario.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/parse.h"

namespace tnmine::synth {

namespace {

/// Full-round-trip double formatting ("%.17g" survives parse-back exactly;
/// ParseDouble accepts the scientific notation it can emit).
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void AppendField(std::string& out, const char* key, const std::string& v) {
  out += key;
  out += ": ";
  out += v;
  out += "\n";
}

}  // namespace

const char* ToString(ScenarioPartitioner partitioner) {
  switch (partitioner) {
    case ScenarioPartitioner::kNone:
      return "none";
    case ScenarioPartitioner::kMultilevel:
      return "multilevel";
  }
  return "none";
}

ScenarioConfig DrawScenario(Rng& rng) {
  ScenarioConfig config;
  KkOptions& g = config.generator;
  // ~5% empty transaction sets keep the all-empty paths under test.
  g.num_transactions = rng.NextBool(0.05) ? 0 : 4 + rng.NextBounded(28);
  g.avg_transaction_edges = rng.NextDouble(3.0, 12.0);
  g.num_seed_patterns = rng.NextBounded(6);  // 0 hits the no-pool path
  g.avg_pattern_edges = rng.NextDouble(1.5, 4.0);
  g.num_vertex_labels = 1 + static_cast<int>(rng.NextBounded(5));
  g.num_edge_labels = 1 + static_cast<int>(rng.NextBounded(3));
  g.seed = rng.Next();
  g.hub_skew = rng.NextBool(0.5) ? rng.NextDouble(0.5, 2.0) : 0.0;
  g.seasonality_period =
      rng.NextBool(0.5) ? 1 + rng.NextBounded(4) : 0;
  g.disruption_rate = rng.NextBool(0.5) ? rng.NextDouble(0.05, 0.4) : 0.0;
  g.motif_concentration =
      rng.NextBool(0.5) ? rng.NextDouble(0.5, 2.0) : 0.0;
  config.partitioner = rng.NextBool(0.3) ? ScenarioPartitioner::kMultilevel
                                         : ScenarioPartitioner::kNone;
  config.num_partitions = 2 + rng.NextBounded(4);
  config.min_support = rng.NextBounded(5);  // 0 and 1 are on purpose
  config.max_edges = 2 + rng.NextBounded(3);
  config.num_threads = rng.NextBool() ? 2 : 4;
  config.budget_fraction = rng.NextDouble(0.25, 0.75);
  return config;
}

ScenarioConfig DrawSymmetricScenario(Rng& rng) {
  ScenarioConfig config;
  KkOptions& g = config.generator;
  g.num_transactions = 4 + rng.NextBounded(7);
  g.avg_transaction_edges = rng.NextDouble(4.0, 8.0);
  g.num_seed_patterns = 1 + rng.NextBounded(3);
  g.avg_pattern_edges = rng.NextDouble(3.0, 5.0);
  g.num_vertex_labels = 1;
  g.num_edge_labels = 1 + static_cast<int>(rng.NextBounded(2));
  g.seed = rng.Next();
  g.hub_skew = rng.NextBool(0.7) ? rng.NextDouble(0.5, 2.0) : 0.0;
  g.motif_concentration =
      rng.NextBool(0.5) ? rng.NextDouble(0.5, 2.0) : 0.0;
  config.min_support = 2 + rng.NextBounded(3);
  config.max_edges = 5;
  config.num_threads = rng.NextBool() ? 2 : 4;
  config.budget_fraction = rng.NextDouble(0.25, 0.75);
  return config;
}

ScenarioConfig DrawLabelRichScenario(Rng& rng) {
  ScenarioConfig config;
  KkOptions& g = config.generator;
  g.num_transactions = 8 + rng.NextBounded(23);
  g.avg_transaction_edges = rng.NextDouble(6.0, 14.0);
  // A large pool drawn Zipf-skewed: the first few patterns recur, most
  // of the rest are embedded once or twice.
  g.num_seed_patterns = 15 + rng.NextBounded(36);
  g.avg_pattern_edges = rng.NextDouble(2.0, 4.0);
  g.num_vertex_labels = 40 + static_cast<int>(rng.NextBounded(161));
  g.num_edge_labels = 1 + static_cast<int>(rng.NextBounded(3));
  g.seed = rng.Next();
  g.hub_skew = rng.NextBool(0.5) ? rng.NextDouble(0.5, 2.0) : 0.0;
  g.motif_concentration = rng.NextDouble(0.8, 2.0);
  config.min_support = 2 + rng.NextBounded(3);
  config.max_edges = 3 + rng.NextBounded(2);
  config.num_threads = rng.NextBool() ? 2 : 4;
  config.budget_fraction = rng.NextDouble(0.25, 0.75);
  return config;
}

std::string SerializeScenario(const ScenarioConfig& config) {
  const KkOptions& g = config.generator;
  std::string out;
  AppendField(out, "num_transactions", std::to_string(g.num_transactions));
  AppendField(out, "avg_transaction_edges",
              FormatDouble(g.avg_transaction_edges));
  AppendField(out, "num_seed_patterns", std::to_string(g.num_seed_patterns));
  AppendField(out, "avg_pattern_edges", FormatDouble(g.avg_pattern_edges));
  AppendField(out, "num_vertex_labels", std::to_string(g.num_vertex_labels));
  AppendField(out, "num_edge_labels", std::to_string(g.num_edge_labels));
  AppendField(out, "generator_seed", std::to_string(g.seed));
  AppendField(out, "hub_skew", FormatDouble(g.hub_skew));
  AppendField(out, "seasonality_period",
              std::to_string(g.seasonality_period));
  AppendField(out, "disruption_rate", FormatDouble(g.disruption_rate));
  AppendField(out, "motif_concentration",
              FormatDouble(g.motif_concentration));
  AppendField(out, "partitioner", ToString(config.partitioner));
  AppendField(out, "num_partitions", std::to_string(config.num_partitions));
  AppendField(out, "min_support", std::to_string(config.min_support));
  AppendField(out, "max_edges", std::to_string(config.max_edges));
  AppendField(out, "num_threads", std::to_string(config.num_threads));
  AppendField(out, "budget_fraction", FormatDouble(config.budget_fraction));
  return out;
}

bool ParseScenario(std::string_view text, ScenarioConfig* config,
                   std::string* error) {
  ScenarioConfig parsed;
  KkOptions& g = parsed.generator;
  bool ok = true;
  ForEachLine(text, [&](std::size_t line_number, std::string_view line) {
    const std::size_t sep = line.find(':');
    if (sep == std::string_view::npos) return true;  // metadata / prose
    std::string_view key = line.substr(0, sep);
    std::string_view value = line.substr(sep + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    auto fail = [&](const char* what) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": bad " +
                 std::string(what) + " value '" + std::string(value) + "'";
      }
      ok = false;
      return false;  // stop at the first malformed value
    };
    auto size_field = [&](std::size_t* out) {
      std::size_t v = 0;
      if (!ParseSize(value, &v)) return fail(std::string(key).c_str());
      *out = v;
      return true;
    };
    auto double_field = [&](double* out) {
      double v = 0;
      if (!ParseFiniteDouble(value, &v)) return fail(std::string(key).c_str());
      *out = v;
      return true;
    };
    if (key == "num_transactions") return size_field(&g.num_transactions);
    if (key == "avg_transaction_edges") {
      return double_field(&g.avg_transaction_edges);
    }
    if (key == "num_seed_patterns") return size_field(&g.num_seed_patterns);
    if (key == "avg_pattern_edges") return double_field(&g.avg_pattern_edges);
    if (key == "num_vertex_labels" || key == "num_edge_labels") {
      std::int32_t v = 0;
      if (!ParseInt32(value, &v)) return fail(std::string(key).c_str());
      (key == "num_vertex_labels" ? g.num_vertex_labels : g.num_edge_labels) =
          v;
      return true;
    }
    if (key == "generator_seed") {
      std::uint64_t v = 0;
      if (!ParseUint64(value, &v)) return fail("generator_seed");
      g.seed = v;
      return true;
    }
    if (key == "hub_skew") return double_field(&g.hub_skew);
    if (key == "seasonality_period") return size_field(&g.seasonality_period);
    if (key == "disruption_rate") return double_field(&g.disruption_rate);
    if (key == "motif_concentration") {
      return double_field(&g.motif_concentration);
    }
    if (key == "partitioner") {
      if (value == "none") {
        parsed.partitioner = ScenarioPartitioner::kNone;
      } else if (value == "multilevel") {
        parsed.partitioner = ScenarioPartitioner::kMultilevel;
      } else {
        return fail("partitioner");
      }
      return true;
    }
    if (key == "num_partitions") return size_field(&parsed.num_partitions);
    if (key == "min_support") return size_field(&parsed.min_support);
    if (key == "max_edges") return size_field(&parsed.max_edges);
    if (key == "num_threads") {
      std::int32_t v = 0;
      if (!ParseInt32(value, &v) || v < 1) return fail("num_threads");
      parsed.num_threads = v;
      return true;
    }
    if (key == "budget_fraction") return double_field(&parsed.budget_fraction);
    return true;  // unknown key: sidecar metadata
  });
  if (ok && config != nullptr) *config = parsed;
  return ok;
}

}  // namespace tnmine::synth
