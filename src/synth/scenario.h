#ifndef TNMINE_SYNTH_SCENARIO_H_
#define TNMINE_SYNTH_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/random.h"
#include "synth/kk_generator.h"

namespace tnmine::synth {

/// How a scenario turns the generated transactions into the miner's input.
enum class ScenarioPartitioner : std::uint8_t {
  /// The KK transactions are mined directly.
  kNone,
  /// The KK transactions are flattened into one disjoint-union graph and
  /// re-cut with the multilevel partitioner; the extracted partitions are
  /// the transactions. Exercises the partition-then-mine composition of
  /// the paper's pipeline with a partitioner the miners never chose.
  kMultilevel,
};

const char* ToString(ScenarioPartitioner partitioner);

/// One end-to-end differential-fuzz scenario: a full recipe for building
/// a transaction set and the mining parameters every oracle leg shares.
/// The config is the entire replay artifact — serialize it, parse it back,
/// and the identical scenario re-runs byte-for-byte (see
/// tools/scenario_fuzz.cc for the oracle suite that consumes it).
struct ScenarioConfig {
  /// Transaction-set recipe, including the generator seed and the
  /// transportation-texture knobs (hub skew, seasonality, disruptions,
  /// motif concentration).
  KkOptions generator;
  ScenarioPartitioner partitioner = ScenarioPartitioner::kNone;
  /// Partition count for kMultilevel (ignored for kNone).
  std::size_t num_partitions = 4;
  /// Shared mining parameters. min_support deliberately draws 0 and 1 so
  /// the degenerate-value contract (see GspanOptions / FsgOptions) stays
  /// under permanent cross-miner test.
  std::size_t min_support = 2;
  std::size_t max_edges = 3;
  /// Thread count for the parallel-vs-sequential leg (compared against 1).
  int num_threads = 2;
  /// Tick allotment for the budget-truncation leg, as a fraction of the
  /// scenario's measured unbudgeted tick cost.
  double budget_fraction = 0.5;
};

/// Draws a random scenario. Ranges are tuned so a 10k-seed sweep stays
/// tractable under sanitizers while still reaching every degenerate corner
/// (zero transactions, empty seed-pattern pool, label cardinality 1,
/// min_support 0).
ScenarioConfig DrawScenario(Rng& rng);

/// Draws a scenario of symmetric patterns: one vertex label, one or two
/// edge labels, a few small hub-skewed transactions and max_edges 5, so
/// stars and short cycles of equal-label vertices get deep enough for
/// FSG's core-table lookups at levels 4 and 5 to meet cores with
/// non-trivial automorphisms (DrawScenario stops at max_edges 4).
ScenarioConfig DrawSymmetricScenario(Rng& rng);

/// Draws a label-rich scenario, like the temporal day graphs: 40 to 200
/// vertex labels, so most edge types occur once, plus a pool of seed
/// patterns whose types recur; max_edges 3-4 and min_support 2-4. Here
/// most of FSG's level-1 types are infrequent, so its wedge index keeps
/// only the wedges between reachable types (DrawScenario's 1-5 labels
/// make nearly every type frequent).
ScenarioConfig DrawLabelRichScenario(Rng& rng);

/// Serializes `config` as "key: value" lines (one per field, stable order,
/// doubles at full round-trip precision). The format is the sidecar body
/// scenario_fuzz writes next to a failure and the corpus-file format under
/// tests/scenario_corpus/.
std::string SerializeScenario(const ScenarioConfig& config);

/// Parses SerializeScenario output (unknown keys and lines without a ':'
/// are ignored, so the sidecar's metadata lines can share the file).
/// Returns false and fills `error` (may be null) on a malformed value.
bool ParseScenario(std::string_view text, ScenarioConfig* config,
                   std::string* error);

}  // namespace tnmine::synth

#endif  // TNMINE_SYNTH_SCENARIO_H_
