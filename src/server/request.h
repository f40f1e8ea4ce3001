#ifndef TNMINE_SERVER_REQUEST_H_
#define TNMINE_SERVER_REQUEST_H_

// The mining-request schema tnmined and tnmine_cli share (DESIGN.md
// §14): per op, each knob's type, default and accepted values, and the
// one mapping from canonical params to the miners' options.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/budget.h"
#include "common/thread_pool.h"
#include "core/miner.h"
#include "data/dataset.h"
#include "data/od_graph.h"
#include "graph/transaction_source.h"
#include "pattern/pattern.h"
#include "server/json.h"
#include "subdue/subdue.h"

namespace tnmine::server {

/// One knob of a request schema.
struct ParamSpec {
  enum class Kind {
    kInt,       ///< an integer, at least `min`
    kFraction,  ///< a number in [0, 1]
    kChoice,    ///< one of `choices`, the default first
  };
  const char* name;
  Kind kind;
  std::int64_t default_int = 0;
  std::int64_t min = 0;
  double default_fraction = 0;
  std::span<const char* const> choices = {};
};

/// The schema of tnmined's mining ops "structural", "temporal" and
/// "mine_shards" (also tnmine_cli mine's), or of tnmine_cli's "subdue"
/// and "export"; empty for any other name.
std::span<const ParamSpec> ParamSchema(std::string_view op);

/// tnmine_cli lists this many patterns unless --top says otherwise.
inline constexpr std::int64_t kCliTop = 3;

/// False when `value` is not of `spec`'s type, choices or range;
/// `*must_be` then says what it must be ("an integer", "one of: bf, df",
/// "at least 1", "in [0, 1]").
bool CheckParam(const ParamSpec& spec, const JsonValue& value,
                std::string* must_be);

/// Command-line text as a request would carry it: a number when it
/// parses strictly (common/parse.h) as `spec`'s numeric type, else the
/// text itself, which CheckParam rejects for a numeric knob.
JsonValue ParamFromText(const ParamSpec& spec, std::string_view text);

/// Resolves request params against a schema into the canonical params
/// object. Unknown keys and values CheckParam rejects are errors (a
/// typoed knob or value must not silently mine the default config under
/// a distinct cache key); omitted knobs take their defaults, so two
/// requests that spell the same configuration differently map to the
/// same canonical params — and therefore the same cache key.
bool CanonicalizeParams(const JsonValue& given,
                        std::span<const ParamSpec> schema,
                        JsonValue* canonical, std::string* error);

/// Budget for one request: request knobs first, `defaults` on any
/// dimension the request leaves unlimited.
common::ResourceBudget BudgetFor(
    const JsonValue& params, const common::BudgetLimits& defaults,
    std::shared_ptr<common::CancelToken> token);

/// The `attribute` param's choices, the default first, and the OD graph
/// (Section 3) whose edges each one labels.
std::span<const char* const> OdAttributes();
data::OdGraph BuildOdGraph(const data::TransactionDataset& dataset,
                           std::string_view attribute);

/// Options from canonical params. `lanes` serves a request that leaves
/// `threads` at 0.
core::StructuralMiningOptions StructuralOptions(
    const JsonValue& params, common::Parallelism lanes,
    const common::ResourceBudget& budget);
core::TemporalMiningOptions TemporalOptions(
    const JsonValue& params, common::Parallelism lanes,
    const common::ResourceBudget& budget);
subdue::SubdueOptions SubdueOptionsFor(const JsonValue& params,
                                       const common::ResourceBudget& budget);
graph::ShardedTransactionSource::Options ShardSourceOptions(
    const JsonValue& params, const common::ResourceBudget& budget);

struct TransactionMiningResult {
  std::vector<pattern::FrequentPattern> patterns;
  common::MiningOutcome outcome = common::MiningOutcome::kComplete;
  std::uint64_t work_ticks = 0;
};

/// Runs the `miner` param's FSG or gSpan over `source`.
TransactionMiningResult MineTransactions(
    graph::TransactionSource& source, const JsonValue& params,
    common::Parallelism lanes, const common::ResourceBudget& budget);

/// Ranks by support descending; ties keep the miner's deterministic
/// enumeration order, so listings (and cache payloads) are stable.
std::vector<const pattern::FrequentPattern*> RankBySupport(
    const std::vector<pattern::FrequentPattern>& patterns);

}  // namespace tnmine::server

#endif  // TNMINE_SERVER_REQUEST_H_
