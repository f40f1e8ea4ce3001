#ifndef TNMINE_PERFBENCH_SCHEDULE_H_
#define TNMINE_PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "server/json.h"
#include "stats.h"

namespace perfbench {

/// What a scheduled request is, relative to what its client sent before.
enum class RequestKind {
  kNew,      ///< mining request with output-determining params never sent
  kVariant,  ///< earlier output params, but a new top/threads/deadline_ms
  kRepeat,   ///< byte-identical to an earlier mining request of the client
  kControl,  ///< ping or stats
};

const char* KindName(RequestKind kind);

struct ScheduledRequest {
  RequestKind kind = RequestKind::kControl;
  std::string op;  ///< structural, temporal, ping or stats
  /// The request's params object (mining ops only).
  tnmine::server::JsonValue::Object params;
  /// op + the params that determine the mined output (everything except
  /// top, threads and deadline_ms). Empty for control requests.
  std::string output_key;
  /// op + every param: what the server's result cache keys on today.
  /// Empty for control requests.
  std::string cache_key;
  int top = 0;  ///< patterns rendered (mining ops only)

  tnmine::server::JsonValue ToRequest() const;
};

/// Per-client seeded request schedule for the server workload. Request
/// i of client c depends only on (seed, c, i), so the same seed always
/// yields the same sequence, and the cache hit/miss counts a prefix of
/// the schedule produces are fixed by the schedule, not by timing:
/// repeats hit, new requests and variants miss.
///
/// Mix: ~15% new mining requests (FSG structural with a fresh seed,
/// support, k, attribute or strategy; or temporal with a support
/// fraction in [0.03, 0.08)), ~15% variants, ~50% exact repeats and ~20%
/// ping/stats. Clients never share keys: every structural seed and every
/// temporal fraction belongs to exactly one client.
class ScheduleGenerator {
 public:
  ScheduleGenerator(std::uint64_t seed, std::size_t client,
                    std::size_t num_clients);

  ScheduledRequest Next();

 private:
  ScheduledRequest MakeNew();
  ScheduledRequest MakeVariant();

  SplitMix64 rng_;
  std::size_t client_;
  std::size_t num_clients_;
  std::uint64_t structural_sent_ = 0;
  std::vector<int> temporal_fractions_left_;  ///< in units of 1e-4
  std::vector<ScheduledRequest> sent_mining_;
  std::set<std::string> cache_keys_;
};

}  // namespace perfbench

#endif  // TNMINE_PERFBENCH_SCHEDULE_H_
