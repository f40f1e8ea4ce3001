#include "schedule.h"

#include <utility>

namespace perfbench {

using tnmine::server::JsonValue;

namespace {

constexpr const char* kAttributes[] = {"weight", "hours", "distance"};
constexpr const char* kStrategies[] = {"bf", "df"};
constexpr int kThreadChoices[] = {1, 2, 4};

/// Temporal support fractions are drawn from [0.03, 0.08) in steps of
/// 1e-4 and dealt round-robin to the clients.
constexpr int kFractionLow = 300;
constexpr int kFractionHigh = 800;

std::string KeyOf(const std::string& op, const JsonValue::Object& params) {
  return op + "|" + JsonValue(params).Serialize();
}

/// Fills the keys and `top` from `request.params`.
void Finish(ScheduledRequest* request) {
  JsonValue::Object output = request->params;
  output.erase("top");
  output.erase("threads");
  output.erase("deadline_ms");
  request->output_key = KeyOf(request->op, output);
  request->cache_key = KeyOf(request->op, request->params);
  request->top = static_cast<int>(request->params.at("top").AsInt());
}

}  // namespace

const char* KindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kNew: return "new";
    case RequestKind::kVariant: return "variant";
    case RequestKind::kRepeat: return "repeat";
    case RequestKind::kControl: return "control";
  }
  return "?";
}

JsonValue ScheduledRequest::ToRequest() const {
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", op);
  if (kind != RequestKind::kControl) request.Set("params", JsonValue(params));
  return request;
}

ScheduleGenerator::ScheduleGenerator(std::uint64_t seed, std::size_t client,
                                     std::size_t num_clients)
    : rng_(seed * 0x9E3779B97F4A7C15ull + client + 1),
      client_(client),
      num_clients_(num_clients) {
  for (int f = kFractionLow; f < kFractionHigh; ++f) {
    if (static_cast<std::size_t>(f) % num_clients_ == client_) {
      temporal_fractions_left_.push_back(f);
    }
  }
}

ScheduledRequest ScheduleGenerator::MakeNew() {
  ScheduledRequest request;
  request.kind = RequestKind::kNew;
  if (rng_.Below(4) == 0 && !temporal_fractions_left_.empty()) {
    const std::size_t pick = rng_.Below(temporal_fractions_left_.size());
    const int fraction = temporal_fractions_left_[pick];
    temporal_fractions_left_.erase(temporal_fractions_left_.begin() +
                                   static_cast<std::ptrdiff_t>(pick));
    request.op = "temporal";
    request.params = {
        {"support_fraction", JsonValue(fraction / 10000.0)},
        {"max_edges", JsonValue(3)},
        {"top", JsonValue(5)},
    };
  } else {
    // Seeds are unique per client, so no two clients share a key.
    const std::uint64_t seed = 1 + client_ + num_clients_ * structural_sent_++;
    request.op = "structural";
    request.params = {
        {"attribute", JsonValue(kAttributes[rng_.Below(3)])},
        {"strategy", JsonValue(kStrategies[rng_.Below(2)])},
        {"k", JsonValue(static_cast<int>(20 + 10 * rng_.Below(5)))},
        {"support", JsonValue(static_cast<int>(8 + rng_.Below(7)))},
        {"max_edges", JsonValue(3)},
        {"seed", JsonValue(seed)},
        {"top", JsonValue(5)},
    };
  }
  Finish(&request);
  return request;
}

ScheduledRequest ScheduleGenerator::MakeVariant() {
  const ScheduledRequest& base = sent_mining_[rng_.Below(sent_mining_.size())];
  for (int attempt = 0; attempt < 8; ++attempt) {
    ScheduledRequest request = base;
    request.kind = RequestKind::kVariant;
    switch (rng_.Below(3)) {
      case 0:
        request.params["top"] = JsonValue(static_cast<int>(1 + rng_.Below(10)));
        break;
      case 1:
        request.params["threads"] = JsonValue(kThreadChoices[rng_.Below(3)]);
        break;
      default:
        request.params["deadline_ms"] =
            JsonValue(static_cast<int>(60000 + 1000 * rng_.Below(60)));
        break;
    }
    Finish(&request);
    if (cache_keys_.count(request.cache_key) == 0) return request;
  }
  // Every draw named a key this client already sent: repeat the base.
  ScheduledRequest repeat = base;
  repeat.kind = RequestKind::kRepeat;
  return repeat;
}

ScheduledRequest ScheduleGenerator::Next() {
  const std::size_t draw = rng_.Below(100);
  ScheduledRequest request;
  if (sent_mining_.empty() || draw < 15) {
    request = MakeNew();
  } else if (draw < 30) {
    request = MakeVariant();
  } else if (draw < 80) {
    request = sent_mining_[rng_.Below(sent_mining_.size())];
    request.kind = RequestKind::kRepeat;
  } else {
    request.op = rng_.Below(4) == 0 ? "stats" : "ping";
  }
  if (request.kind == RequestKind::kNew ||
      request.kind == RequestKind::kVariant) {
    cache_keys_.insert(request.cache_key);
    sent_mining_.push_back(request);
  }
  return request;
}

}  // namespace perfbench
