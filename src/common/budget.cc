#include "common/budget.h"

#include <string>

#include "common/telemetry.h"

namespace tnmine::common {

const char* ToString(MiningOutcome outcome) {
  switch (outcome) {
    case MiningOutcome::kComplete:
      return "complete";
    case MiningOutcome::kDeadlineExceeded:
      return "deadline_exceeded";
    case MiningOutcome::kMemoryBudgetExceeded:
      return "memory_budget_exceeded";
    case MiningOutcome::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

ResourceBudget::ResourceBudget(const BudgetLimits& limits,
                               std::shared_ptr<CancelToken> cancel)
    : root_(std::make_shared<Root>()),
      ticks_(limits.max_work_ticks),
      ticks_limited_(limits.max_work_ticks != 0) {
  if (limits.deadline_ms != 0) {
    root_->has_deadline = true;
    root_->deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(limits.deadline_ms);
  }
  root_->max_memory_bytes = limits.max_memory_bytes;
  root_->cancel = std::move(cancel);
}

ResourceBudget ResourceBudget::Slice(std::size_t unit,
                                     std::size_t num_units) const {
  if (!ticks_limited_ || num_units <= 1) return *this;
  ResourceBudget slice = *this;
  const std::uint64_t base = ticks_ / num_units;
  const std::uint64_t remainder = ticks_ % num_units;
  slice.ticks_ = base + (unit < remainder ? 1 : 0);
  return slice;
}

ResourceBudget ResourceBudget::WithTicks(std::uint64_t ticks) const {
  ResourceBudget sibling = *this;
  if (sibling.ticks_limited_) sibling.ticks_ = ticks;
  return sibling;
}

bool ResourceBudget::cancelled() const {
  return root_ != nullptr && root_->cancel != nullptr &&
         root_->cancel->cancelled();
}

bool ResourceBudget::deadline_exceeded() const {
  return root_ != nullptr && root_->has_deadline &&
         std::chrono::steady_clock::now() >= root_->deadline;
}

bool ResourceBudget::TryChargeMemory(std::uint64_t bytes) const {
  if (root_ == nullptr) return true;
  const std::uint64_t charged =
      root_->memory_charged.fetch_add(bytes, std::memory_order_relaxed) +
      bytes;
  if (root_->max_memory_bytes != 0 && charged > root_->max_memory_bytes) {
    root_->memory_charged.fetch_sub(bytes, std::memory_order_relaxed);
    std::uint8_t cur = root_->tripped.load(std::memory_order_relaxed);
    const auto memory =
        static_cast<std::uint8_t>(MiningOutcome::kMemoryBudgetExceeded);
    while (cur < memory && !root_->tripped.compare_exchange_weak(
                               cur, memory, std::memory_order_relaxed)) {
    }
    return false;
  }
  return true;
}

bool ResourceBudget::TryChargeMemoryNoTrip(std::uint64_t bytes) const {
  if (root_ == nullptr) return true;
  const std::uint64_t charged =
      root_->memory_charged.fetch_add(bytes, std::memory_order_relaxed) +
      bytes;
  if (root_->max_memory_bytes != 0 && charged > root_->max_memory_bytes) {
    root_->memory_charged.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void ResourceBudget::ChargeMemory(std::uint64_t bytes) const {
  if (root_ != nullptr) {
    root_->memory_charged.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void ResourceBudget::ReleaseMemory(std::uint64_t bytes) const {
  if (root_ != nullptr) {
    root_->memory_charged.fetch_sub(bytes, std::memory_order_relaxed);
  }
}

std::uint64_t ResourceBudget::memory_charged() const {
  return root_ == nullptr
             ? 0
             : root_->memory_charged.load(std::memory_order_relaxed);
}

MiningOutcome ResourceBudget::StopReason() const {
  if (root_ == nullptr) return MiningOutcome::kComplete;
  MiningOutcome reason = static_cast<MiningOutcome>(
      root_->tripped.load(std::memory_order_relaxed));
  if (cancelled()) {
    reason = CombineOutcomes(reason, MiningOutcome::kCancelled);
  } else if (reason < MiningOutcome::kDeadlineExceeded &&
             deadline_exceeded()) {
    reason = CombineOutcomes(reason, MiningOutcome::kDeadlineExceeded);
  }
  if (reason != MiningOutcome::kComplete) {
    std::uint8_t cur = root_->tripped.load(std::memory_order_relaxed);
    const auto raw = static_cast<std::uint8_t>(reason);
    while (cur < raw && !root_->tripped.compare_exchange_weak(
                            cur, raw, std::memory_order_relaxed)) {
    }
  }
  return reason;
}

BudgetMeter::BudgetMeter(const ResourceBudget& budget)
    : budget_(budget),
      remaining_(budget.tick_allotment()),
      ticks_limited_(budget.ticks_limited()),
      active_(budget.active()) {}

MiningOutcome BudgetMeter::ChargeSlow(std::uint64_t n) {
  if (stopped_ != MiningOutcome::kComplete) return stopped_;
  spent_ += n;
  if (ticks_limited_) {
    if (remaining_ < n) {
      remaining_ = 0;
      stopped_ = MiningOutcome::kDeadlineExceeded;
      return stopped_;
    }
    remaining_ -= n;
  }
  // Poll the shared stop conditions on the first charge (prompt reaction
  // to a cancel fired before the unit started) and every 256th after.
  if ((probe_++ & 255) == 0) {
    stopped_ = CombineOutcomes(stopped_, budget_.StopReason());
  }
  return stopped_;
}

MiningOutcome BudgetMeter::Poll() const {
  if (!active_) return MiningOutcome::kComplete;
  if (stopped_ != MiningOutcome::kComplete) return stopped_;
  return budget_.StopReason();
}

void RecordOutcome(std::string_view subsystem, MiningOutcome outcome) {
#if TNMINE_TELEMETRY_ENABLED
  if (outcome == MiningOutcome::kComplete) return;
  std::string name;
  name.reserve(subsystem.size() + 32);
  name.append(subsystem);
  name.append("/outcome_");
  name.append(ToString(outcome));
  telemetry::Registry::Global().GetCounter(name).Add(1);
#else
  (void)subsystem;
  (void)outcome;
#endif
}

}  // namespace tnmine::common
