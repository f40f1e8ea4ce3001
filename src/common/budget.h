#ifndef TNMINE_COMMON_BUDGET_H_
#define TNMINE_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>

namespace tnmine::common {

/// How a resource-governed run ended. Every mining entry point returns one
/// of these next to its (possibly partial) result, so callers can always
/// tell a truncated answer from a complete one. Ordered by severity:
/// CombineOutcomes keeps the larger value.
enum class MiningOutcome : std::uint8_t {
  kComplete = 0,
  /// The wall-clock deadline or the work-tick allotment ran out. Tick
  /// exhaustion is deterministic (see ResourceBudget); wall-clock is not.
  kDeadlineExceeded = 1,
  /// The memory ceiling tripped, or an allocation failure was absorbed at
  /// a work-unit boundary.
  kMemoryBudgetExceeded = 2,
  /// The CancelToken was fired (SIGINT, caller shutdown, ...).
  kCancelled = 3,
};

/// Stable lowercase label ("complete", "deadline_exceeded", ...), used in
/// CLI output and telemetry counter names.
const char* ToString(MiningOutcome outcome);

/// Severity-max merge for combining per-work-unit outcomes.
inline MiningOutcome CombineOutcomes(MiningOutcome a, MiningOutcome b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a
                                                                      : b;
}

/// Cooperative cancellation flag. RequestCancel is a single relaxed atomic
/// store, safe to call from any thread and from a signal handler (the
/// flag is lock-free); workers observe it at their next budget poll.
class CancelToken {
 public:
  void RequestCancel() { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Resource ceilings for one governed run. A zero means "unlimited" for
/// that dimension; all-zero limits still buy outcome labelling, tick
/// accounting, and cancellation when attached to a ResourceBudget.
struct BudgetLimits {
  /// Total abstract work ticks the run may spend. Ticks meter the
  /// superlinear mining work (patterns grown, candidates considered,
  /// containment checks), not wall time, so the same allotment cuts the
  /// search at the same point on any machine and any thread count.
  std::uint64_t max_work_ticks = 0;
  /// Wall-clock ceiling, measured from ResourceBudget construction.
  std::uint64_t deadline_ms = 0;
  /// Ceiling on the estimated bytes charged via TryChargeMemory.
  std::uint64_t max_memory_bytes = 0;
};

/// Shared handle on one run's resource governance: a deterministic
/// work-tick allotment plus shared (atomic) deadline / memory / cancel
/// state. Cheap to copy; copies share the root state.
///
/// **Determinism contract.** The tick dimension is deterministic by
/// construction: allotments are split across work units with Slice()
/// *before* any parallel fan-out, each unit spends its slice through its
/// own BudgetMeter with no cross-thread communication, and therefore the
/// same max_work_ticks produces byte-identical partial results at any
/// thread count. The deadline, memory, and cancel dimensions are shared
/// mutable state and inherently scheduling-dependent; they trade
/// determinism for hard ceilings.
///
/// A default-constructed ResourceBudget is inert (active() == false) and
/// costs one branch per BudgetMeter::Charge — the miners' hot paths stay
/// unmetered unless a caller opts in.
class ResourceBudget {
 public:
  /// Inert budget: never stops anything, meters nothing.
  ResourceBudget() = default;

  /// Active budget. The deadline clock starts now. `cancel` may be null.
  explicit ResourceBudget(const BudgetLimits& limits,
                          std::shared_ptr<CancelToken> cancel = nullptr);

  /// False for the default-constructed inert budget.
  bool active() const { return root_ != nullptr; }

  /// This handle's work-tick allotment (meaningful when ticks_limited()).
  std::uint64_t tick_allotment() const { return ticks_; }
  bool ticks_limited() const { return ticks_limited_; }

  /// Deterministic tick split: unit i of n gets allotment/n ticks plus one
  /// of the remainder ticks when i < allotment % n. Deadline / memory /
  /// cancel state stays shared with the parent. Slicing an inert or
  /// tick-unlimited budget returns an equivalent handle.
  ResourceBudget Slice(std::size_t unit, std::size_t num_units) const;

  /// Sibling handle with an explicit tick allotment (shared root state).
  /// Used to split one slice between pipeline phases deterministically.
  ResourceBudget WithTicks(std::uint64_t ticks) const;

  bool cancelled() const;
  bool deadline_exceeded() const;

  /// Charges `bytes` against the memory ceiling. Returns false — and trips
  /// the sticky memory outcome — when the ceiling would be exceeded (the
  /// charge is rolled back). Always succeeds when no ceiling is set.
  /// Const because it mutates only shared root state, so budgets held in
  /// const options structs can still meter.
  bool TryChargeMemory(std::uint64_t bytes) const;
  /// Like TryChargeMemory, but a failed charge does NOT trip the sticky
  /// memory outcome. For callers with a recovery move left (the shard LRU
  /// evicts resident shards and retries); only the final, unrecoverable
  /// attempt should go through TryChargeMemory so a run that recovered
  /// still reports kComplete.
  bool TryChargeMemoryNoTrip(std::uint64_t bytes) const;
  /// Charges `bytes` unconditionally: never refuses, never trips. For
  /// bytes a caller already holds and must count against the ceiling
  /// (FSG's level-1 index and frontier between levels); the next
  /// TryChargeMemory then refuses if the two together exceed it.
  void ChargeMemory(std::uint64_t bytes) const;
  void ReleaseMemory(std::uint64_t bytes) const;
  std::uint64_t memory_charged() const;

  /// Polls the shared stop conditions (cancel, wall-clock deadline, and
  /// the sticky memory trip) — everything except this handle's tick
  /// allotment. Returns kComplete when the run may continue. Stop reasons
  /// are sticky: once observed, every later poll reports at least that
  /// severity.
  MiningOutcome StopReason() const;

 private:
  struct Root {
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    std::uint64_t max_memory_bytes = 0;
    std::atomic<std::uint64_t> memory_charged{0};
    /// Sticky max-severity stop reason observed so far.
    std::atomic<std::uint8_t> tripped{0};
    std::shared_ptr<CancelToken> cancel;
  };

  std::shared_ptr<Root> root_;
  std::uint64_t ticks_ = 0;
  bool ticks_limited_ = false;
};

/// Per-work-unit spending meter: a local (thread-free, deterministic) tick
/// ledger over one ResourceBudget slice, plus a throttled poll of the
/// shared stop conditions. One meter belongs to exactly one work unit
/// (a gSpan seed subtree, an FSG run, a SUBDUE search); it must not be
/// shared across threads.
class BudgetMeter {
 public:
  /// Meter over an inert budget: Charge always returns kComplete and the
  /// compiler can hoist the single branch.
  BudgetMeter() = default;

  explicit BudgetMeter(const ResourceBudget& budget);

  /// Spends n ticks. Returns kComplete to keep going, otherwise the stop
  /// reason (tick exhaustion reports kDeadlineExceeded — the work-tick
  /// allotment is a deterministic deadline). Every 256th call also polls
  /// the shared stop conditions. Stops are sticky.
  MiningOutcome Charge(std::uint64_t n = 1) {
    if (!active_) return MiningOutcome::kComplete;
    return ChargeSlow(n);
  }

  /// Polls only the shared stop conditions (no tick spend, unthrottled).
  MiningOutcome Poll() const;

  /// Ticks spent through this meter, including the tick that exhausted
  /// the allotment. Deterministic for a fixed work unit.
  std::uint64_t ticks_spent() const { return spent_; }

  bool active() const { return active_; }

 private:
  MiningOutcome ChargeSlow(std::uint64_t n);

  ResourceBudget budget_;
  std::uint64_t remaining_ = 0;
  std::uint64_t spent_ = 0;
  std::uint64_t probe_ = 0;
  MiningOutcome stopped_ = MiningOutcome::kComplete;
  bool ticks_limited_ = false;
  bool active_ = false;
};

/// Records a non-complete outcome as the telemetry counter
/// `<subsystem>/outcome_<label>` (no-op for kComplete, and compiled to
/// nothing when telemetry is off). Gives RunReports an honest record of
/// every truncated run.
void RecordOutcome(std::string_view subsystem, MiningOutcome outcome);

}  // namespace tnmine::common

#endif  // TNMINE_COMMON_BUDGET_H_
