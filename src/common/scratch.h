#ifndef TNMINE_COMMON_SCRATCH_H_
#define TNMINE_COMMON_SCRATCH_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace tnmine::common {

/// Global scratch-pool statistics: the registry's scratch/* counters,
/// kept in every build (independent of the TNMINE_TELEMETRY kill switch)
/// so tests can assert steady-state allocation-freedom even in
/// telemetry-off builds.
///
/// `acquires` is a deterministic function of the work performed (one per
/// lease taken). `reuse_hits` and `fresh_allocs` split those acquires by
/// whether a pooled object was available on the acquiring thread; the
/// split depends on which thread ran which work unit, so — like the
/// `threadpool/*` counters (DESIGN.md §9) — it is scheduling-dependent
/// and legitimately varies across thread counts.
struct ScratchStats {
  std::uint64_t acquires = 0;
  std::uint64_t reuse_hits = 0;
  std::uint64_t fresh_allocs = 0;
};

ScratchStats GetScratchStats();

namespace internal {
/// Records one lease acquisition in the counters scratch/acquires and
/// scratch/reuse_hits or scratch/fresh_allocs.
void NoteScratchAcquire(bool fresh);
}  // namespace internal

/// RAII lease of a reusable scratch object from a per-thread free list.
///
/// T must be default-constructible and expose `void Reset()` that clears
/// logical contents while KEEPING allocated capacity (clear() vectors,
/// don't shrink them). Reset() runs on every acquisition, so a lease
/// always starts logically empty; after the first few leases on a thread
/// have warmed the pooled objects' capacities, steady-state inner loops
/// that route their temporaries through a lease perform no heap
/// allocation at all.
///
/// Lifetime rules (DESIGN.md §11):
///  - a lease lives on the stack of the acquiring thread and must be
///    released (destroyed) on that same thread;
///  - leases may nest (recursion acquiring a second object is fine) up to
///    the per-thread pool cap, past which extra objects are simply freed;
///  - pooled objects die with their thread, so pool memory is bounded by
///    threads x kMaxPooledPerThread x per-object high-water capacity.
template <typename T>
class ScratchLease {
 public:
  ScratchLease() {
    auto& pool = Pool();
    if (pool.empty()) {
      obj_ = std::make_unique<T>();
      internal::NoteScratchAcquire(/*fresh=*/true);
    } else {
      obj_ = std::move(pool.back());
      pool.pop_back();
      internal::NoteScratchAcquire(/*fresh=*/false);
    }
    obj_->Reset();
  }
  ~ScratchLease() {
    auto& pool = Pool();
    if (pool.size() < kMaxPooledPerThread) pool.push_back(std::move(obj_));
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  T* operator->() { return obj_.get(); }
  T& operator*() { return *obj_; }
  T* get() { return obj_.get(); }

 private:
  static constexpr std::size_t kMaxPooledPerThread = 8;

  static std::vector<std::unique_ptr<T>>& Pool() {
    thread_local std::vector<std::unique_ptr<T>> pool;
    return pool;
  }

  std::unique_ptr<T> obj_;
};

}  // namespace tnmine::common

#endif  // TNMINE_COMMON_SCRATCH_H_
