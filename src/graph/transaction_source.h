#ifndef TNMINE_GRAPH_TRANSACTION_SOURCE_H_
#define TNMINE_GRAPH_TRANSACTION_SOURCE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/budget.h"
#include "graph/graph_view.h"
#include "graph/shard_store.h"

namespace tnmine::graph {

/// A pinned shard: a contiguous run of transactions [base, base+n) as
/// GraphViews, plus the keep-alive that owns them. While any copy of a
/// ShardRef (or of a view taken from it) lives, the shard's memory stays
/// valid — eviction from the source's LRU only drops the cache's
/// reference.
struct ShardRef {
  std::shared_ptr<const void> keepalive;
  std::span<const GraphView> views;
  std::uint32_t base = 0;
};

/// What FSG and gSpan support counting iterate instead of a
/// vector<GraphView> (DESIGN.md §16): an ordered transaction set exposed
/// shard by shard. Transactions are globally numbered 0..N-1 in shard
/// order; every TID set the miners emit uses these global ids, so the
/// mined output is independent of how the set is cut into shards.
///
/// Pin() must be thread-safe — parallel support-counting workers each
/// hold their own Reader and pin concurrently.
class TransactionSource {
 public:
  virtual ~TransactionSource() = default;

  std::size_t num_transactions() const { return num_transactions_; }
  std::size_t num_shards() const {
    return bases_.empty() ? 0 : bases_.size() - 1;
  }
  /// Global tid of shard s's first transaction.
  std::uint32_t ShardBase(std::size_t s) const { return bases_[s]; }
  std::size_t ShardSize(std::size_t s) const {
    return bases_[s + 1] - bases_[s];
  }

  /// Maps/loads shard `s` and returns a pinning reference to its views.
  virtual ShardRef Pin(std::size_t s) = 0;

  /// Per-worker random access by global tid, optimized for the miners'
  /// ascending-tid scans: the reader keeps the last pinned shard, so a
  /// tid-sorted pass over N transactions performs num_shards pins total.
  /// The returned reference is valid until the next View() call on the
  /// same reader (the reader's pin is what keeps it alive). Not
  /// thread-safe — one Reader per worker lane.
  class Reader {
   public:
    explicit Reader(TransactionSource& source) : source_(&source) {}

    const GraphView& View(std::uint32_t tid) {
      if (tid - pinned_.base >= pinned_.views.size()) Repin(tid);
      return pinned_.views[tid - pinned_.base];
    }

   private:
    void Repin(std::uint32_t tid);

    TransactionSource* source_;
    ShardRef pinned_;  // empty until the first View
  };

 protected:
  /// Subclasses fill shard boundaries: bases_[s] is shard s's first tid,
  /// with a final sentinel equal to the transaction count.
  void SetBases(std::vector<std::uint32_t> bases);

  std::vector<std::uint32_t> bases_;
  std::size_t num_transactions_ = 0;
};

/// The in-memory path as a TransactionSource: wraps an existing
/// vector<GraphView> without copying. `shard_size` 0 presents everything
/// as one shard (the classic in-RAM layout); a positive value cuts the
/// vector into equal shards, which gives the equivalence harnesses a
/// file-free way to exercise multi-shard aggregation.
class InMemoryTransactionSource : public TransactionSource {
 public:
  explicit InMemoryTransactionSource(std::vector<GraphView> views,
                                     std::size_t shard_size = 0);

  ShardRef Pin(std::size_t s) override;

 private:
  std::vector<GraphView> views_;
};

/// Out-of-core transaction source over a set of shard files: at most
/// `max_resident_shards` are mapped at once, managed LRU; each resident
/// shard's mapped bytes (plus view bookkeeping) are charged to the
/// ResourceBudget memory ceiling, which they share with what the miner
/// charges (FSG's retained index, frontier and candidates; gSpan's
/// projections), so `--max-memory-mb` bounds the tracked working set.
/// Allocations nobody charges (FSG's level-1 sets while they are built,
/// for one) stay outside it. When even after evicting every unpinned
/// shard a charge cannot fit, Pin throws std::bad_alloc — the same signal
/// the miners already absorb into kMemoryBudgetExceeded partial results.
///
/// Only shard headers are read at open time (one 64-byte pread per
/// file); mappings are created on first pin.
class ShardedTransactionSource : public TransactionSource {
 public:
  struct Options {
    /// LRU capacity — resident (mapped) shards at any moment, besides
    /// those pinned by in-flight readers.
    std::size_t max_resident_shards = 2;
    /// Memory ceiling to charge resident shards against (an inert
    /// budget means unlimited).
    common::ResourceBudget budget;
    /// Re-hash every shard's payload at open (tnshard --verify).
    bool verify_fingerprints = false;
  };

  /// Opens every "*.tnshard" in `dir` (sorted). Null + `error` when the
  /// directory is unreadable, empty, or any header is invalid.
  static std::unique_ptr<ShardedTransactionSource> Open(
      const std::string& dir, const Options& options, std::string* error);

  /// Same over an explicit file list (kept in the given order).
  static std::unique_ptr<ShardedTransactionSource> OpenFiles(
      const std::vector<std::string>& paths, const Options& options,
      std::string* error);

  ShardRef Pin(std::size_t s) override;

  /// Combined FNV-1a over the per-shard fingerprints, in shard order —
  /// identifies the dataset for result caching (tnmined load_shards).
  std::uint64_t fingerprint() const { return fingerprint_; }
  std::uint64_t resident_bytes() const;

 private:
  /// One mapped shard: the mapping plus its materialized views and the
  /// budget charge taken for them (released on destruction, i.e. when
  /// the LRU slot AND every outstanding reader pin are gone).
  struct ResidentShard {
    std::shared_ptr<ShardFile> file;
    std::vector<GraphView> views;
    common::ResourceBudget budget;
    std::uint64_t charged = 0;

    ~ResidentShard() { budget.ReleaseMemory(charged); }
  };

  struct CacheEntry {
    std::size_t shard;
    std::shared_ptr<ResidentShard> resident;
  };

  ShardedTransactionSource() = default;

  std::shared_ptr<ResidentShard> Load(std::size_t s);

  Options options_;
  std::vector<std::string> paths_;     // one per shard
  std::uint64_t fingerprint_ = 0;

  mutable std::mutex mu_;
  /// Most-recently-used first; size ≤ max_resident_shards.
  std::list<CacheEntry> lru_;  // guarded by mu_
};

}  // namespace tnmine::graph

#endif  // TNMINE_GRAPH_TRANSACTION_SOURCE_H_
