#ifndef TNMINE_SERVER_SERVER_H_
#define TNMINE_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/od_graph.h"
#include "graph/graph_view.h"
#include "server/json.h"
#include "server/result_cache.h"
#include "server/wire.h"

namespace tnmine::server {

/// One immutable graph snapshot: the dataset plus the three paper OD
/// labelings and a flat GraphView, built once at load time and shared by
/// reference. In-flight requests hold their shared_ptr across a reload
/// (MVCC-lite): the old snapshot stays alive until its last request
/// finishes, new requests see the new version.
struct Snapshot {
  std::uint64_t version = 0;
  /// FNV-1a 64 over the source file bytes, hex — the content half of
  /// every cache key.
  std::string fingerprint;
  std::string path;
  data::TransactionDataset dataset;
  /// By `attribute` (server::OdAttributes).
  std::map<std::string, data::OdGraph> od_graphs;
  std::shared_ptr<const graph::GraphView> view;  ///< of the default's graph
};

/// One registered out-of-core shard directory (DESIGN.md §16): validated
/// at load_shards time, identified by the combined shard fingerprint.
/// Only the metadata is kept resident — every mine_shards request opens
/// its own ShardedTransactionSource against its own memory budget, and
/// the fingerprint is re-checked then so a directory silently rewritten
/// after load_shards is rejected rather than mined. Same MVCC-lite
/// versioning as Snapshot.
struct ShardSet {
  std::uint64_t version = 0;
  /// Combined FNV-1a over the per-shard fingerprints, hex — the content
  /// half of every mine_shards cache key.
  std::string fingerprint;
  std::string dir;
  std::size_t num_transactions = 0;
  std::size_t num_shards = 0;
};

struct ServerOptions {
  /// ListenAddress spec ("unix:/path" or "tcp:host:port"; port 0 binds
  /// an ephemeral port — read the resolved one from address()).
  std::string listen = "tcp:127.0.0.1:0";
  /// Optional CSV to load as snapshot v1 during Start().
  std::string snapshot_path;
  /// Result-cache capacity; 0 disables caching.
  std::uint64_t cache_bytes = 64ull << 20;
  /// Admission control: mining requests in flight beyond this are
  /// rejected with code "overloaded" instead of queueing unboundedly.
  std::size_t max_inflight = 4;
  /// Per-connection frame I/O budget (DESIGN.md §15): once a frame has
  /// started, the whole remainder (and every response write) must
  /// complete within this monotonic budget or the connection is
  /// dropped. A slow-loris peer trickling bytes is bounded by this, not
  /// by per-byte progress. 0 = no deadline (test/debug only).
  std::uint64_t io_timeout_ms = 10000;
  /// Idle-connection reaper: a connection that has not *started* a
  /// frame for this long is closed and counted in conn_idle_reaped.
  /// 0 = idle connections live forever.
  std::uint64_t idle_timeout_ms = 0;
  /// listen(2) backlog — pending-connect queue bound, surfaced in
  /// stats so capacity tests can see the configured edge.
  int accept_backlog = 64;
  /// Ceilings applied to every mining request on dimensions the request
  /// itself leaves unlimited (0 = no server-side ceiling either).
  common::BudgetLimits default_limits;
  /// Default mining parallelism when a request omits "threads".
  common::Parallelism parallelism;
};

/// The tnmined server: accepts connections on one socket, speaks
/// length-prefixed JSON (see wire.h), serves mining requests from the
/// current Snapshot on the shared ThreadPool, caches complete results,
/// and cancels a request's mining when its client disconnects
/// mid-flight. DESIGN.md §14 documents the protocol.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, loads the initial snapshot (when configured), and
  /// starts the accept/watchdog threads. Returns false + `error` on any
  /// failure; the server is then inert.
  bool Start(std::string* error);

  /// Graceful stop: closes the listen socket, cancels in-flight mining,
  /// unblocks and joins every connection. Idempotent.
  void Stop();

  /// Blocks until a `shutdown` request (or Stop()) arrives. tnmined's
  /// main sits here.
  void WaitForShutdown();

  /// Async-signal-safe shutdown request (one relaxed atomic store);
  /// WaitForShutdown observes it on its next poll. For SIGINT/SIGTERM
  /// handlers — everything else should use Stop().
  void RequestShutdownFromSignal() {
    signal_shutdown_.store(true, std::memory_order_relaxed);
  }

  /// Resolved listen address (ephemeral TCP port filled in).
  std::string address() const;

  /// Loads `path` as the new snapshot and invalidates the result cache.
  /// Safe while serving; in-flight requests keep the old snapshot.
  bool LoadSnapshot(const std::string& path, std::string* error);

  /// Validates `dir` as a shard directory (headers + structure) and
  /// registers it as the current ShardSet for mine_shards. Safe while
  /// serving; in-flight shard requests keep the old set's metadata.
  bool LoadShards(const std::string& dir, std::string* error);

  std::shared_ptr<const Snapshot> snapshot() const;
  std::shared_ptr<const ShardSet> shard_set() const;
  const ResultCache& cache() const { return cache_; }

  std::uint64_t requests_total() const { return requests_total_; }
  std::uint64_t inflight() const { return inflight_; }
  std::uint64_t requests_cancelled() const { return requests_cancelled_; }
  std::uint64_t admission_rejected() const { return admission_rejected_; }

  /// Connection-lifecycle counters (DESIGN.md §15 failure taxonomy).
  /// conn_open is a gauge: accepted minus closed, and a chaos run must
  /// always drain it back to zero — a stuck slot is a leak.
  std::uint64_t conn_open() const { return conn_open_; }
  std::uint64_t conn_accepted() const { return conn_accepted_; }
  std::uint64_t conn_idle_reaped() const { return conn_idle_reaped_; }
  std::uint64_t conn_io_timeout() const { return conn_io_timeout_; }
  std::uint64_t conn_bad_frame() const { return conn_bad_frame_; }
  std::uint64_t conn_torn() const { return conn_torn_; }
  std::uint64_t accept_failures() const { return accept_failures_; }

 private:
  struct WatchedRequest {
    int fd;
    std::shared_ptr<common::CancelToken> token;
  };

  /// One accepted connection: its socket plus the thread serving it,
  /// keyed by a monotonically increasing id (NOT the fd — fds are
  /// reused by the kernel the moment they close).
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  void WatchLoop();
  void HandleConnection(std::uint64_t conn_id, int fd);

  /// Joins and forgets connections whose threads have finished — called
  /// from the accept loop so a connect flood cannot accumulate
  /// thread handles without bound.
  void ReapFinishedConnections();

  /// Dispatches one parsed request; returns the response document.
  JsonValue HandleRequest(const JsonValue& request, int fd);

  JsonValue HandleStats();
  JsonValue HandleLoadSnapshot(const JsonValue& request);
  JsonValue HandleLoadShards(const JsonValue& request);
  JsonValue HandleMining(const std::string& op, const JsonValue& request,
                         int fd);

  /// Runs the miner for `op` on `snap` and returns the serialized result
  /// payload (canonical JSON) plus the outcome label via out-params.
  std::string MineResult(const std::string& op, const JsonValue& params,
                         const Snapshot& snap,
                         const common::ResourceBudget& budget,
                         std::string* outcome_label);

  /// Runs FSG/gSpan over the ShardSet's directory through a fresh
  /// ShardedTransactionSource bounded by `budget`; throws
  /// std::runtime_error when the directory no longer matches the
  /// fingerprint captured at load_shards.
  std::string MineShardsResult(const JsonValue& params,
                               const ShardSet& shards,
                               const common::ResourceBudget& budget,
                               std::string* outcome_label);

  void RegisterWatch(int fd,
                     const std::shared_ptr<common::CancelToken>& token);
  void UnregisterWatch(int fd);

  bool TryAdmit();
  void Release();

  static JsonValue ErrorResponse(const std::string& op,
                                 const std::string& code,
                                 const std::string& message);

  ServerOptions options_;
  ListenAddress bound_address_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::thread accept_thread_;
  std::thread watch_thread_;
  std::mutex conn_mu_;
  std::map<std::uint64_t, Connection> conns_;  // guarded by conn_mu_
  std::vector<std::uint64_t> done_conns_;      // guarded by conn_mu_
  std::uint64_t next_conn_id_ = 1;             // guarded by conn_mu_

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;  // guarded by snapshot_mu_
  std::uint64_t next_snapshot_version_ = 1;   // guarded by snapshot_mu_
  std::shared_ptr<const ShardSet> shard_set_;  // guarded by snapshot_mu_
  std::uint64_t next_shard_version_ = 1;       // guarded by snapshot_mu_

  std::mutex watch_mu_;
  std::vector<WatchedRequest> watched_;  // guarded by watch_mu_

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;  // guarded by shutdown_mu_
  std::atomic<bool> signal_shutdown_{false};

  ResultCache cache_;
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> requests_cancelled_{0};
  std::atomic<std::uint64_t> admission_rejected_{0};
  std::atomic<std::uint64_t> snapshots_loaded_{0};
  std::atomic<std::uint64_t> shard_sets_loaded_{0};
  std::atomic<std::uint64_t> conn_open_{0};
  std::atomic<std::uint64_t> conn_accepted_{0};
  std::atomic<std::uint64_t> conn_closed_{0};
  std::atomic<std::uint64_t> conn_idle_reaped_{0};
  std::atomic<std::uint64_t> conn_io_timeout_{0};
  std::atomic<std::uint64_t> conn_bad_frame_{0};
  std::atomic<std::uint64_t> conn_torn_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace tnmine::server

#endif  // TNMINE_SERVER_SERVER_H_
