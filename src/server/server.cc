#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <utility>

#include "common/failpoint.h"
#include "common/telemetry.h"
#include "core/interestingness.h"
#include "core/miner.h"
#include "graph/transaction_source.h"
#include "pattern/render.h"
#include "server/request.h"

namespace tnmine::server {

namespace {

/// FNV-1a 64 over a file's bytes, rendered as 16 hex digits. Returns
/// false when the file cannot be read.
bool FingerprintFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
    if (in.eof()) break;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  *out = hex;
  return true;
}

/// A 64-bit fingerprint as the 16-hex-digit string used in cache keys
/// and wire responses.
std::string HexFingerprint(std::uint64_t fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return hex;
}

JsonValue RenderPatterns(
    const std::vector<const pattern::FrequentPattern*>& ranked,
    std::size_t top, const Discretizer* bins) {
  JsonValue patterns = JsonValue::MakeArray();
  for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
    JsonValue p = JsonValue::MakeObject();
    p.Set("support", ranked[i]->support);
    p.Set("vertices", ranked[i]->graph.num_vertices());
    p.Set("edges", ranked[i]->graph.num_edges());
    p.Set("render", pattern::RenderPattern(*ranked[i], bins));
    patterns.array().push_back(std::move(p));
  }
  return patterns;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache_bytes) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  if (!ListenAddress::Parse(options_.listen, &bound_address_, error)) {
    return false;
  }
  if (!options_.snapshot_path.empty() &&
      !LoadSnapshot(options_.snapshot_path, error)) {
    return false;
  }
  if (bound_address_.is_unix) {
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (bound_address_.unix_path.size() >= sizeof(sun.sun_path)) {
      if (error != nullptr) *error = "unix socket path too long";
      return false;
    }
    std::memcpy(sun.sun_path, bound_address_.unix_path.c_str(),
                bound_address_.unix_path.size() + 1);
    ::unlink(bound_address_.unix_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sun),
               sizeof(sun)) != 0) {
      if (error != nullptr) {
        *error = "bind " + bound_address_.unix_path + ": " +
                 std::strerror(errno);
      }
      return false;
    }
  } else {
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(bound_address_.port);
    if (::inet_pton(AF_INET, bound_address_.host.c_str(),
                    &sin.sin_addr) != 1) {
      if (error != nullptr) *error = "bad host " + bound_address_.host;
      return false;
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = "socket: ";
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sin),
               sizeof(sin)) != 0) {
      if (error != nullptr) {
        *error = "bind " + bound_address_.ToString() + ": " +
                 std::strerror(errno);
      }
      return false;
    }
    socklen_t len = sizeof(sin);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sin),
                      &len) == 0) {
      bound_address_.port = ntohs(sin.sin_port);
    }
  }
  if (::listen(listen_fd_, options_.accept_backlog) != 0) {
    if (error != nullptr) {
      *error = std::string("listen: ") + std::strerror(errno);
    }
    return false;
  }
  start_time_ = std::chrono::steady_clock::now();
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  watch_thread_ = std::thread([this] { WatchLoop(); });
  return true;
}

void Server::Stop() {
  if (!started_ || stop_.exchange(true)) {
    stop_.store(true);
    return;
  }
  // Unblock accept() and every connection's blocking read.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    for (const WatchedRequest& w : watched_) w.token->RequestCancel();
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [id, conn] : conns_) ::shutdown(conn.fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (watch_thread_.joinable()) watch_thread_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [id, conn] : conns_) {
      conns.push_back(std::move(conn.thread));
    }
    conns_.clear();
    done_conns_.clear();
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (bound_address_.is_unix) {
    ::unlink(bound_address_.unix_path.c_str());
  }
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  while (!shutdown_requested_ &&
         !signal_shutdown_.load(std::memory_order_relaxed)) {
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

std::string Server::address() const { return bound_address_.ToString(); }

bool Server::LoadSnapshot(const std::string& path, std::string* error) {
  auto snap = std::make_shared<Snapshot>();
  snap->path = path;
  if (!FingerprintFile(path, &snap->fingerprint)) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  if (!data::TransactionDataset::LoadCsv(path, &snap->dataset, error)) {
    return false;
  }
  for (const char* attribute : OdAttributes()) {
    snap->od_graphs.emplace(attribute,
                            BuildOdGraph(snap->dataset, attribute));
  }
  snap->view = std::make_shared<const graph::GraphView>(
      snap->od_graphs.at(OdAttributes()[0]).graph);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snap->version = next_snapshot_version_++;
    snapshot_ = std::move(snap);
  }
  cache_.Clear();
  snapshots_loaded_.fetch_add(1, std::memory_order_relaxed);
  TNMINE_COUNTER_ADD("server/snapshots_loaded", 1);
  return true;
}

std::shared_ptr<const Snapshot> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

bool Server::LoadShards(const std::string& dir, std::string* error) {
  // Open validates every shard header and builds the combined
  // fingerprint; the source itself is discarded — mine_shards reopens
  // per request so each request's mappings charge that request's
  // memory budget. No cache clear: mine_shards keys carry the shard
  // fingerprint and version, so entries for an older set can never be
  // returned for the new one (they age out of the LRU instead).
  graph::ShardedTransactionSource::Options options;
  std::string open_error;
  const auto source =
      graph::ShardedTransactionSource::Open(dir, options, &open_error);
  if (source == nullptr) {
    if (error != nullptr) *error = open_error;
    return false;
  }
  auto set = std::make_shared<ShardSet>();
  set->dir = dir;
  set->fingerprint = HexFingerprint(source->fingerprint());
  set->num_transactions = source->num_transactions();
  set->num_shards = source->num_shards();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    set->version = next_shard_version_++;
    shard_set_ = std::move(set);
  }
  shard_sets_loaded_.fetch_add(1, std::memory_order_relaxed);
  TNMINE_COUNTER_ADD("server/shard_sets_loaded", 1);
  return true;
}

std::shared_ptr<const ShardSet> Server::shard_set() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return shard_set_;
}

void Server::ReapFinishedConnections() {
  // Extract the finished threads under the lock, join outside it: a
  // finishing connection thread pushes its id and returns without
  // reacquiring conn_mu_, so the join here can never deadlock with it.
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::uint64_t id : done_conns_) {
      auto it = conns_.find(id);
      if (it != conns_.end()) {
        finished.push_back(std::move(it->second.thread));
        conns_.erase(it);
      }
    }
    done_conns_.clear();
  }
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
}

void Server::AcceptLoop() {
  // Wait with a timeout instead of blocking in accept(): shutdown() on a
  // *listening* socket does not reliably unblock accept() (AF_UNIX on
  // Linux in particular), so Stop() only has to flip stop_ and join.
  while (!stop_.load()) {
    ReapFinishedConnections();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) return;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        TNMINE_COUNTER_ADD("server/accept_failures", 1);
        continue;
      }
      if (stop_.load()) return;
      // Listen socket gone bad; nothing useful left to do.
      return;
    }
    if (TNMINE_FAILPOINT("server/accept_fail")) {
      // Injected accept failure: drop the connection on the floor and
      // keep serving — the chaos harness asserts the *next* connect
      // succeeds.
      ::close(fd);
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      TNMINE_COUNTER_ADD("server/accept_failures", 1);
      continue;
    }
    if (stop_.load()) {
      ::close(fd);
      return;
    }
    // Non-blocking so the deadline-governed frame I/O (poll + EAGAIN
    // loop) can never park a connection thread in a bare send/recv.
    const int fd_flags = ::fcntl(fd, F_GETFL, 0);
    if (fd_flags >= 0) ::fcntl(fd, F_SETFL, fd_flags | O_NONBLOCK);
    conn_accepted_.fetch_add(1, std::memory_order_relaxed);
    conn_open_.fetch_add(1, std::memory_order_relaxed);
    TNMINE_COUNTER_ADD("server/conn_accepted", 1);
    std::lock_guard<std::mutex> lock(conn_mu_);
    const std::uint64_t id = next_conn_id_++;
    Connection& conn = conns_[id];
    conn.fd = fd;
    conn.thread =
        std::thread([this, id, fd] { HandleConnection(id, fd); });
  }
}

void Server::WatchLoop() {
  // Poll every watched in-flight request's socket; a peer that vanished
  // (orderly close or reset) fires that request's CancelToken, and the
  // miner unwinds cooperatively at its next budget poll.
  while (!stop_.load()) {
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      for (const WatchedRequest& w : watched_) {
        char b;
        const ssize_t r =
            ::recv(w.fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
        if (r == 0 ||
            (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
             errno != EINTR)) {
          w.token->RequestCancel();
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void Server::HandleConnection(std::uint64_t conn_id, int fd) {
  std::string payload;
  while (!stop_.load()) {
    const FrameReadStatus status = ReadFrameDeadline(
        fd, &payload, options_.idle_timeout_ms, options_.io_timeout_ms);
    if (status == FrameReadStatus::kIdleTimeout) {
      // The per-connection idle deadline IS the reaper: a parked
      // connection reaps itself instead of holding a slot forever.
      conn_idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      TNMINE_COUNTER_ADD("server/conn_idle_reaped", 1);
      break;
    }
    if (status == FrameReadStatus::kIoTimeout) {
      conn_io_timeout_.fetch_add(1, std::memory_order_relaxed);
      TNMINE_COUNTER_ADD("server/conn_io_timeout", 1);
      break;
    }
    if (status == FrameReadStatus::kOversized) {
      // The length prefix is garbage or hostile; there is no way to
      // resync the framing, so the only safe answer is a drop.
      conn_bad_frame_.fetch_add(1, std::memory_order_relaxed);
      TNMINE_COUNTER_ADD("server/conn_bad_frame", 1);
      break;
    }
    if (status == FrameReadStatus::kTornFrame) {
      conn_torn_.fetch_add(1, std::memory_order_relaxed);
      TNMINE_COUNTER_ADD("server/conn_torn", 1);
      break;
    }
    if (status != FrameReadStatus::kFrame) break;  // kEof
    JsonValue request;
    std::string parse_error;
    JsonValue response;
    if (!JsonValue::Parse(payload, &request, &parse_error) ||
        !request.is_object()) {
      conn_bad_frame_.fetch_add(1, std::memory_order_relaxed);
      TNMINE_COUNTER_ADD("server/conn_bad_frame", 1);
      response = ErrorResponse("", "bad_request",
                               "request is not a JSON object: " +
                                   parse_error);
      WriteFrameDeadline(fd, response.Serialize(),
                         options_.io_timeout_ms);
      break;  // framing may be out of sync — drop the connection
    }
    response = HandleRequest(request, fd);
    bool write_timed_out = false;
    if (!WriteFrameDeadline(fd, response.Serialize(),
                            options_.io_timeout_ms, &write_timed_out)) {
      if (write_timed_out) {
        conn_io_timeout_.fetch_add(1, std::memory_order_relaxed);
        TNMINE_COUNTER_ADD("server/conn_io_timeout", 1);
      }
      break;
    }
    if (request.Get("op").AsString() == "shutdown") {
      // Only now — with the ok response on the wire — wake
      // WaitForShutdown; Stop() may shut this fd down immediately.
      {
        std::lock_guard<std::mutex> lock(shutdown_mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      break;
    }
  }
  ::close(fd);
  conn_closed_.fetch_add(1, std::memory_order_relaxed);
  conn_open_.fetch_sub(1, std::memory_order_relaxed);
  TNMINE_COUNTER_ADD("server/conn_closed", 1);
  std::lock_guard<std::mutex> lock(conn_mu_);
  done_conns_.push_back(conn_id);
}

JsonValue Server::ErrorResponse(const std::string& op,
                                const std::string& code,
                                const std::string& message) {
  JsonValue response = JsonValue::MakeObject();
  response.Set("ok", false);
  if (!op.empty()) response.Set("op", op);
  response.Set("code", code);
  response.Set("error", message);
  return response;
}

JsonValue Server::HandleRequest(const JsonValue& request, int fd) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  TNMINE_COUNTER_ADD("server/requests_total", 1);
  const auto started = std::chrono::steady_clock::now();
  const std::string op = request.Get("op").AsString();
  JsonValue response;
  if (op == "ping") {
    response = JsonValue::MakeObject();
    response.Set("ok", true);
    response.Set("op", op);
    JsonValue result = JsonValue::MakeObject();
    result.Set("pong", true);
    response.Set("result", std::move(result));
  } else if (op == "stats") {
    response = HandleStats();
  } else if (op == "load_snapshot") {
    response = HandleLoadSnapshot(request);
  } else if (op == "load_shards") {
    response = HandleLoadShards(request);
  } else if (op == "structural" || op == "temporal" ||
             op == "mine_shards") {
    response = HandleMining(op, request, fd);
  } else if (op == "shutdown") {
    // The acknowledgement must reach the client before Stop() starts
    // tearing connections down, so the shutdown notification itself is
    // deferred to HandleConnection after the response write.
    response = JsonValue::MakeObject();
    response.Set("ok", true);
    response.Set("op", op);
  } else {
    response = ErrorResponse(op, "bad_request",
                             op.empty() ? "missing op"
                                        : "unknown op '" + op + "'");
  }
  if (request.Has("id")) {
    response.Set("id", request.Get("id"));
  }
  if (response.Get("ok").AsBool()) {
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    TNMINE_COUNTER_ADD("server/requests_error", 1);
  }
  TNMINE_HISTOGRAM_NANOS(
      "server/request_nanos",
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  return response;
}

JsonValue Server::HandleStats() {
  JsonValue result = JsonValue::MakeObject();

  JsonValue server = JsonValue::MakeObject();
  server.Set("requests_total",
             requests_total_.load(std::memory_order_relaxed));
  server.Set("requests_ok", requests_ok_.load(std::memory_order_relaxed));
  server.Set("requests_error",
             requests_error_.load(std::memory_order_relaxed));
  server.Set("requests_cancelled",
             requests_cancelled_.load(std::memory_order_relaxed));
  server.Set("admission_rejected",
             admission_rejected_.load(std::memory_order_relaxed));
  server.Set("snapshots_loaded",
             snapshots_loaded_.load(std::memory_order_relaxed));
  server.Set("shard_sets_loaded",
             shard_sets_loaded_.load(std::memory_order_relaxed));
  server.Set("inflight", inflight_.load(std::memory_order_relaxed));
  server.Set("max_inflight", options_.max_inflight);
  server.Set("conn_open", conn_open_.load(std::memory_order_relaxed));
  server.Set("conn_accepted",
             conn_accepted_.load(std::memory_order_relaxed));
  server.Set("conn_closed",
             conn_closed_.load(std::memory_order_relaxed));
  server.Set("conn_idle_reaped",
             conn_idle_reaped_.load(std::memory_order_relaxed));
  server.Set("conn_io_timeout",
             conn_io_timeout_.load(std::memory_order_relaxed));
  server.Set("conn_bad_frame",
             conn_bad_frame_.load(std::memory_order_relaxed));
  server.Set("conn_torn", conn_torn_.load(std::memory_order_relaxed));
  server.Set("accept_failures",
             accept_failures_.load(std::memory_order_relaxed));
  server.Set("accept_backlog", options_.accept_backlog);
  server.Set("io_timeout_ms", options_.io_timeout_ms);
  server.Set("idle_timeout_ms", options_.idle_timeout_ms);
  server.Set(
      "uptime_seconds",
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count());
  result.Set("server", std::move(server));

  JsonValue cache = JsonValue::MakeObject();
  cache.Set("entries", cache_.entries());
  cache.Set("bytes", cache_.MemoryBytes());
  cache.Set("capacity_bytes", cache_.capacity_bytes());
  cache.Set("hits", cache_.hits());
  cache.Set("misses", cache_.misses());
  cache.Set("evictions", cache_.evictions());
  cache.Set("invalidations", cache_.invalidations());
  result.Set("cache", std::move(cache));

  const std::shared_ptr<const Snapshot> snap = snapshot();
  if (snap != nullptr) {
    JsonValue s = JsonValue::MakeObject();
    s.Set("version", snap->version);
    s.Set("fingerprint", snap->fingerprint);
    s.Set("path", snap->path);
    s.Set("transactions", snap->dataset.size());
    s.Set("graph_vertices", snap->view->num_vertices());
    s.Set("graph_edges", snap->view->num_edges());
    result.Set("snapshot", std::move(s));
  } else {
    result.Set("snapshot", JsonValue());
  }

  const std::shared_ptr<const ShardSet> set = shard_set();
  if (set != nullptr) {
    JsonValue s = JsonValue::MakeObject();
    s.Set("version", set->version);
    s.Set("fingerprint", set->fingerprint);
    s.Set("dir", set->dir);
    s.Set("transactions", set->num_transactions);
    s.Set("shards", set->num_shards);
    result.Set("shard_set", std::move(s));
  } else {
    result.Set("shard_set", JsonValue());
  }

  // The telemetry RunReport, embedded verbatim: the same document the
  // CLI's --metrics-out writes, served over the wire.
  telemetry::RunReportOptions report_options;
  report_options.binary = "tnmined";
  report_options.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  JsonValue report;
  if (JsonValue::Parse(telemetry::RenderRunReport(report_options),
                       &report, nullptr)) {
    result.Set("report", std::move(report));
  }

  JsonValue response = JsonValue::MakeObject();
  response.Set("ok", true);
  response.Set("op", "stats");
  response.Set("result", std::move(result));
  return response;
}

JsonValue Server::HandleLoadSnapshot(const JsonValue& request) {
  const std::string path =
      request.Get("params").Get("path").AsString(std::string());
  if (path.empty()) {
    return ErrorResponse("load_snapshot", "bad_request",
                         "params.path is required");
  }
  std::string error;
  if (!LoadSnapshot(path, &error)) {
    return ErrorResponse("load_snapshot", "load_failed", error);
  }
  const std::shared_ptr<const Snapshot> snap = snapshot();
  JsonValue result = JsonValue::MakeObject();
  result.Set("version", snap->version);
  result.Set("fingerprint", snap->fingerprint);
  result.Set("transactions", snap->dataset.size());
  JsonValue response = JsonValue::MakeObject();
  response.Set("ok", true);
  response.Set("op", "load_snapshot");
  response.Set("result", std::move(result));
  return response;
}

JsonValue Server::HandleLoadShards(const JsonValue& request) {
  const std::string dir =
      request.Get("params").Get("dir").AsString(std::string());
  if (dir.empty()) {
    return ErrorResponse("load_shards", "bad_request",
                         "params.dir is required");
  }
  std::string error;
  if (!LoadShards(dir, &error)) {
    return ErrorResponse("load_shards", "load_failed", error);
  }
  const std::shared_ptr<const ShardSet> set = shard_set();
  JsonValue result = JsonValue::MakeObject();
  result.Set("version", set->version);
  result.Set("fingerprint", set->fingerprint);
  result.Set("transactions", set->num_transactions);
  result.Set("shards", set->num_shards);
  JsonValue response = JsonValue::MakeObject();
  response.Set("ok", true);
  response.Set("op", "load_shards");
  response.Set("result", std::move(result));
  return response;
}

bool Server::TryAdmit() {
  std::size_t cur = inflight_.load(std::memory_order_relaxed);
  do {
    if (cur >= options_.max_inflight) return false;
  } while (!inflight_.compare_exchange_weak(cur, cur + 1,
                                            std::memory_order_relaxed));
  return true;
}

void Server::Release() {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::RegisterWatch(
    int fd, const std::shared_ptr<common::CancelToken>& token) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_.push_back(WatchedRequest{fd, token});
}

void Server::UnregisterWatch(int fd) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  for (auto it = watched_.begin(); it != watched_.end(); ++it) {
    if (it->fd == fd) {
      watched_.erase(it);
      return;
    }
  }
}

JsonValue Server::HandleMining(const std::string& op,
                               const JsonValue& request, int fd) {
  // mine_shards mines the registered ShardSet instead of the Snapshot;
  // everything downstream (cache key, admission, cancel watch) is
  // shared, parameterized by the data's fingerprint and version.
  const bool over_shards = op == "mine_shards";
  std::shared_ptr<const Snapshot> snap;
  std::shared_ptr<const ShardSet> shards;
  std::string fingerprint;
  std::uint64_t version = 0;
  if (over_shards) {
    shards = shard_set();
    if (shards == nullptr) {
      return ErrorResponse(op, "no_shards",
                           "no shard set loaded (use load_shards)");
    }
    fingerprint = shards->fingerprint;
    version = shards->version;
  } else {
    snap = snapshot();
    if (snap == nullptr) {
      return ErrorResponse(op, "no_snapshot",
                           "no snapshot loaded (use load_snapshot)");
    }
    fingerprint = snap->fingerprint;
    version = snap->version;
  }
  JsonValue params;
  std::string error;
  if (!CanonicalizeParams(request.Get("params"), ParamSchema(op), &params,
                          &error)) {
    return ErrorResponse(op, "bad_request", error);
  }

  const std::string key = op + "|" + fingerprint + "|v" +
                          std::to_string(version) + "|" +
                          params.Serialize();
  std::string payload;
  bool cached = cache_.Lookup(key, &payload);
  std::string outcome_label = "complete";
  if (!cached) {
    if (!TryAdmit()) {
      admission_rejected_.fetch_add(1, std::memory_order_relaxed);
      TNMINE_COUNTER_ADD("server/admission_rejected", 1);
      return ErrorResponse(op, "overloaded",
                           "too many mining requests in flight");
    }
    auto token = std::make_shared<common::CancelToken>();
    RegisterWatch(fd, token);
    const common::ResourceBudget budget =
        BudgetFor(params, options_.default_limits, token);
    try {
      payload = over_shards
                    ? MineShardsResult(params, *shards, budget,
                                       &outcome_label)
                    : MineResult(op, params, *snap, budget,
                                 &outcome_label);
    } catch (const std::exception& e) {
      UnregisterWatch(fd);
      Release();
      return ErrorResponse(op, "internal", e.what());
    }
    UnregisterWatch(fd);
    Release();
    if (outcome_label == "cancelled") {
      requests_cancelled_.fetch_add(1, std::memory_order_relaxed);
      TNMINE_COUNTER_ADD("server/requests_cancelled", 1);
    }
    // Only complete results are cached: deadline/memory truncation
    // depends on wall clock and allocator state, so a truncated payload
    // is not a deterministic function of the key.
    if (outcome_label == "complete") {
      cache_.Insert(key, payload);
    }
  }

  JsonValue result;
  if (!JsonValue::Parse(payload, &result, &error)) {
    return ErrorResponse(op, "internal",
                         "result payload corrupt: " + error);
  }
  JsonValue response = JsonValue::MakeObject();
  response.Set("ok", true);
  response.Set("op", op);
  response.Set("cached", cached);
  response.Set("snapshot_version", version);
  response.Set("result", std::move(result));
  return response;
}

std::string Server::MineResult(const std::string& op,
                               const JsonValue& params,
                               const Snapshot& snap,
                               const common::ResourceBudget& budget,
                               std::string* outcome_label) {
  JsonValue result = JsonValue::MakeObject();
  const std::size_t top =
      static_cast<std::size_t>(params.Get("top").AsInt());
  if (op == "structural") {
    const data::OdGraph& od =
        snap.od_graphs.at(params.Get("attribute").AsString());
    const core::StructuralMiningResult mined = core::MineStructuralPatterns(
        od.graph, StructuralOptions(params, options_.parallelism, budget));
    *outcome_label = common::ToString(mined.outcome);
    common::RecordOutcome("server", mined.outcome);
    result.Set("outcome", *outcome_label);
    result.Set("num_patterns", mined.registry.size());
    result.Set("work_ticks", mined.work_ticks);
    JsonValue reps = JsonValue::MakeArray();
    for (std::size_t n : mined.patterns_per_repetition) {
      reps.array().push_back(JsonValue(n));
    }
    result.Set("patterns_per_repetition", std::move(reps));
    result.Set("patterns",
               RenderPatterns(core::RankPatterns(mined.registry), top,
                              &od.discretizer));
  } else {
    const core::TemporalMiningResult mined = core::MineTemporalPatterns(
        snap.dataset, TemporalOptions(params, options_.parallelism, budget));
    *outcome_label = common::ToString(mined.outcome);
    common::RecordOutcome("server", mined.outcome);
    result.Set("outcome", *outcome_label);
    result.Set("num_patterns", mined.registry.size());
    result.Set("work_ticks", mined.work_ticks);
    result.Set("day_transactions", mined.partition.transactions.size());
    result.Set("absolute_min_support", mined.absolute_min_support);
    result.Set("patterns",
               RenderPatterns(mined.registry.SortedBySupport(), top,
                              &mined.partition.discretizer));
  }
  return result.Serialize();
}

std::string Server::MineShardsResult(const JsonValue& params,
                                     const ShardSet& shards,
                                     const common::ResourceBudget& budget,
                                     std::string* outcome_label) {
  std::string error;
  const auto source = graph::ShardedTransactionSource::Open(
      shards.dir, ShardSourceOptions(params, budget), &error);
  if (source == nullptr) {
    throw std::runtime_error("cannot open shard dir " + shards.dir +
                             ": " + error);
  }
  if (HexFingerprint(source->fingerprint()) != shards.fingerprint) {
    throw std::runtime_error(
        "shard dir " + shards.dir +
        " changed since load_shards; re-issue load_shards");
  }

  const TransactionMiningResult mined =
      MineTransactions(*source, params, options_.parallelism, budget);
  *outcome_label = common::ToString(mined.outcome);
  common::RecordOutcome("server", mined.outcome);
  JsonValue result = JsonValue::MakeObject();
  result.Set("transactions", source->num_transactions());
  result.Set("shards", source->num_shards());
  result.Set("work_ticks", mined.work_ticks);
  result.Set("outcome", *outcome_label);
  result.Set("num_patterns", mined.patterns.size());
  result.Set("patterns",
             RenderPatterns(
                 RankBySupport(mined.patterns),
                 static_cast<std::size_t>(params.Get("top").AsInt()),
                 nullptr));
  return result.Serialize();
}

}  // namespace tnmine::server
