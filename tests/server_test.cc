// End-to-end tnmined server tests (DESIGN.md §14): an in-process Server
// on a real socket, driven through BlockingClient over the
// length-prefixed JSON wire protocol. Pins the contracts the CI
// server-smoke job asserts from the outside: cache hits are
// byte-identical to fresh responses, any param delta or snapshot reload
// misses, a client disconnect mid-flight cancels the mining run without
// taking the server down, admission control rejects with "overloaded",
// and truncated (non-complete) results are never cached.

#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "data/generator.h"
#include "graph/labeled_graph.h"
#include "graph/shard_store.h"
#include "server/json.h"
#include "server/wire.h"

namespace tnmine::server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_path_ = new std::string(::testing::TempDir() +
                                 "/server_test_data.csv");
    data::GeneratorConfig config = data::GeneratorConfig::SmallScale();
    config.seed = 7;
    std::string error;
    ASSERT_TRUE(data::GenerateTransportData(config).SaveCsv(*data_path_,
                                                            &error))
        << error;
  }

  ServerOptions BaseOptions() const {
    ServerOptions options;
    options.listen = "tcp:127.0.0.1:0";
    options.snapshot_path = *data_path_;
    return options;
  }

  /// Starts a server or fails the test.
  std::unique_ptr<Server> StartServer(ServerOptions options) {
    auto server = std::make_unique<Server>(std::move(options));
    std::string error;
    EXPECT_TRUE(server->Start(&error)) << error;
    return server;
  }

  static JsonValue Request(const std::string& op,
                           JsonValue::Object params = {}) {
    JsonValue request = JsonValue::MakeObject();
    request.Set("op", op);
    if (!params.empty()) request.Set("params", JsonValue(std::move(params)));
    return request;
  }

  /// One connect + call round trip; fails the test on transport errors.
  static JsonValue Call(const Server& server, const JsonValue& request) {
    BlockingClient client;
    std::string error;
    EXPECT_TRUE(client.Connect(server.address(), &error)) << error;
    JsonValue response;
    EXPECT_TRUE(client.Call(request, &response, &error)) << error;
    return response;
  }

  static const std::string* data_path_;
};

const std::string* ServerTest::data_path_ = nullptr;

TEST_F(ServerTest, PingStatsAndUnknownOp) {
  const auto server = StartServer(BaseOptions());
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(server->address(), &error)) << error;

  JsonValue response;
  ASSERT_TRUE(client.Call(Request("ping"), &response, &error));
  EXPECT_TRUE(response.Get("ok").AsBool());
  EXPECT_TRUE(response.Get("result").Get("pong").AsBool());

  // Several requests pipeline over the one connection.
  ASSERT_TRUE(client.Call(Request("stats"), &response, &error));
  EXPECT_TRUE(response.Get("ok").AsBool());
  const JsonValue& result = response.Get("result");
  EXPECT_GE(result.Get("server").Get("requests_total").AsInt(), 2);
  EXPECT_EQ(result.Get("snapshot").Get("version").AsInt(), 1);
  EXPECT_EQ(result.Get("report").Get("binary").AsString(), "tnmined");

  ASSERT_TRUE(client.Call(Request("no_such_op"), &response, &error));
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("code").AsString(), "bad_request");
}

TEST_F(ServerTest, CachedResponseIsByteIdenticalToFresh) {
  const auto server = StartServer(BaseOptions());
  const JsonValue request = Request(
      "structural", {{"support", JsonValue(10)}, {"top", JsonValue(3)}});

  JsonValue fresh = Call(*server, request);
  ASSERT_TRUE(fresh.Get("ok").AsBool());
  EXPECT_FALSE(fresh.Get("cached").AsBool(true));
  EXPECT_EQ(fresh.Get("result").Get("outcome").AsString(), "complete");

  JsonValue hit = Call(*server, request);
  ASSERT_TRUE(hit.Get("ok").AsBool());
  EXPECT_TRUE(hit.Get("cached").AsBool());

  // The mined payload must be byte-identical — and so must the whole
  // response besides the cached flag itself.
  EXPECT_EQ(fresh.Get("result").Serialize(), hit.Get("result").Serialize());
  fresh.object().erase("cached");
  hit.object().erase("cached");
  EXPECT_EQ(fresh.Serialize(), hit.Serialize());

  EXPECT_EQ(server->cache().hits(), 1u);
  EXPECT_EQ(server->cache().misses(), 1u);
}

TEST_F(ServerTest, ExplicitDefaultsShareTheCacheKey) {
  const auto server = StartServer(BaseOptions());
  // "support": 10 is the schema default: spelling it explicitly must
  // canonicalize onto the same key as omitting it.
  const JsonValue first = Call(
      *server, Request("structural", {{"support", JsonValue(10)}}));
  ASSERT_TRUE(first.Get("ok").AsBool());
  const JsonValue second = Call(*server, Request("structural"));
  ASSERT_TRUE(second.Get("ok").AsBool());
  EXPECT_TRUE(second.Get("cached").AsBool());
}

TEST_F(ServerTest, AnyParamDeltaMisses) {
  const auto server = StartServer(BaseOptions());
  ASSERT_TRUE(
      Call(*server, Request("structural")).Get("ok").AsBool());
  const JsonValue delta = Call(
      *server, Request("structural", {{"support", JsonValue(11)}}));
  ASSERT_TRUE(delta.Get("ok").AsBool());
  EXPECT_FALSE(delta.Get("cached").AsBool(true));
  EXPECT_EQ(server->cache().misses(), 2u);
}

TEST_F(ServerTest, SnapshotReloadInvalidatesCache) {
  const auto server = StartServer(BaseOptions());
  ASSERT_TRUE(
      Call(*server, Request("structural")).Get("ok").AsBool());
  EXPECT_EQ(server->cache().entries(), 1u);

  // Reload over the wire (same file, so only the version changes).
  const JsonValue reload = Call(
      *server,
      Request("load_snapshot", {{"path", JsonValue(*data_path_)}}));
  ASSERT_TRUE(reload.Get("ok").AsBool());
  EXPECT_EQ(reload.Get("result").Get("version").AsInt(), 2);
  EXPECT_EQ(server->cache().entries(), 0u);

  const JsonValue after = Call(*server, Request("structural"));
  ASSERT_TRUE(after.Get("ok").AsBool());
  EXPECT_FALSE(after.Get("cached").AsBool(true));
  EXPECT_EQ(after.Get("snapshot_version").AsInt(), 2);
}

TEST_F(ServerTest, DisconnectMidFlightCancelsMining) {
  const auto server = StartServer(BaseOptions());

  // A mining request heavy enough to still be running when the client
  // vanishes (low support + deep patterns on the gspan miner).
  JsonValue heavy = Request("structural", {{"miner", JsonValue("gspan")},
                                           {"support", JsonValue(2)},
                                           {"max_edges", JsonValue(6)},
                                           {"reps", JsonValue(8)}});
  {
    BlockingClient client;
    std::string error;
    ASSERT_TRUE(client.Connect(server->address(), &error)) << error;
    ASSERT_TRUE(client.Send(heavy));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }  // ~BlockingClient closes the socket mid-mining.

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server->requests_cancelled() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server->requests_cancelled(), 1u);

  // The server must keep serving after the cancelled request.
  EXPECT_TRUE(Call(*server, Request("ping")).Get("ok").AsBool());
}

TEST_F(ServerTest, OverloadedRejectionWhenNoCapacity) {
  ServerOptions options = BaseOptions();
  options.max_inflight = 0;  // every mining request must be rejected
  const auto server = StartServer(std::move(options));
  const JsonValue response = Call(*server, Request("structural"));
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("code").AsString(), "overloaded");
  EXPECT_EQ(server->admission_rejected(), 1u);
  // Non-mining ops bypass admission control.
  EXPECT_TRUE(Call(*server, Request("stats")).Get("ok").AsBool());
}

TEST_F(ServerTest, TruncatedResultsAreNotCached) {
  const auto server = StartServer(BaseOptions());
  const JsonValue request = Request(
      "structural",
      {{"support", JsonValue(2)}, {"max_work_ticks", JsonValue(50)}});
  const JsonValue first = Call(*server, request);
  ASSERT_TRUE(first.Get("ok").AsBool());
  EXPECT_EQ(first.Get("result").Get("outcome").AsString(),
            "deadline_exceeded");
  EXPECT_EQ(server->cache().entries(), 0u);
  const JsonValue second = Call(*server, request);
  ASSERT_TRUE(second.Get("ok").AsBool());
  EXPECT_FALSE(second.Get("cached").AsBool(true));
}

TEST_F(ServerTest, LruEvictionUnderSmallServerCache) {
  // Probe the entry footprint once, then rebuild the server with a cache
  // that holds one entry but not two.
  std::uint64_t one_entry_bytes = 0;
  {
    const auto probe = StartServer(BaseOptions());
    ASSERT_TRUE(Call(*probe, Request("structural", {{"top", JsonValue(1)}}))
                    .Get("ok")
                    .AsBool());
    one_entry_bytes = probe->cache().MemoryBytes();
    ASSERT_GT(one_entry_bytes, 0u);
  }

  ServerOptions options = BaseOptions();
  options.cache_bytes = one_entry_bytes + 256;
  const auto server = StartServer(std::move(options));
  ASSERT_TRUE(Call(*server, Request("structural", {{"top", JsonValue(1)}}))
                  .Get("ok")
                  .AsBool());
  ASSERT_TRUE(Call(*server, Request("structural", {{"top", JsonValue(2)}}))
                  .Get("ok")
                  .AsBool());
  EXPECT_GE(server->cache().evictions(), 1u);
  EXPECT_LE(server->cache().MemoryBytes(), server->cache().capacity_bytes());

  // The evicted (older) entry misses again.
  const JsonValue again =
      Call(*server, Request("structural", {{"top", JsonValue(1)}}));
  ASSERT_TRUE(again.Get("ok").AsBool());
  EXPECT_FALSE(again.Get("cached").AsBool(true));
}

TEST_F(ServerTest, TemporalMiningOverTheWire) {
  const auto server = StartServer(BaseOptions());
  const JsonValue request = Request(
      "temporal", {{"support_fraction", JsonValue(0.05)},
                   {"top", JsonValue(2)}});
  const JsonValue response = Call(*server, request);
  ASSERT_TRUE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("result").Get("outcome").AsString(), "complete");
  EXPECT_GT(response.Get("result").Get("num_patterns").AsInt(), 0);
  EXPECT_TRUE(Call(*server, request).Get("cached").AsBool());
}

TEST_F(ServerTest, BadParamsAreRejectedNotMined) {
  const auto server = StartServer(BaseOptions());
  const JsonValue typo = Call(
      *server, Request("structural", {{"supprt", JsonValue(10)}}));
  EXPECT_FALSE(typo.Get("ok").AsBool());
  EXPECT_EQ(typo.Get("code").AsString(), "bad_request");

  const JsonValue wrong_type = Call(
      *server, Request("structural", {{"support", JsonValue("ten")}}));
  EXPECT_FALSE(wrong_type.Get("ok").AsBool());
  EXPECT_EQ(wrong_type.Get("code").AsString(), "bad_request");
}

TEST_F(ServerTest, UnknownChoiceValuesAreRejectedNotMined) {
  const auto server = StartServer(BaseOptions());
  // (param, the values it accepts)
  const std::pair<std::string, std::string> cases[] = {
      {"attribute", "weight, hours, distance"},
      {"strategy", "bf, df"},
      {"miner", "fsg, gspan"},
  };
  for (const auto& [param, choices] : cases) {
    const JsonValue response =
        Call(*server, Request("structural", {{param, JsonValue("hour")}}));
    EXPECT_FALSE(response.Get("ok").AsBool()) << param;
    EXPECT_EQ(response.Get("code").AsString(), "bad_request") << param;
    EXPECT_EQ(response.Get("error").AsString(),
              "param '" + param + "' must be one of: " + choices);
  }
  EXPECT_EQ(server->cache().misses(), 0u);
}

TEST_F(ServerTest, OutOfRangeParamsAreRejectedNotMined) {
  const auto server = StartServer(BaseOptions());
  const struct {
    const char* op;
    const char* param;
    JsonValue value;
    const char* error;
  } cases[] = {
      {"structural", "reps", JsonValue(0), "param 'reps' must be at least 1"},
      {"structural", "reps", JsonValue(-1),
       "param 'reps' must be at least 1"},
      {"structural", "k", JsonValue(0), "param 'k' must be at least 1"},
      {"structural", "support", JsonValue(-3),
       "param 'support' must be at least 0"},
      {"structural", "max_memory_mb", JsonValue(-1),
       "param 'max_memory_mb' must be at least 0"},
      {"temporal", "support_fraction", JsonValue(-1),
       "param 'support_fraction' must be in [0, 1]"},
      {"temporal", "support_fraction", JsonValue(1.5),
       "param 'support_fraction' must be in [0, 1]"},
      {"temporal", "max_labels", JsonValue(-1),
       "param 'max_labels' must be at least 0"},
  };
  for (const auto& c : cases) {
    const JsonValue response =
        Call(*server, Request(c.op, {{c.param, c.value}}));
    EXPECT_FALSE(response.Get("ok").AsBool()) << c.param;
    EXPECT_EQ(response.Get("code").AsString(), "bad_request") << c.param;
    EXPECT_EQ(response.Get("error").AsString(), c.error);
  }
  EXPECT_EQ(server->cache().misses(), 0u);
}

TEST_F(ServerTest, MineShardsRejectsAnUnknownMiner) {
  const std::string dir = ::testing::TempDir() + "/server_test_shards";
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  graph::ShardWriter writer(dir + "/" + graph::ShardFileName(0));
  for (int i = 0; i < 4; ++i) {
    graph::LabeledGraph g;
    g.AddEdge(g.AddVertex(1), g.AddVertex(2), 3);
    writer.Add(g);
  }
  std::string error;
  ASSERT_TRUE(writer.Finish(&error)) << error;
  const auto server = StartServer(BaseOptions());
  ASSERT_TRUE(server->LoadShards(dir, &error)) << error;

  const JsonValue unknown =
      Call(*server, Request("mine_shards", {{"miner", JsonValue("subdue")}}));
  EXPECT_FALSE(unknown.Get("ok").AsBool());
  EXPECT_EQ(unknown.Get("code").AsString(), "bad_request");
  EXPECT_EQ(unknown.Get("error").AsString(),
            "param 'miner' must be one of: fsg, gspan");
  EXPECT_EQ(server->cache().misses(), 0u);

  const JsonValue gspan =
      Call(*server, Request("mine_shards", {{"miner", JsonValue("gspan")}}));
  ASSERT_TRUE(gspan.Get("ok").AsBool());
  EXPECT_EQ(gspan.Get("result").Get("num_patterns").AsInt(), 1);
}

TEST_F(ServerTest, NoSnapshotIsAnHonestError) {
  ServerOptions options;
  options.listen = "tcp:127.0.0.1:0";
  const auto server = StartServer(std::move(options));
  const JsonValue response = Call(*server, Request("structural"));
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("code").AsString(), "no_snapshot");
}

TEST_F(ServerTest, UnixSocketEndToEnd) {
  ServerOptions options = BaseOptions();
  const std::string spec =
      "unix:" + ::testing::TempDir() + "/server_test.sock";
  options.listen = spec;
  const auto server = StartServer(std::move(options));
  EXPECT_EQ(server->address(), spec);
  EXPECT_TRUE(Call(*server, Request("ping")).Get("ok").AsBool());
}

TEST_F(ServerTest, RequestIdIsEchoed) {
  const auto server = StartServer(BaseOptions());
  JsonValue request = Request("ping");
  request.Set("id", "req-42");
  const JsonValue response = Call(*server, request);
  EXPECT_TRUE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("id").AsString(), "req-42");
}

// --------------------------------------------------------------------
// Wire-level robustness (DESIGN.md §15): raw sockets below
// BlockingClient so the tests control every byte on the wire.

/// Raw blocking TCP connect to the server's resolved address.
int RawConnect(const Server& server) {
  ListenAddress addr;
  std::string error;
  if (!ListenAddress::Parse(server.address(), &addr, &error)) return -1;
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.host.c_str(), &sin.sin_addr) != 1) {
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t put = ::send(fd, p + done, n - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(put);
  }
  return true;
}

bool SendRawFrame(int fd, std::string_view payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const char header[4] = {static_cast<char>((len >> 24) & 0xFF),
                          static_cast<char>((len >> 16) & 0xFF),
                          static_cast<char>((len >> 8) & 0xFF),
                          static_cast<char>(len & 0xFF)};
  return SendAll(fd, header, sizeof(header)) &&
         SendAll(fd, payload.data(), payload.size());
}

/// Milliseconds until the server closed `fd`, or -1 when it did not
/// within `limit_ms`.
long MsUntilPeerClose(int fd, long limit_ms) {
  const auto start = std::chrono::steady_clock::now();
  char b;
  for (;;) {
    const long elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (elapsed >= limit_ms) return -1;
    const ssize_t got = ::recv(fd, &b, 1, 0);
    if (got == 0) return elapsed;  // orderly close
    if (got < 0 && errno != EINTR) return elapsed;  // RST et al.
    // Response bytes — drain and keep waiting for the close.
  }
}

/// Sends one raw frame and expects a bad_request response on the same
/// socket — the contract for well-framed-but-invalid payloads.
void ExpectBadRequestForPayload(const Server& server,
                                std::string_view payload) {
  const int fd = RawConnect(server);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendRawFrame(fd, payload));
  std::string raw;
  ASSERT_EQ(ReadFrameDeadline(fd, &raw, 30000, 30000),
            FrameReadStatus::kFrame)
      << "no response frame for payload: " << payload;
  ::close(fd);
  JsonValue response;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(raw, &response, &error)) << error;
  EXPECT_FALSE(response.Get("ok").AsBool(true));
  EXPECT_EQ(response.Get("code").AsString(), "bad_request");
}

TEST_F(ServerTest, MalformedPayloadsAnswerBadRequest) {
  const auto server = StartServer(BaseOptions());
  const char* kPayloads[] = {
      "",             // zero-length frame
      "\x01garbage",  // not JSON
      "[1,2,3]",      // JSON non-object
      "\"ping\"",     // JSON string
  };
  for (const char* payload : kPayloads) {
    ExpectBadRequestForPayload(*server, payload);
    // Whatever the hostile frame was, the next honest request is served.
    EXPECT_TRUE(Call(*server, Request("ping")).Get("ok").AsBool());
  }
  EXPECT_GE(server->conn_bad_frame(), 4u);
}

TEST_F(ServerTest, OversizedLengthPrefixIsDroppedCleanly) {
  ServerOptions options = BaseOptions();
  options.io_timeout_ms = 500;
  const auto server = StartServer(std::move(options));
  const int fd = RawConnect(*server);
  ASSERT_GE(fd, 0);
  const std::uint32_t len = kMaxFrameBytes + 1;
  const char header[4] = {static_cast<char>((len >> 24) & 0xFF),
                          static_cast<char>((len >> 16) & 0xFF),
                          static_cast<char>((len >> 8) & 0xFF),
                          static_cast<char>(len & 0xFF)};
  ASSERT_TRUE(SendAll(fd, header, sizeof(header)));
  // No resync is possible after a lying length prefix: the only safe
  // move is to drop, not to answer.
  EXPECT_GE(MsUntilPeerClose(fd, 10000), 0);
  ::close(fd);
  EXPECT_GE(server->conn_bad_frame(), 1u);
  EXPECT_TRUE(Call(*server, Request("ping")).Get("ok").AsBool());
}

TEST_F(ServerTest, TruncatedHeaderThenCloseIsHarmless) {
  const auto server = StartServer(BaseOptions());
  const int fd = RawConnect(*server);
  ASSERT_GE(fd, 0);
  const char half[2] = {0, 0};
  ASSERT_TRUE(SendAll(fd, half, sizeof(half)));
  ::close(fd);  // die mid-header
  EXPECT_TRUE(Call(*server, Request("ping")).Get("ok").AsBool());
}

TEST_F(ServerTest, MidFrameStallerDroppedWithinIoTimeout) {
  ServerOptions options = BaseOptions();
  options.io_timeout_ms = 250;
  const auto server = StartServer(std::move(options));
  const int fd = RawConnect(*server);
  ASSERT_GE(fd, 0);
  // Start a frame (two header bytes) and then stall forever: the
  // monotonic I/O budget — not per-byte progress — must cut us off.
  const char torn[2] = {0, 0};
  ASSERT_TRUE(SendAll(fd, torn, sizeof(torn)));
  const long dropped_ms = MsUntilPeerClose(fd, 30000);
  ::close(fd);
  ASSERT_GE(dropped_ms, 0) << "mid-frame staller was never dropped";
  // Bounded by the configured budget plus scheduling slack — and far
  // under the 5s a broken (infinite) deadline would blow through.
  EXPECT_LT(dropped_ms, 5000);
  EXPECT_GE(server->conn_io_timeout(), 1u);
  EXPECT_TRUE(Call(*server, Request("ping")).Get("ok").AsBool());
}

TEST_F(ServerTest, IdleConnectionsAreReaped) {
  ServerOptions options = BaseOptions();
  options.idle_timeout_ms = 200;
  const auto server = StartServer(std::move(options));
  const int fd = RawConnect(*server);
  ASSERT_GE(fd, 0);
  // Never send a byte: the idle deadline is the reaper.
  EXPECT_GE(MsUntilPeerClose(fd, 30000), 0);
  ::close(fd);
  EXPECT_GE(server->conn_idle_reaped(), 1u);
  EXPECT_TRUE(Call(*server, Request("ping")).Get("ok").AsBool());
}

TEST_F(ServerTest, StatsExposeConnectionCounters) {
  ServerOptions options = BaseOptions();
  options.accept_backlog = 17;
  const auto server = StartServer(std::move(options));
  const JsonValue response = Call(*server, Request("stats"));
  ASSERT_TRUE(response.Get("ok").AsBool());
  const JsonValue& stats = response.Get("result").Get("server");
  EXPECT_GE(stats.Get("conn_accepted").AsInt(), 1);
  EXPECT_GE(stats.Get("conn_open").AsInt(), 1);  // our own connection
  EXPECT_EQ(stats.Get("accept_backlog").AsInt(), 17);
  EXPECT_EQ(stats.Get("conn_idle_reaped").AsInt(), 0);
  EXPECT_EQ(stats.Get("conn_io_timeout").AsInt(), 0);
  EXPECT_EQ(stats.Get("conn_bad_frame").AsInt(), 0);
  EXPECT_EQ(stats.Get("conn_torn").AsInt(), 0);
  EXPECT_EQ(stats.Get("accept_failures").AsInt(), 0);
}

TEST_F(ServerTest, ClientErrorsNameAddressAndErrno) {
  BlockingClient client;
  std::string error;
  // Port 1 on localhost: reliably refused, never listening.
  EXPECT_FALSE(client.Connect("tcp:127.0.0.1:1", &error));
  EXPECT_NE(error.find("tcp:127.0.0.1:1"), std::string::npos) << error;
  // strerror text, not a bare "connect failed".
  EXPECT_NE(error.find("refused"), std::string::npos) << error;
}

#if TNMINE_FAILPOINTS_ENABLED
TEST_F(ServerTest, ConnectRetriesThroughTransientFailure) {
  const auto server = StartServer(BaseOptions());
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("wire/connect_fail", failpoint::Kind::kIoError));

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 10;
  policy.jitter_seed = 42;

  BlockingClient client;
  std::string error;
  // First attempt hits the armed failpoint; the retry succeeds.
  EXPECT_TRUE(client.Connect(server->address(), policy, &error)) << error;
  JsonValue response;
  EXPECT_TRUE(client.Call(Request("ping"), &response, &error)) << error;
  EXPECT_TRUE(response.Get("ok").AsBool());
  failpoint::DisarmAll();
}

TEST_F(ServerTest, ConnectWithoutRetryGivesUpOnTransientFailure) {
  const auto server = StartServer(BaseOptions());
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("wire/connect_fail", failpoint::Kind::kIoError));
  BlockingClient client;
  std::string error;
  EXPECT_FALSE(client.Connect(server->address(), &error));
  EXPECT_NE(error.find(server->address()), std::string::npos) << error;
  failpoint::DisarmAll();
}

TEST_F(ServerTest, CallWithRetryRidesThroughInjectedWriteFault) {
  const auto server = StartServer(BaseOptions());
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(server->address(), &error)) << error;

  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("wire/write_short", failpoint::Kind::kIoError));
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 10;
  JsonValue response;
  // The injected short write kills the first attempt; CallWithRetry
  // reconnects (framing state is unknown after a failed send) and the
  // second attempt completes.
  EXPECT_TRUE(client.CallWithRetry(Request("ping"), policy,
                                   /*idempotent=*/true, &response, &error))
      << error;
  EXPECT_TRUE(response.Get("ok").AsBool());
  failpoint::DisarmAll();
}

TEST_F(ServerTest, NonIdempotentRequestsAreNotRetried) {
  const auto server = StartServer(BaseOptions());
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect(server->address(), &error)) << error;

  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("wire/write_short", failpoint::Kind::kIoError));
  RetryPolicy policy;
  policy.max_attempts = 3;
  JsonValue response;
  // Declared non-idempotent: the transport failure surfaces immediately
  // instead of re-sending a request that might have taken effect.
  EXPECT_FALSE(client.CallWithRetry(Request("ping"), policy,
                                    /*idempotent=*/false, &response,
                                    &error));
  failpoint::DisarmAll();
}
#endif  // TNMINE_FAILPOINTS_ENABLED

}  // namespace
}  // namespace tnmine::server
