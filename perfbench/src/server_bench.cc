#include "server_bench.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/interestingness.h"
#include "core/miner.h"
#include "data/generator.h"
#include "data/od_graph.h"
#include "layers.h"
#include "pattern/render.h"
#include "schedule.h"
#include "server/json.h"
#include "server/server.h"
#include "server/wire.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace tnmine;
using server::JsonValue;

/// Closed-loop clients in this process, one connection each: a client
/// sends its next request only once the previous response arrived.
constexpr std::size_t kClients = 4;
/// Share of the run spent setting up again between request phases (see
/// SetupSampler).
constexpr double kSetupShare = 0.1;
/// The clients run in phases of this length, with set-ups in between.
constexpr double kPhaseSeconds = 2.0;
/// Generator seed of the small-scale snapshot (bench_server_throughput's).
/// The snapshot is the same for every workload seed; the seed drives the
/// clients' request schedules.
constexpr std::uint64_t kSnapshotSeed = 7;

int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

/// One request as its client saw it.
struct Sample {
  RequestKind kind = RequestKind::kControl;
  std::string op;
  bool ok = false;
  bool traced = false;
  std::size_t phase = 0;
  double latency_s = 0.0;  ///< frame write to parsed response
  double parse_s = 0.0;    ///< JsonValue::Parse of the response
};

/// A successful mining response, kept for the check against the library.
struct MiningResponse {
  std::size_t sample = 0;  ///< index into the client's samples
  std::string op;
  JsonValue::Object params;
  std::string output_key;
  int top = 0;
  std::uint64_t result_hash = 0;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::vector<MiningResponse> mining;
  std::string error;
};

/// One closed-loop client: its connection, its place in its schedule and
/// what it saw. It runs in phases and keeps all three between them.
class Client {
 public:
  Client(std::uint64_t seed, std::size_t index)
      : index_(index), schedule_(seed, index, kClients) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(const std::string& socket_path) {
    fd_ = ConnectUnix(socket_path);
    if (fd_ < 0) {
      log.error = "connect " + socket_path + ": " + std::strerror(errno);
    }
    return fd_ >= 0;
  }

  /// Sends requests for `seconds`, each once the previous one's response
  /// arrived; stops early on a transport error.
  void RunFor(double seconds, std::size_t phase, SpanRecorder* spans);

  ClientLog log;

 private:
  std::size_t index_;
  ScheduleGenerator schedule_;
  int fd_ = -1;
  std::uint64_t sent_ = 0;
  std::string bytes_;
};

void Client::RunFor(double seconds, std::size_t phase_index,
                    SpanRecorder* spans) {
  Stopwatch phase;
  while (log.error.empty() && phase.ElapsedSeconds() < seconds) {
    const std::uint64_t i = sent_++;
    const ScheduledRequest request = schedule_.Next();
    const std::string payload = request.ToRequest().Serialize();
    Sample sample;
    sample.kind = request.kind;
    sample.op = request.op;
    sample.phase = phase_index;
    // Every second request is traced, so the traced and untraced halves
    // see the same mix and their difference is the tracing overhead.
    sample.traced = spans != nullptr && i % 2 == 1;
    SpanRecorder* recorder = sample.traced ? spans : nullptr;
    const std::uint64_t job = (static_cast<std::uint64_t>(index_) << 32) | i;
    JsonValue response;
    bool delivered = false;
    bool parsed = false;
    Stopwatch watch;
    {
      ScopedSpan span(recorder, std::string("request.") + KindName(request.kind),
                      job);
      {
        ScopedSpan wire(recorder, "wire.roundtrip", job, span.id());
        delivered = server::WriteFrame(fd_, payload) &&
                    server::ReadFrame(fd_, &bytes_);
      }
      Stopwatch parse;
      {
        ScopedSpan json(recorder, "json.parse", job, span.id());
        parsed = delivered && JsonValue::Parse(bytes_, &response, nullptr);
      }
      sample.parse_s = parse.ElapsedSeconds();
    }
    sample.latency_s = watch.ElapsedSeconds();
    sample.ok = parsed && response.Get("ok").AsBool();
    if (sample.ok && request.kind != RequestKind::kControl) {
      MiningResponse m;
      m.sample = log.samples.size();
      m.op = request.op;
      m.params = request.params;
      m.output_key = request.output_key;
      m.top = request.top;
      m.result_hash = Fnv1a(response.Get("result").Serialize());
      log.mining.push_back(std::move(m));
    }
    log.samples.push_back(std::move(sample));
    if (!delivered) {
      log.error = "request " + std::to_string(i) + ": transport error";
    }
  }
}

/// What the server builds at load time, rebuilt here from the same CSV.
struct Snapshot {
  data::TransactionDataset dataset;
  data::OdGraph weight;
  data::OdGraph hours;
  data::OdGraph distance;
};

/// The server's pattern rendering (server.cc RenderPatterns), built from
/// the same public calls.
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

/// The `result` object a response to `params` must carry, rendered for
/// each of `tops`, as hashes of its canonical serialization. Only the
/// output-determining params are read: top, threads and deadline_ms
/// must not change what is mined.
std::map<int, std::uint64_t> ExpectedHashes(const std::string& op,
                                            const JsonValue::Object& object,
                                            const std::set<int>& tops,
                                            const Snapshot& snap) {
  const JsonValue params(object);
  // The server mines under an active (all-unlimited) budget, which also
  // meters work ticks; so does the reference.
  const common::ResourceBudget budget{common::BudgetLimits{}};
  std::map<int, std::uint64_t> hashes;
  if (op == "structural") {
    const std::string attribute = params.Get("attribute").AsString("weight");
    const data::OdGraph& od = attribute == "hours"      ? snap.hours
                              : attribute == "distance" ? snap.distance
                                                        : snap.weight;
    core::StructuralMiningOptions options;
    options.strategy = params.Get("strategy").AsString("bf") == "df"
                           ? partition::SplitStrategy::kDepthFirst
                           : partition::SplitStrategy::kBreadthFirst;
    options.num_partitions =
        static_cast<std::size_t>(params.Get("k").AsInt(40));
    options.min_support =
        static_cast<std::size_t>(params.Get("support").AsInt(10));
    options.max_pattern_edges =
        static_cast<std::size_t>(params.Get("max_edges").AsInt(3));
    options.repetitions = 1;
    options.seed = static_cast<std::uint64_t>(params.Get("seed").AsInt(1));
    options.budget = budget;
    const core::StructuralMiningResult mined =
        core::MineStructuralPatterns(od.graph, options);
    const auto ranked = core::RankPatterns(mined.registry);
    for (int top : tops) {
      JsonValue result = JsonValue::MakeObject();
      result.Set("outcome", common::ToString(mined.outcome));
      result.Set("num_patterns", mined.registry.size());
      result.Set("work_ticks", mined.work_ticks);
      JsonValue reps = JsonValue::MakeArray();
      for (std::size_t n : mined.patterns_per_repetition) {
        reps.array().push_back(JsonValue(n));
      }
      result.Set("patterns_per_repetition", std::move(reps));
      result.Set("patterns",
                 RenderPatterns(ranked, static_cast<std::size_t>(top),
                                &od.discretizer));
      hashes[top] = Fnv1a(result.Serialize());
    }
  } else {
    core::TemporalMiningOptions options;
    options.min_support_fraction =
        params.Get("support_fraction").AsDouble(0.05);
    options.max_pattern_edges =
        static_cast<std::size_t>(params.Get("max_edges").AsInt(3));
    options.budget = budget;
    const core::TemporalMiningResult mined =
        core::MineTemporalPatterns(snap.dataset, options);
    const auto ranked = mined.registry.SortedBySupport();
    for (int top : tops) {
      JsonValue result = JsonValue::MakeObject();
      result.Set("outcome", common::ToString(mined.outcome));
      result.Set("num_patterns", mined.registry.size());
      result.Set("work_ticks", mined.work_ticks);
      result.Set("day_transactions", mined.partition.transactions.size());
      result.Set("absolute_min_support", mined.absolute_min_support);
      result.Set("patterns",
                 RenderPatterns(ranked, static_cast<std::size_t>(top),
                                &mined.partition.discretizer));
      hashes[top] = Fnv1a(result.Serialize());
    }
  }
  return hashes;
}

/// Checks every mining response against the direct library result for
/// its params; marks mismatching samples failed and returns their count.
std::size_t CheckAgainstLibrary(const std::string& csv_path,
                                std::vector<ClientLog>* logs,
                                Report* report) {
  Snapshot snap;
  std::string error;
  if (!data::TransactionDataset::LoadCsv(csv_path, &snap.dataset, &error)) {
    report->Fail("cannot reload the snapshot " + csv_path + ": " + error);
    return 0;
  }
  snap.weight = data::BuildOdGw(snap.dataset);
  snap.hours = data::BuildOdTh(snap.dataset);
  snap.distance = data::BuildOdTd(snap.dataset);

  struct Key {
    std::string op;
    JsonValue::Object params;
    std::set<int> tops;
  };
  std::map<std::string, Key> keys;
  for (const ClientLog& log : *logs) {
    for (const MiningResponse& m : log.mining) {
      Key& key = keys[m.output_key];
      if (key.op.empty()) {
        key.op = m.op;
        key.params = m.params;
      }
      key.tops.insert(m.top);
    }
  }
  std::vector<const Key*> work;
  std::map<std::string, std::size_t> index;
  for (const auto& [name, key] : keys) {
    index[name] = work.size();
    work.push_back(&key);
  }
  const std::vector<std::map<int, std::uint64_t>> expected =
      common::ParallelMap<std::map<int, std::uint64_t>>(
          common::Parallelism{}, work.size(), [&](std::size_t i) {
            return ExpectedHashes(work[i]->op, work[i]->params,
                                  work[i]->tops, snap);
          });
  std::size_t mismatches = 0;
  std::size_t checked = 0;
  for (ClientLog& log : *logs) {
    for (const MiningResponse& m : log.mining) {
      ++checked;
      if (expected[index.at(m.output_key)].at(m.top) != m.result_hash) {
        if (++mismatches == 1) {
          report->Fail("response differs from the library result for " +
                       m.output_key + " top " + std::to_string(m.top));
        }
        log.samples[m.sample].ok = false;
      }
    }
  }
  report->Line("checked %zu mining responses over %zu distinct output "
               "params against direct library calls: %zu differ",
               checked, work.size(), mismatches);
  return mismatches;
}

double MedianOf(const std::vector<Sample>& samples,
                bool (*keep)(const Sample&)) {
  std::vector<double> values;
  for (const Sample& s : samples) {
    if (keep(s)) values.push_back(s.latency_s);
  }
  return Median(std::move(values));
}

/// The server's set-up: generate the snapshot, write its CSV, start a
/// server on it (which loads it). Returns null after a failed check.
std::unique_ptr<server::Server> SetUp(const std::string& csv_path,
                                      const std::string& socket_path,
                                      double* generate_s, double* load_s,
                                      Report* report) {
  Stopwatch watch;
  data::GeneratorConfig config = data::GeneratorConfig::SmallScale();
  config.seed = kSnapshotSeed;
  const data::TransactionDataset dataset = data::GenerateTransportData(config);
  *generate_s = watch.ElapsedSeconds();
  watch.Reset();
  std::string error;
  if (!dataset.SaveCsv(csv_path, &error)) {
    report->Fail("cannot write " + csv_path + ": " + error);
    return nullptr;
  }
  server::ServerOptions server_options;
  server_options.listen = "unix:" + socket_path;
  server_options.snapshot_path = csv_path;
  auto srv = std::make_unique<server::Server>(server_options);
  if (!srv->Start(&error)) {
    report->Fail("server start failed: " + error);
    return nullptr;
  }
  *load_s = watch.ElapsedSeconds();
  return srv;
}

}  // namespace

void RunServer(const Options& options, Report* report) {
  const std::string stem =
      options.work_dir + "/server-" + std::to_string(::getpid());
  const std::string csv_path = stem + ".csv";
  const std::string socket_path = stem + ".sock";
  report->Line("workload server, seed %llu: in-process tnmined on a unix "
               "socket, small-scale snapshot (2,000 transactions), %zu "
               "closed-loop clients for %.1f s",
               static_cast<unsigned long long>(options.seed), kClients,
               options.seconds);

  // The first set-up starts the server the clients use, unpinned, since
  // its threads inherit the creating thread's CPUs. The later ones,
  // between request phases, start a second server on its own files and
  // stop it again, outside the timing.
  SetupSampler setups(kSetupShare);
  std::vector<double> generate_s, load_s;
  const auto set_up = [&](const std::string& csv, const std::string& sock) {
    Stopwatch watch;
    double generate = 0.0, load = 0.0;
    std::unique_ptr<server::Server> srv =
        SetUp(csv, sock, &generate, &load, report);
    setups.Add(watch.ElapsedSeconds());
    generate_s.push_back(generate);
    load_s.push_back(load);
    return srv;
  };
  std::unique_ptr<server::Server> srv = set_up(csv_path, socket_path);
  if (srv == nullptr) return;

  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(options.seed, c));
    if (!clients.back()->Connect(socket_path)) break;
  }
  SpanRecorder spans;
  SpanRecorder* recorder = options.trace ? &spans : nullptr;
  RegistryDeltas deltas;
  std::vector<double> phase_s;
  double peak_rss_mb = 0.0;
  bool rss_reset = true;
  const auto failed = [&] {
    for (const auto& client : clients) {
      if (!client->log.error.empty()) return true;
    }
    return false;
  };
  Stopwatch window;
  while (!failed() && window.ElapsedSeconds() < options.seconds) {
    while (setups.Due(window.ElapsedSeconds())) {
      // The extra server's threads end before the pin does.
      RotatingCpuPin pin;
      std::unique_ptr<server::Server> extra =
          set_up(stem + "-setup.csv", stem + "-setup.sock");
      if (extra == nullptr) break;
      extra->Stop();
    }
    const double length_s = std::min(
        kPhaseSeconds, options.seconds - window.ElapsedSeconds());
    if (length_s <= 0.0) break;
    // peak_rss_mb covers the request phases alone.
    rss_reset = ResetPeakRss() && rss_reset;
    const telemetry::MetricsSnapshot before =
        telemetry::Registry::Global().Snapshot();
    Stopwatch phase;
    std::vector<std::thread> threads;
    for (const auto& client : clients) {
      threads.emplace_back([&, c = client.get()] {
        try {
          c->RunFor(length_s, phase_s.size(), recorder);
        } catch (const std::exception& e) {
          c->log.error = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    phase_s.push_back(phase.ElapsedSeconds());
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    deltas.Add(before, telemetry::Registry::Global().Snapshot());
  }
  std::remove((stem + "-setup.csv").c_str());
  srv->Stop();
  srv.reset();

  std::vector<ClientLog> logs;
  for (const auto& client : clients) logs.push_back(std::move(client->log));
  clients.clear();
  for (const ClientLog& log : logs) {
    if (!log.error.empty()) report->Fail("client: " + log.error);
  }
  CheckAgainstLibrary(csv_path, &logs, report);
  std::remove(csv_path.c_str());

  std::vector<Sample> samples;
  for (const ClientLog& log : logs) {
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
  }
  std::vector<double> latencies, parses;
  double total_latency = 0.0, total_parse = 0.0;
  std::map<RequestKind, double> kind_latency;
  std::map<RequestKind, std::size_t> kind_count;
  for (const Sample& s : samples) {
    report->Operation(s.ok);
    latencies.push_back(s.latency_s);
    parses.push_back(s.parse_s);
    total_latency += s.latency_s;
    total_parse += s.parse_s;
    kind_latency[s.kind] += s.latency_s;
    ++kind_count[s.kind];
  }

  // The server's cache counters (the ones `stats` reports). The schedule
  // fixes them up to the variants: every repeat hits and every new
  // request misses, while a variant misses under today's cache key, which
  // includes top, threads and deadline_ms, and would hit under a key of
  // the output-determining params alone.
  const auto counter = [&](const char* name) {
    return static_cast<std::size_t>(deltas.counter(name));
  };
  const std::size_t hits = counter("server/cache_hits");
  const std::size_t misses = counter("server/cache_misses");
  const std::size_t rejected = counter("server/admission_rejected");
  const std::size_t news = kind_count[RequestKind::kNew];
  const std::size_t variants = kind_count[RequestKind::kVariant];
  const std::size_t repeats = kind_count[RequestKind::kRepeat];
  if (hits + misses != news + variants + repeats || hits < repeats ||
      misses < news) {
    report->Fail("cache counts " + std::to_string(hits) + " hits / " +
                 std::to_string(misses) + " misses do not fit the " +
                 "schedule's " + std::to_string(news) + " new, " +
                 std::to_string(variants) + " variant and " +
                 std::to_string(repeats) + " repeated requests");
  }

  report->Line("requests %zu: new %zu, variant %zu, repeat %zu, control %zu",
               samples.size(), news, variants, repeats,
               kind_count[RequestKind::kControl]);
  report->Line(
      "server.ping_p50_ms %.4f, server.repeat_p50_ms %.4f, "
      "server.variant_p50_ms %.4f, server.new_p50_ms %.4f, "
      "server.json_parse_us %.2f (median)",
      MedianOf(samples, [](const Sample& s) { return s.op == "ping"; }) * 1e3,
      MedianOf(samples,
               [](const Sample& s) { return s.kind == RequestKind::kRepeat; }) *
          1e3,
      MedianOf(samples,
               [](const Sample& s) { return s.kind == RequestKind::kVariant; }) *
          1e3,
      MedianOf(samples,
               [](const Sample& s) { return s.kind == RequestKind::kNew; }) *
          1e3,
      Median(parses) * 1e6);
  report->Line("server.cache_hit_ratio %.4f (%zu hits, %zu misses; the "
               "schedule allows %zu to %zu hits), server.admission_rejected "
               "%zu",
               Share(static_cast<double>(hits),
                     static_cast<double>(hits + misses)),
               hits, misses, repeats, repeats + variants, rejected);

  const double setup_s = Median(setups.seconds());
  if (options.trace) {
    report->Set("data.generate_frac", Share(Median(generate_s), setup_s));
    report->Set("data.od_graph_frac", Share(Median(load_s), setup_s));
    // Server-side layers come from the registry: the mining runs on the
    // server's threads, inside the clients' request latencies.
    report->Set("partition.split_frac",
                Share(deltas.span_seconds("partition/split_graph"),
                      total_latency));
    report->Set("partition.by_day_frac",
                Share(deltas.span_seconds("partition/by_active_day"),
                      total_latency));
    report->Set("fsg.mine_frac",
                Share(deltas.span_seconds("fsg/mine"), total_latency));
    report->Set("gspan.mine_frac",
                Share(deltas.span_seconds("gspan/mine"), total_latency));
    SetRegistryLayers(deltas, total_latency,
                      static_cast<double>(samples.size()), report);
    report->Set("server.new_time_frac",
                Share(kind_latency[RequestKind::kNew], total_latency));
    report->Set("server.variant_time_frac",
                Share(kind_latency[RequestKind::kVariant], total_latency));
    report->Set("server.repeat_time_frac",
                Share(kind_latency[RequestKind::kRepeat], total_latency));
    report->Set("server.control_time_frac",
                Share(kind_latency[RequestKind::kControl], total_latency));
    report->Set("server.json_parse_frac", Share(total_parse, total_latency));
    report->Set("server.cache_hit_ratio",
                Share(static_cast<double>(hits),
                      static_cast<double>(hits + misses)));
    report->Set("server.cache_hits", static_cast<double>(hits));
    report->Set("server.cache_misses", static_cast<double>(misses));
    report->Set("server.admission_rejected", static_cast<double>(rejected));
    const double unattributed =
        Share(total_latency - deltas.leaf_seconds() - total_parse,
              total_latency);
    report->Set("trace.unattributed_frac", unattributed);
    const double traced = MedianOf(samples, [](const Sample& s) {
      return s.traced;
    });
    const double untraced = MedianOf(samples, [](const Sample& s) {
      return !s.traced;
    });
    report->Set("trace.overhead_frac", Share(traced - untraced, untraced));
    report->Line("span self times (benchmark spans, totals over the run):");
    for (const auto& [name, t] : spans.Aggregate()) {
      report->Line("  %-18s n=%-6zu total %.4f s  self %.4f s", name.c_str(),
                   t.count, t.total_seconds, t.self_seconds);
    }
    report->Line("tracing overhead %+.2f%% (median traced %.4f ms vs "
                 "untraced %.4f ms)",
                 Share(traced - untraced, untraced) * 100, traced * 1e3,
                 untraced * 1e3);
    const double covered = 1.0 - unattributed;
    report->Line("%slayer spans and response parsing cover %.1f%% of "
                 "request time%s",
                 covered < 0.9 ? "FLAG: " : "", covered * 100,
                 covered < 0.9 ? ", below the 90% of ROADMAP aim 1" : "");
    const std::string path = options.work_dir + "/trace-server-seed" +
                             std::to_string(options.seed) + ".json";
    if (spans.WriteJson(path)) report->Line("spans written to %s", path.c_str());
    return;
  }

  // The time metrics are taken over the faster half of the set-ups and of
  // the request phases (by seconds per request).
  const std::vector<double> fast_setups =
      Pick(setups.seconds(), FasterHalf(setups.seconds()));
  std::vector<double> phase_requests(phase_s.size(), 0.0);
  for (const Sample& s : samples) phase_requests[s.phase] += 1.0;
  std::vector<double> cost;
  for (std::size_t p = 0; p < phase_s.size(); ++p) {
    cost.push_back(phase_requests[p] > 0.0
                       ? phase_s[p] / phase_requests[p]
                       : std::numeric_limits<double>::infinity());
  }
  const std::vector<std::size_t> fast_phases = FasterHalf(cost);
  std::vector<char> kept(phase_s.size(), 0);
  double fast_s = 0.0, fast_requests = 0.0;
  for (std::size_t p : fast_phases) {
    kept[p] = 1;
    fast_s += phase_s[p];
    fast_requests += phase_requests[p];
  }
  std::vector<double> fast;
  for (const Sample& s : samples) {
    if (kept[s.phase]) fast.push_back(s.latency_s);
  }
  const Tail tail = TailPercentile(fast);
  report->Set("setup_s", Median(fast_setups));
  report->Set("job_s", Median(fast));
  report->Set("job_tail_s", tail.value);
  report->Set("throughput_per_s", Share(fast_requests, fast_s));
  report->Set("peak_rss_mb", peak_rss_mb);
  report->Line("setup_s %.4f s (median of the faster %zu of %zu set-ups "
               "spread over the run: generate, CSV, Server::Start; all: "
               "%.4f s)",
               Median(fast_setups), fast_setups.size(),
               setups.seconds().size(), setup_s);
  double all_s = 0.0;
  for (double t : phase_s) all_s += t;
  report->Line("throughput_rps %.2f req/s (%.0f requests in the faster %zu "
               "of %zu request phases, %.3f s; all: %.2f req/s)",
               Share(fast_requests, fast_s), fast_requests,
               fast_phases.size(), phase_s.size(), fast_s,
               Share(samples.size(), all_s));
  report->Line("req_p50_ms %.4f ms (n=%zu; all: %.4f ms)",
               Median(fast) * 1e3, fast.size(), Median(latencies) * 1e3);
  report->Line("req_p%g_ms %.4f ms (%s)", tail.percentile, tail.value * 1e3,
               Describe(tail).c_str());
  report->Line("peak_rss_mb %.1f MB (highest of the request phases%s)",
               peak_rss_mb,
               rss_reset ? ", each counted from the RSS at its start"
                         : "; the peak could not be reset, so it covers "
                           "the whole process");
}

}  // namespace perfbench
