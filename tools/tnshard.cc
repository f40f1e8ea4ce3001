// tnshard — build, inspect and verify out-of-core shard directories
// (DESIGN.md §16).
//
//   tnshard build --out <dir> --shard-size 64 --input data.fsg
//   tnshard build --out <dir> --shard-size 64 --generate 2000 --seed 7
//   tnshard inspect --dir <dir>
//   tnshard verify --dir <dir>
//   tnshard smoke
//
// `build` streams an FSG-format file (never loading more than one
// transaction plus the read buffer) or generates a Kuramochi–Karypis
// synthetic set one shard at a time, rotating shard files every
// --shard-size transactions, so datasets far bigger than RAM can be
// sharded on a small machine. `verify` re-hashes every payload and runs
// the CSR consistency checker over every transaction. `smoke` is the
// self-contained equivalence check registered in ctest: it mines the
// same transactions in RAM and through shard files at two different
// shard cuts and two thread counts, and fails unless the results are
// byte-identical.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/budget.h"
#include "fsg/fsg.h"
#include "graph/graph_io.h"
#include "graph/labeled_graph.h"
#include "graph/shard_store.h"
#include "graph/transaction_source.h"
#include "gspan/gspan.h"
#include "synth/kk_generator.h"
#include "tools/flag_parser.h"

namespace tnmine {
namespace {

using tools::Flags;

int Usage() {
  std::fprintf(stderr,
               "usage: tnshard <build|inspect|verify|smoke> "
               "[--flag value ...]\n"
               "  build   --out <dir> [--shard-size N] and one of\n"
               "          --input <file.fsg> | --generate <N> [--seed S]\n"
               "  inspect --dir <dir>\n"
               "  verify  --dir <dir>\n"
               "  smoke   (no flags; exercises build+verify+mine "
               "equivalence)\n");
  return 2;
}

/// Rotates ShardWriters every `shard_size` transactions so resident
/// memory during a build is one shard's payload, not the dataset's.
class RotatingShardWriter {
 public:
  RotatingShardWriter(std::string dir, std::size_t shard_size)
      : dir_(std::move(dir)), shard_size_(shard_size) {}

  bool Add(const graph::LabeledGraph& g) {
    if (!writer_) {
      writer_ = std::make_unique<graph::ShardWriter>(
          dir_ + "/" + graph::ShardFileName(num_shards_));
    }
    writer_->Add(g);
    ++total_;
    if (writer_->num_transactions() >= shard_size_) return Rotate();
    return true;
  }

  /// Finishes the in-progress shard, if any.
  bool Finish() {
    if (writer_ && !Rotate()) return false;
    return true;
  }

  std::size_t num_shards() const { return num_shards_; }
  std::size_t total_transactions() const { return total_; }
  const std::string& error() const { return error_; }

 private:
  bool Rotate() {
    if (!writer_->Finish(&error_)) return false;
    writer_.reset();
    ++num_shards_;
    return true;
  }

  std::string dir_;
  std::size_t shard_size_;
  std::unique_ptr<graph::ShardWriter> writer_;
  std::size_t num_shards_ = 0;
  std::size_t total_ = 0;
  std::string error_;
};

int CmdBuild(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out <dir> is required\n");
    return 2;
  }
  const auto shard_size = static_cast<std::size_t>(
      std::max(1L, flags.GetInt("shard-size", 64)));
  const std::string input = flags.Get("input", "");
  const long generate = flags.GetInt("generate", 0);
  const auto base_seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 2005));
  synth::KkOptions kk;
  kk.avg_transaction_edges = flags.GetDouble("avg-edges", 27.4);
  if (input.empty() == (generate <= 0)) {
    std::fprintf(stderr,
                 "exactly one of --input <file.fsg> or --generate <N> is "
                 "required\n");
    return 2;
  }
  if (mkdir(out.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", out.c_str());
    return 1;
  }

  RotatingShardWriter writer(out, shard_size);
  if (!input.empty()) {
    std::string error;
    bool write_failed = false;
    const bool ok = graph::StreamFsgTransactions(
        input,
        [&](graph::LabeledGraph&& g) {
          if (!writer.Add(g)) {
            write_failed = true;
            return false;  // stop streaming; the build has failed
          }
          return true;
        },
        &error);
    if (write_failed || !ok || !writer.Finish()) {
      std::fprintf(stderr, "build failed: %s\n",
                   write_failed || !ok ? (write_failed
                                              ? writer.error().c_str()
                                              : error.c_str())
                                       : writer.error().c_str());
      return 1;
    }
  } else {
    // Generate one shard's worth of transactions at a time — the chunk
    // index perturbs the seed so chunks are independent streams, and
    // peak memory is one shard of LabeledGraphs regardless of --generate.
    const auto total = static_cast<std::size_t>(generate);
    for (std::size_t done = 0; done < total;) {
      const std::size_t chunk = std::min(shard_size, total - done);
      kk.num_transactions = chunk;
      kk.seed = base_seed + done / shard_size;
      const synth::KkResult batch = synth::GenerateKkTransactions(kk);
      for (const graph::LabeledGraph& g : batch.transactions) {
        if (!writer.Add(g)) {
          std::fprintf(stderr, "build failed: %s\n",
                       writer.error().c_str());
          return 1;
        }
      }
      done += chunk;
    }
    if (!writer.Finish()) {
      std::fprintf(stderr, "build failed: %s\n", writer.error().c_str());
      return 1;
    }
  }
  std::printf("wrote %zu transactions in %zu shards to %s\n",
              writer.total_transactions(), writer.num_shards(),
              out.c_str());
  return 0;
}

int CmdInspect(const Flags& flags) {
  const std::string dir = flags.Get("dir", "");
  std::vector<std::string> paths;
  std::string error;
  if (dir.empty() || !graph::ListShardFiles(dir, &paths, &error)) {
    std::fprintf(stderr, "--dir <dir>: %s\n",
                 dir.empty() ? "is required" : error.c_str());
    return 2;
  }
  std::size_t transactions = 0;
  std::uint64_t bytes = 0;
  for (const std::string& path : paths) {
    const auto shard = graph::ShardFile::Open(path, &error);
    if (!shard) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    std::printf("%s: %zu transactions, %zu bytes, fingerprint %016llx\n",
                path.c_str(), shard->num_transactions(),
                shard->mapped_bytes(),
                static_cast<unsigned long long>(shard->fingerprint()));
    transactions += shard->num_transactions();
    bytes += shard->mapped_bytes();
  }
  std::printf("total: %zu transactions, %llu bytes, %zu shards\n",
              transactions, static_cast<unsigned long long>(bytes),
              paths.size());
  return 0;
}

int CmdVerify(const Flags& flags) {
  const std::string dir = flags.Get("dir", "");
  std::vector<std::string> paths;
  std::string error;
  if (dir.empty() || !graph::ListShardFiles(dir, &paths, &error)) {
    std::fprintf(stderr, "--dir <dir>: %s\n",
                 dir.empty() ? "is required" : error.c_str());
    return 2;
  }
  std::size_t transactions = 0;
  for (const std::string& path : paths) {
    const auto shard =
        graph::ShardFile::Open(path, &error, /*verify_fingerprint=*/true);
    if (!shard) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    for (std::size_t i = 0; i < shard->num_transactions(); ++i) {
      if (!shard->View(i).CheckConsistent()) {
        std::fprintf(stderr, "%s: transaction %zu fails CSR consistency\n",
                     path.c_str(), i);
        return 1;
      }
    }
    transactions += shard->num_transactions();
  }
  std::printf("verified %zu transactions in %zu shards\n", transactions,
              paths.size());
  return 0;
}

/// A pattern list flattened to a canonical string — byte-identical runs
/// compare equal, anything else (support, tids, order, pattern set)
/// does not.
std::string Flatten(const std::vector<pattern::FrequentPattern>& patterns) {
  std::string out;
  for (const pattern::FrequentPattern& p : patterns) {
    out += p.code;
    out += '|';
    out += std::to_string(p.support);
    out += '|';
    for (const std::uint32_t tid : p.tids.ToVector()) {
      out += std::to_string(tid);
      out += ',';
    }
    out += '\n';
  }
  return out;
}

int CmdSmoke(const Flags& flags) {
  (void)flags;
  synth::KkOptions kk;
  kk.num_transactions = 60;
  kk.avg_transaction_edges = 9.0;
  kk.num_seed_patterns = 6;
  kk.avg_pattern_edges = 3.0;
  kk.num_vertex_labels = 8;
  kk.num_edge_labels = 3;
  kk.seed = 42;
  const synth::KkResult data = synth::GenerateKkTransactions(kk);

  fsg::FsgOptions fsg_options;
  fsg_options.min_support = 4;
  fsg_options.max_edges = 3;
  gspan::GspanOptions gspan_options;
  gspan_options.min_support = 4;
  gspan_options.max_edges = 3;
  const std::string fsg_expected =
      Flatten(fsg::MineFsg(data.transactions, fsg_options).patterns);
  const std::string gspan_expected =
      Flatten(gspan::MineGspan(data.transactions, gspan_options).patterns);
  if (fsg_expected.empty()) {
    std::fprintf(stderr, "smoke: in-memory FSG found nothing to mine\n");
    return 1;
  }

  char tmpl[] = "/tmp/tnshard-smoke-XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "smoke: mkdtemp failed\n");
    return 1;
  }
  const std::string root = tmpl;

  int rc = 0;
  std::vector<std::string> written;
  for (const std::size_t shard_size : {7u, 25u}) {
    const std::string dir = root + "/s" + std::to_string(shard_size);
    if (mkdir(dir.c_str(), 0755) != 0) {
      std::fprintf(stderr, "smoke: cannot create %s\n", dir.c_str());
      rc = 1;
      break;
    }
    RotatingShardWriter writer(dir, shard_size);
    for (const graph::LabeledGraph& g : data.transactions) {
      if (!writer.Add(g)) break;
    }
    if (!writer.Finish() ||
        writer.total_transactions() != data.transactions.size()) {
      std::fprintf(stderr, "smoke: shard build failed: %s\n",
                   writer.error().c_str());
      rc = 1;
      break;
    }
    for (std::size_t i = 0; i < writer.num_shards(); ++i)
      written.push_back(dir + "/" + graph::ShardFileName(i));

    for (const std::size_t threads : {1u, 2u}) {
      graph::ShardedTransactionSource::Options source_options;
      source_options.max_resident_shards = 2;
      source_options.verify_fingerprints = true;
      std::string error;
      const auto source = graph::ShardedTransactionSource::Open(
          dir, source_options, &error);
      if (!source) {
        std::fprintf(stderr, "smoke: %s: %s\n", dir.c_str(),
                     error.c_str());
        rc = 1;
        break;
      }
      fsg::FsgOptions fo = fsg_options;
      fo.parallelism = common::Parallelism{threads};
      gspan::GspanOptions go = gspan_options;
      go.parallelism = common::Parallelism{threads};
      const std::string fsg_got =
          Flatten(fsg::MineFsg(*source, fo).patterns);
      const std::string gspan_got =
          Flatten(gspan::MineGspan(*source, go).patterns);
      if (fsg_got != fsg_expected || gspan_got != gspan_expected) {
        std::fprintf(stderr,
                     "smoke: sharded output diverges from in-memory "
                     "(shard_size=%zu threads=%zu fsg=%s gspan=%s)\n",
                     shard_size, threads,
                     fsg_got == fsg_expected ? "ok" : "MISMATCH",
                     gspan_got == gspan_expected ? "ok" : "MISMATCH");
        rc = 1;
      }
    }
    if (rc != 0) break;
  }

  for (const std::string& path : written) unlink(path.c_str());
  rmdir((root + "/s7").c_str());
  rmdir((root + "/s25").c_str());
  rmdir(root.c_str());
  if (rc == 0)
    std::printf(
        "smoke ok: %zu transactions, FSG+gSpan byte-identical across "
        "2 shard cuts x 2 thread counts\n",
        data.transactions.size());
  return rc;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (command == "build") return CmdBuild(flags);
  if (command == "inspect") return CmdInspect(flags);
  if (command == "verify") return CmdVerify(flags);
  if (command == "smoke") return CmdSmoke(flags);
  return Usage();
}

}  // namespace tnmine

int main(int argc, char** argv) { return tnmine::Main(argc, argv); }
