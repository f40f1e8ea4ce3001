#include "iso/canonical.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"

namespace tnmine::iso {

using graph::Edge;
using graph::EdgeId;
using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;

namespace {

/// Dense, tombstone-free adjacency snapshot used by the search.
struct DenseGraph {
  std::size_t n = 0;
  std::vector<Label> vlabel;
  // adj[u] = sorted list of (v, outgoing?, edge label, multiplicity)
  struct Arc {
    VertexId other;
    bool outgoing;
    Label label;
    std::uint32_t multiplicity;
  };
  std::vector<std::vector<Arc>> adj;
  // Directed edge multiset as a flat run-length-encoded table sorted by
  // (src, dst, label); lookups binary-search instead of walking a map.
  struct EdgeRec {
    VertexId src;
    VertexId dst;
    Label label;
    std::uint32_t multiplicity;
  };
  std::vector<EdgeRec> edges;

  /// Multiplicity of (src, dst, label), 0 if absent.
  std::uint32_t Multiplicity(VertexId src, VertexId dst, Label label) const {
    const auto key = std::make_tuple(src, dst, label);
    const auto it = std::lower_bound(
        edges.begin(), edges.end(), key,
        [](const EdgeRec& rec, const std::tuple<VertexId, VertexId, Label>&
                                   k) {
          return std::tie(rec.src, rec.dst, rec.label) < k;
        });
    if (it == edges.end() ||
        std::make_tuple(it->src, it->dst, it->label) != key) {
      return 0;
    }
    return it->multiplicity;
  }
};

DenseGraph Snapshot(const LabeledGraph& g) {
  DenseGraph d;
  d.n = g.num_vertices();
  d.vlabel.resize(d.n);
  for (VertexId v = 0; v < d.n; ++v) d.vlabel[v] = g.vertex_label(v);
  std::vector<std::tuple<VertexId, VertexId, Label>> keys;
  keys.reserve(g.num_edges());
  g.ForEachEdge([&](EdgeId e) {
    const Edge& edge = g.edge(e);
    keys.emplace_back(edge.src, edge.dst, edge.label);
  });
  std::sort(keys.begin(), keys.end());
  d.edges.reserve(keys.size());
  for (const auto& [src, dst, label] : keys) {
    if (!d.edges.empty() && d.edges.back().src == src &&
        d.edges.back().dst == dst && d.edges.back().label == label) {
      ++d.edges.back().multiplicity;
    } else {
      d.edges.push_back({src, dst, label, 1});
    }
  }
  d.adj.resize(d.n);
  for (const auto& rec : d.edges) {
    d.adj[rec.src].push_back({rec.dst, true, rec.label, rec.multiplicity});
    if (rec.src != rec.dst) {
      d.adj[rec.dst].push_back({rec.src, false, rec.label,
                                rec.multiplicity});
    }
  }
  for (auto& arcs : d.adj) {
    std::sort(arcs.begin(), arcs.end(), [](const auto& a, const auto& b) {
      return std::tie(a.other, a.outgoing, a.label) <
             std::tie(b.other, b.outgoing, b.label);
    });
  }
  return d;
}

/// Iterated 1-WL color refinement. Returns stable colors in [0, #colors).
/// Colors are isomorphism-invariant: they depend only on labels and
/// structure, never on vertex ids.
std::vector<std::uint32_t> RefineColors(const DenseGraph& d) {
  std::vector<std::uint32_t> color(d.n, 0);
  // Initial color: vertex label (plus degree signature folded in on the
  // first refinement round).
  {
    std::vector<Label> keys(d.vlabel);
    std::vector<Label> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (std::size_t v = 0; v < d.n; ++v) {
      color[v] = static_cast<std::uint32_t>(
          std::lower_bound(sorted.begin(), sorted.end(), keys[v]) -
          sorted.begin());
    }
  }
  std::size_t num_colors = d.n == 0 ? 0 : 1 + *std::max_element(
                                              color.begin(), color.end());
  for (std::size_t round = 0; round < d.n; ++round) {
    // New key: (old color, sorted multiset of (dir, elabel, neighbor
    // color, multiplicity)).
    using Sig =
        std::pair<std::uint32_t,
                  std::vector<std::tuple<bool, Label, std::uint32_t,
                                         std::uint32_t>>>;
    std::vector<Sig> sigs(d.n);
    for (std::size_t v = 0; v < d.n; ++v) {
      sigs[v].first = color[v];
      for (const auto& arc : d.adj[v]) {
        sigs[v].second.emplace_back(arc.outgoing, arc.label,
                                    color[arc.other], arc.multiplicity);
      }
      std::sort(sigs[v].second.begin(), sigs[v].second.end());
    }
    std::vector<const Sig*> order(d.n);
    for (std::size_t v = 0; v < d.n; ++v) order[v] = &sigs[v];
    std::sort(order.begin(), order.end(),
              [](const Sig* a, const Sig* b) { return *a < *b; });
    std::vector<std::uint32_t> next(d.n, 0);
    std::uint32_t next_colors = 0;
    const Sig* prev = nullptr;
    std::vector<std::uint32_t> assigned(d.n, 0);
    for (std::size_t i = 0; i < d.n; ++i) {
      if (prev != nullptr && *order[i] == *prev) {
        // same color as previous in sort order
      } else {
        if (prev != nullptr) ++next_colors;
        prev = order[i];
      }
      assigned[static_cast<std::size_t>(order[i] - sigs.data())] =
          next_colors;
    }
    const std::size_t new_num_colors = d.n == 0 ? 0 : next_colors + 1;
    next = assigned;
    if (new_num_colors == num_colors) break;  // stable
    color = next;
    num_colors = new_num_colors;
    if (num_colors == d.n) break;  // discrete
  }
  return color;
}

/// Canonical-ordering DFS state.
class CanonicalSearch {
 public:
  explicit CanonicalSearch(const DenseGraph& d) : d_(d) {
    colors_ = RefineColors(d_);
    position_.assign(d_.n, kUnplaced);
  }

  std::string Run() {
    if (d_.n == 0) return "empty";
    best_.clear();
    have_best_ = false;
    current_.clear();
    Extend();
    TNMINE_CHECK(have_best_);
    // Serialize: vertex count then per-position rows.
    std::string out;
    out.reserve(best_.size() * 12);
    out += std::to_string(d_.n);
    out += ';';
    for (const Row& row : best_) {
      out += 'V';
      out += std::to_string(row.vlabel);
      for (const auto& [pos, outgoing, label, mult] : row.arcs) {
        out += outgoing ? '>' : '<';
        out += std::to_string(pos);
        out += ':';
        out += std::to_string(label);
        out += 'x';
        out += std::to_string(mult);
      }
      out += '|';
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kUnplaced = ~std::uint32_t{0};

  /// Code row contributed by placing one vertex: its label plus its arcs
  /// to already-placed vertices (by position), sorted.
  struct Row {
    Label vlabel;
    std::vector<std::tuple<std::uint32_t, bool, Label, std::uint32_t>> arcs;

    bool operator==(const Row&) const = default;
    auto operator<=>(const Row&) const = default;
  };

  Row MakeRow(VertexId v) const {
    Row row;
    row.vlabel = d_.vlabel[v];
    for (const auto& arc : d_.adj[v]) {
      if (arc.other == v) {
        // Self-loop: appears once (outgoing) at own position.
        if (arc.outgoing) {
          row.arcs.emplace_back(static_cast<std::uint32_t>(current_.size()),
                                true, arc.label, arc.multiplicity);
        }
        continue;
      }
      const std::uint32_t pos = position_[arc.other];
      if (pos != kUnplaced) {
        row.arcs.emplace_back(pos, arc.outgoing, arc.label,
                              arc.multiplicity);
      }
    }
    std::sort(row.arcs.begin(), row.arcs.end());
    return row;
  }

  /// True if swapping u and v is an automorphism of the whole graph
  /// (labels equal and edge multisets identical under the transposition).
  bool TranspositionIsAutomorphism(VertexId u, VertexId v) const {
    if (d_.vlabel[u] != d_.vlabel[v]) return false;
    auto mapped = [&](VertexId w) { return w == u ? v : (w == v ? u : w); };
    for (const auto& rec : d_.edges) {
      if (rec.src != u && rec.src != v && rec.dst != u && rec.dst != v) {
        continue;
      }
      if (d_.Multiplicity(mapped(rec.src), mapped(rec.dst), rec.label) !=
          rec.multiplicity) {
        return false;
      }
    }
    return true;
  }

  void Extend() {
    const std::size_t depth = current_.size();
    if (depth == d_.n) {
      if (!have_best_ || current_ < best_) {
        best_ = current_;
        have_best_ = true;
      }
      return;
    }
    // Candidates: unplaced vertices of the minimal refined color among
    // unplaced vertices (cell-consistent ordering keeps the search sound
    // because colors are isomorphism-invariant).
    std::uint32_t min_color = ~std::uint32_t{0};
    for (VertexId v = 0; v < d_.n; ++v) {
      if (position_[v] == kUnplaced) min_color = std::min(min_color,
                                                          colors_[v]);
    }
    std::vector<VertexId> candidates;
    for (VertexId v = 0; v < d_.n; ++v) {
      if (position_[v] == kUnplaced && colors_[v] == min_color) {
        candidates.push_back(v);
      }
    }
    // Sound symmetry pruning: drop candidates interchangeable with a kept
    // one by a transposition automorphism that fixes all placed vertices
    // (it does, since neither endpoint of the swap is placed).
    std::vector<VertexId> kept;
    for (VertexId v : candidates) {
      bool redundant = false;
      for (VertexId u : kept) {
        if (TranspositionIsAutomorphism(u, v)) {
          redundant = true;
          break;
        }
      }
      if (!redundant) kept.push_back(v);
    }
    // Rank candidates by their row so better prefixes are tried first.
    std::vector<std::pair<Row, VertexId>> ranked;
    ranked.reserve(kept.size());
    for (VertexId v : kept) ranked.emplace_back(MakeRow(v), v);
    std::sort(ranked.begin(), ranked.end());
    for (auto& [row, v] : ranked) {
      position_[v] = static_cast<std::uint32_t>(depth);
      current_.push_back(std::move(row));
      // Prefix pruning: lexicographically compare the whole current prefix
      // against the best complete code. A greater prefix can never lead to
      // a smaller code. (Recomputed from the top because best_ may have
      // been replaced anywhere in the subtree; depths are tiny.)
      bool viable = true;
      if (have_best_) {
        for (std::size_t i = 0; i < current_.size(); ++i) {
          if (current_[i] < best_[i]) break;  // strictly better prefix
          if (current_[i] > best_[i]) {
            viable = false;
            break;
          }
        }
      }
      if (viable) Extend();
      current_.pop_back();
      position_[v] = kUnplaced;
    }
  }

  const DenseGraph& d_;
  std::vector<std::uint32_t> colors_;
  std::vector<std::uint32_t> position_;
  std::vector<Row> current_;
  std::vector<Row> best_;
  bool have_best_ = false;
};

}  // namespace

std::string CanonicalCode(const LabeledGraph& g) {
  TNMINE_CHECK_MSG(g.num_vertices() <= kMaxCanonicalVertices,
                   "graph too large for canonical coding (%zu vertices)",
                   g.num_vertices());
  TNMINE_COUNTER_ADD("iso/codes_computed", 1);
  const DenseGraph d = Snapshot(g);
  CanonicalSearch search(d);
  return search.Run();
}

namespace {

/// Exact byte serialization of a dense graph: vertex labels in id order,
/// then the edge list in edge-id order. Two equal serializations denote
/// the very same labeled graph, which is what makes cache hits sound.
std::string SerializeExact(const LabeledGraph& g) {
  std::string key;
  key.reserve(8 + 4 * g.num_vertices() + 12 * g.num_edges());
  auto put32 = [&key](std::uint32_t x) {
    key.push_back(static_cast<char>(x));
    key.push_back(static_cast<char>(x >> 8));
    key.push_back(static_cast<char>(x >> 16));
    key.push_back(static_cast<char>(x >> 24));
  };
  put32(static_cast<std::uint32_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    put32(static_cast<std::uint32_t>(g.vertex_label(v)));
  }
  g.ForEachEdge([&](EdgeId e) {
    const Edge& edge = g.edge(e);
    put32(edge.src);
    put32(edge.dst);
    put32(static_cast<std::uint32_t>(edge.label));
  });
  return key;
}

/// Cheap isomorphism-invariant fingerprint: vertex-label multiset,
/// edge-label multiset, and the sorted (in, out) degree sequence, mixed
/// order-independently. Isomorphic graphs always collide (desired: their
/// differently-numbered serializations share a bucket); unequal graphs
/// rarely do.
std::uint64_t Fingerprint(const LabeledGraph& g) {
  auto mix = [](std::uint64_t h, std::uint64_t x) {
    h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  };
  std::uint64_t vertex_acc = 0;
  std::uint64_t degree_acc = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    vertex_acc += mix(0x51ULL, static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(
                                       g.vertex_label(v)))) *
                  0x9E3779B97F4A7C15ULL;
    degree_acc += mix(mix(0xD3ULL, g.InDegree(v)), g.OutDegree(v)) *
                  0xD1B54A32D192ED03ULL;
  }
  std::uint64_t edge_acc = 0;
  g.ForEachEdge([&](EdgeId e) {
    edge_acc += mix(0xE7ULL, static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(
                                     g.edge(e).label))) *
                0x8CB92BA72F3D8DD7ULL;
  });
  std::uint64_t h = mix(0xC0DEULL, g.num_vertices());
  h = mix(h, g.num_edges());
  h = mix(h, vertex_acc);
  h = mix(h, degree_acc);
  h = mix(h, edge_acc);
  return h;
}

/// Pass-through hasher: keys are pre-hashed with Fingerprint.
struct IdentityHash {
  std::size_t operator()(std::uint64_t x) const {
    return static_cast<std::size_t>(x);
  }
};

/// One cache entry: a graph's exact serialization and its code. An entry
/// is inserted pending when its key first misses and turns `ready` once
/// the thread that missed has computed the code, so a concurrent miss of
/// the same key waits for that code instead of computing it again.
struct CacheEntry {
  std::string key;
  std::string code;
  bool ready = false;
};

/// One lock-sharded cache segment. Buckets map fingerprint -> the entries
/// sharing it; lookup verifies the serialization byte-for-byte, so
/// fingerprint collisions cost a probe but can never produce a wrong code.
struct CacheShard {
  std::mutex mu;
  std::condition_variable code_ready;  // signalled when a pending entry
                                       // settles (filled or withdrawn)
  std::unordered_map<std::uint64_t, std::vector<CacheEntry>, IdentityHash>
      buckets;
  std::size_t entries = 0;

  /// The entry for `key` in bucket `fp`, or null. Callers hold `mu`; the
  /// pointer is good until they release it.
  CacheEntry* Find(std::uint64_t fp, const std::string& key) {
    const auto it = buckets.find(fp);
    if (it == buckets.end()) return nullptr;
    for (CacheEntry& entry : it->second) {
      if (entry.key == key) return &entry;
    }
    return nullptr;
  }
};

constexpr std::size_t kNumShards = 16;
/// Per-shard entry budget; a shard that grows past it is cleared outright
/// (epoch-style invalidation — recomputing a code is always safe).
constexpr std::size_t kMaxEntriesPerShard = 1 << 16;

CacheShard g_shards[kNumShards];
std::atomic<std::uint64_t> g_cache_hits{0};
std::atomic<std::uint64_t> g_cache_misses{0};

}  // namespace

std::string CanonicalCodeCached(const LabeledGraph& g) {
  TNMINE_CHECK_MSG(g.IsDense(),
                   "CanonicalCodeCached requires a dense graph");
  const std::uint64_t fp = Fingerprint(g);
  const std::string key = SerializeExact(g);
  CacheShard& shard = g_shards[fp % kNumShards];
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    // A pending entry means another thread missed this key first: wait
    // until its code is in, and count a hit. The entry is found again
    // after every wake-up, since it may have moved, or been withdrawn or
    // cleared (then this thread codes the graph itself).
    const CacheEntry* entry = nullptr;
    shard.code_ready.wait(lock, [&] {
      entry = shard.Find(fp, key);
      return entry == nullptr || entry->ready;
    });
    if (entry != nullptr) {
      g_cache_hits.fetch_add(1, std::memory_order_relaxed);
      TNMINE_COUNTER_ADD("iso/cache_hits", 1);
      return entry->code;
    }
    if (shard.entries >= kMaxEntriesPerShard) {
      shard.buckets.clear();
      shard.entries = 0;
    }
    shard.buckets[fp].push_back(CacheEntry{key, {}, false});
    ++shard.entries;
  }
  g_cache_misses.fetch_add(1, std::memory_order_relaxed);
  TNMINE_COUNTER_ADD("iso/cache_misses", 1);
  std::string code;
  try {
    code = CanonicalCode(g);
  } catch (...) {
    // Withdraw the pending entry so a waiter computes the code itself.
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.buckets.find(fp);
    if (it != shard.buckets.end()) {
      const auto erased = std::erase_if(
          it->second, [&](const CacheEntry& e) { return e.key == key; });
      shard.entries -= erased;
    }
    shard.code_ready.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // A clear in the meantime dropped the entry; its waiters re-find
    // nothing and compute the code themselves.
    if (CacheEntry* entry = shard.Find(fp, key)) {
      entry->code = code;
      entry->ready = true;
    }
  }
  shard.code_ready.notify_all();
  return code;
}

void ClearCanonicalCodeCache() {
  for (CacheShard& shard : g_shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.buckets.clear();
    shard.entries = 0;
  }
  g_cache_hits.store(0, std::memory_order_relaxed);
  g_cache_misses.store(0, std::memory_order_relaxed);
}

CanonicalCacheStats GetCanonicalCacheStats() {
  CanonicalCacheStats stats;
  stats.hits = g_cache_hits.load(std::memory_order_relaxed);
  stats.misses = g_cache_misses.load(std::memory_order_relaxed);
  return stats;
}

bool AreIsomorphic(const LabeledGraph& a, const LabeledGraph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  if (a.num_edges() != b.num_edges()) return false;
  if (InvariantHash(a) != InvariantHash(b)) return false;
  return CanonicalCode(a) == CanonicalCode(b);
}

std::uint64_t InvariantHash(const LabeledGraph& g) {
  auto mix = [](std::uint64_t h, std::uint64_t x) {
    h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  };
  // Per-vertex invariant signatures, combined order-independently.
  std::uint64_t total = mix(0x12345678ULL, g.num_vertices());
  total = mix(total, g.num_edges());
  std::uint64_t vertex_acc = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<std::uint64_t> incident;
    g.ForEachOutEdge(v, [&](EdgeId e) {
      incident.push_back(0x1000000000ULL +
                         static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(g.edge(e).label)));
    });
    g.ForEachInEdge(v, [&](EdgeId e) {
      incident.push_back(0x2000000000ULL +
                         static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(g.edge(e).label)));
    });
    std::sort(incident.begin(), incident.end());
    std::uint64_t h = mix(0xABCDEFULL, static_cast<std::uint64_t>(
                                           static_cast<std::uint32_t>(
                                               g.vertex_label(v))));
    h = mix(h, g.OutDegree(v));
    h = mix(h, g.InDegree(v));
    for (std::uint64_t x : incident) h = mix(h, x);
    vertex_acc += h * 0x9E3779B97F4A7C15ULL;  // commutative combine
  }
  total = mix(total, vertex_acc);
  // Edge label-pair multiset, order-independent.
  std::uint64_t edge_acc = 0;
  g.ForEachEdge([&](EdgeId e) {
    const Edge& edge = g.edge(e);
    std::uint64_t h = mix(0x777ULL, static_cast<std::uint64_t>(
                                        static_cast<std::uint32_t>(
                                            g.vertex_label(edge.src))));
    h = mix(h, static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(g.vertex_label(edge.dst))));
    h = mix(h, static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(edge.label)));
    edge_acc += h * 0xD1B54A32D192ED03ULL;
  });
  total = mix(total, edge_acc);
  return total;
}

}  // namespace tnmine::iso
