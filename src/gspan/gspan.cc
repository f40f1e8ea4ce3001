#include "gspan/gspan.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "common/budget.h"
#include "common/check.h"
#include "common/failpoint.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "graph/graph_view.h"
#include "graph/transaction_source.h"
#include "gspan/dfs_code.h"
#include "iso/canonical.h"

namespace tnmine::gspan {

using graph::Edge;
using graph::EdgeId;
using graph::Label;
using graph::LabeledGraph;
using graph::VertexId;
using pattern::FrequentPattern;

namespace {

/// One embedding of a DFS code, stored as a link to the embedding of the
/// code's prefix it extends: in transaction `tid`, the code's last entry
/// maps onto `edge`, and `prev` indexes the parent projection (unused at
/// the seed level). Walking the links back to the seed recovers the
/// embedding's whole edge sequence, and from it every vertex image.
struct Link {
  std::uint32_t tid;
  EdgeId edge;
  std::uint32_t prev;
};
static_assert(sizeof(Link) == 12);

/// A DFS code's projected database: every embedding, grouped by ascending
/// tid.
using Projection = std::vector<Link>;

std::size_t SupportOf(const Projection& links) {
  std::size_t support = 0;
  std::uint32_t prev = ~std::uint32_t{0};
  for (const Link& link : links) {
    if (link.tid != prev) {
      ++support;
      prev = link.tid;
    }
  }
  return support;
}

/// The smaller of the two first entries a 1-edge pattern of this type can
/// start with. Every pattern whose minimal code starts with it lies in this
/// seed's subtree, so the seed subtrees are disjoint.
DfsEdge SeedEntry(const graph::GraphView::EdgeTypeKey& key) {
  if (key.self_loop) {
    return {0, 0, key.src_label, key.edge_label, true, key.src_label};
  }
  return std::min(
      DfsEdge{0, 1, key.src_label, key.edge_label, true, key.dst_label},
      DfsEdge{0, 1, key.dst_label, key.edge_label, false, key.src_label});
}

/// Mines one seed's growth subtree. Instances for different seeds share
/// nothing and run on separate pool lanes; MineGspan concatenates their
/// results.
struct Miner {
  /// Transactions read through a per-miner Reader: projections are
  /// tid-grouped ascending, so a scan pins each shard it touches once.
  graph::TransactionSource::Reader reader;
  std::uint32_t num_transactions;
  const GspanOptions& options;
  GspanResult result{};
  /// This seed subtree's deterministic tick ledger (its Slice of the
  /// run's allotment). The subtree is mined sequentially, so tick
  /// exhaustion cuts the DFS at the same pattern on every run.
  common::BudgetMeter meter{};
  /// The DFS code being grown, and the projection of each of its prefixes
  /// (levels[k] holds the embeddings of its first k + 1 entries).
  DfsCode code{};
  std::vector<Projection> levels{};
  // Subtree-local telemetry, flushed to the registry once per seed (keeps
  // the hot recursion free of atomics and the totals independent of lane
  // scheduling).
  std::uint64_t extensions_enumerated = 0;
  std::uint64_t embeddings_materialized = 0;
  std::uint64_t codes_generated = 0;
  // One embedding's edge image per code entry and vertex image per DFS
  // position, rebuilt per link during a scan.
  std::vector<EdgeId> edges{};
  std::vector<VertexId> images{};

  void Emit(const Projection& links) {
    FrequentPattern fp;
    fp.graph = code.ToGraph();
    fp.code = iso::CanonicalCodeCached(fp.graph);
    std::vector<std::uint32_t> tids;
    for (const Link& link : links) {
      if (tids.empty() || tids.back() != link.tid) tids.push_back(link.tid);
    }
    fp.tids = pattern::TidSet::FromSorted(std::move(tids), num_transactions);
    fp.support = fp.tids.Cardinality();
    result.patterns.push_back(std::move(fp));
    result.max_level = std::max(result.max_level, code.size());
  }

  /// Records `code` (whose embeddings are `links`) and mines its subtree:
  /// every frequent rightmost-path extension whose code is still minimal.
  void Grow(Projection links) {
    Emit(links);
    if (options.max_edges != 0 && code.size() >= options.max_edges) return;

    // Budget gate: the pattern above is already recorded (so truncated
    // runs keep every pattern they paid for), but growing costs one tick
    // per embedding scanned — a deterministic function of this subtree.
    if (result.outcome != common::MiningOutcome::kComplete) return;
    (void)TNMINE_FAILPOINT("gspan/grow");
    const common::MiningOutcome tick =
        meter.Charge(1 + static_cast<std::uint64_t>(links.size()));
    if (tick != common::MiningOutcome::kComplete) {
      result.outcome = common::CombineOutcomes(result.outcome, tick);
      return;
    }
    levels.push_back(std::move(links));
    struct PopLevel {
      std::vector<Projection>* levels;
      ~PopLevel() { levels->pop_back(); }
    } pop{&levels};

    std::map<DfsEdge, Projection> children;
    if (!Extend(&children)) return;
    // The frequent children's projections stay alive while this pattern's
    // subtree is mined; charge them against the shared memory ceiling
    // until then.
    std::uint64_t bytes = 0;
    for (auto it = children.begin(); it != children.end();) {
      if (SupportOf(it->second) < options.min_support) {
        it = children.erase(it);
      } else {
        bytes += it->second.capacity() * sizeof(Link);
        ++it;
      }
    }
    if (!options.budget.TryChargeMemory(bytes)) {
      result.outcome = common::CombineOutcomes(
          result.outcome, common::MiningOutcome::kMemoryBudgetExceeded);
      return;
    }
    struct MemRelease {
      const common::ResourceBudget* budget;
      std::uint64_t bytes;
      ~MemRelease() { budget->ReleaseMemory(bytes); }
    } release{&options.budget, bytes};

    // Children in DFS order, so output is each subtree's DFS preorder. A
    // child subtree that ran out of budget stops its siblings too.
    for (auto& [entry, child] : children) {
      if (result.outcome != common::MiningOutcome::kComplete) break;
      // Freed when this iteration ends, whether the child is grown or
      // pruned.
      Projection child_links = std::move(child);
      code.push_back(entry);
      ++codes_generated;
      if (IsMinimalDfsCode(code)) Grow(std::move(child_links));
      code.pop_back();
    }
  }

  /// Scans the projection on top of `levels` for rightmost-path
  /// extensions, appending one link per (embedding, edge) to the child
  /// projection of the extension's entry. Returns false when a stop
  /// condition cut the scan short.
  bool Extend(std::map<DfsEdge, Projection>* children) {
    TNMINE_TRACE_SPAN("gspan/extend");
    const std::vector<std::uint32_t> path = code.RightmostPath();
    const std::uint32_t rightmost = path.front();
    const std::uint32_t next = code.NumVertices();
    std::vector<char> on_path(next, 0);
    for (const std::uint32_t p : path) on_path[p] = 1;
    edges.resize(code.size());
    images.resize(next);
    // Adjacency is label-sorted, so each arc group (one direction,
    // backward or forward from one path position) mostly yields one entry:
    // a group remembers its last child to skip the map lookup.
    struct Slot {
      DfsEdge entry;
      Projection* child = nullptr;
    };
    std::vector<Slot> slots(2 + 2 * path.size());
    const Projection& links = levels.back();
    for (std::uint32_t i = 0; i < links.size(); ++i) {
      // Low-support patterns can have projections large enough that one
      // scan runs for seconds; poll the shared stop conditions at a
      // stride so cancellation (client disconnect, SIGINT, deadline) is
      // observed mid-scan. Poll spends no ticks, so tick-budget
      // determinism is unaffected.
      if ((i & 255) == 255) {
        const common::MiningOutcome stop = meter.Poll();
        if (stop != common::MiningOutcome::kComplete) {
          result.outcome = common::CombineOutcomes(result.outcome, stop);
          return false;
        }
      }
      const std::uint32_t tid = links[i].tid;
      const graph::GraphView& t = reader.View(tid);
      Rebuild(t, i);
      auto position_of = [&](VertexId v) {
        return static_cast<std::uint32_t>(
            std::find(images.begin(), images.end(), v) - images.begin());
      };
      auto add = [&](Slot& slot, const DfsEdge& entry, EdgeId e) {
        if (slot.child == nullptr || entry != slot.entry) {
          slot.child = &(*children)[entry];
          slot.entry = entry;
        }
        slot.child->push_back({tid, e, i});
        ++embeddings_materialized;
      };
      // Backward: closing edges and self-loops from the rightmost
      // position to a rightmost-path position.
      const VertexId rv = images[rightmost];
      const Label rl = t.vertex_label(rv);
      auto backward = [&](const graph::GraphView::Arc& arc, bool outgoing) {
        const std::uint32_t p = position_of(arc.other);
        if (p == next || !on_path[p]) return;
        if (std::find(edges.begin(), edges.end(), arc.edge) != edges.end()) {
          return;
        }
        add(slots[outgoing ? 0 : 1],
            {rightmost, p, rl, arc.label, outgoing,
             t.vertex_label(arc.other)},
            arc.edge);
      };
      for (const auto& arc : t.OutArcs(rv)) backward(arc, true);
      for (const auto& arc : t.InArcs(rv)) {
        if (arc.other != rv) backward(arc, false);  // loops taken as out
      }
      // Forward: from any rightmost-path position to an unmapped vertex.
      for (std::size_t j = 0; j < path.size(); ++j) {
        const std::uint32_t p = path[j];
        const VertexId u = images[p];
        const Label ul = t.vertex_label(u);
        auto forward = [&](const graph::GraphView::Arc& arc, bool outgoing) {
          if (position_of(arc.other) != next) return;
          add(slots[2 + 2 * j + (outgoing ? 0 : 1)],
              {p, next, ul, arc.label, outgoing, t.vertex_label(arc.other)},
              arc.edge);
        };
        for (const auto& arc : t.OutArcs(u)) forward(arc, true);
        for (const auto& arc : t.InArcs(u)) forward(arc, false);
      }
    }
    extensions_enumerated += children->size();
    return true;
  }

  /// Fills `edges` and `images` for link `index` of the top projection.
  /// A link that extends the same parent embedding as the link before it
  /// only swaps in its own edge; any other walks its links back to the
  /// seed.
  void Rebuild(const graph::GraphView& t, std::uint32_t index) {
    const Projection& top = levels.back();
    std::size_t first = 0;  // first code entry whose images change
    if (levels.size() > 1 && index > 0 &&
        top[index].prev == top[index - 1].prev) {
      edges.back() = top[index].edge;
      first = edges.size() - 1;
    } else {
      for (std::size_t k = levels.size(); k-- > 0;) {
        const Link& link = levels[k][index];
        edges[k] = link.edge;
        index = link.prev;
      }
    }
    for (std::size_t k = first; k < edges.size(); ++k) {
      const DfsEdge& entry = code.edges()[k];
      const Edge& e = t.edge(edges[k]);
      images[entry.from] = entry.forward_direction ? e.src : e.dst;
      images[entry.to] = entry.forward_direction ? e.dst : e.src;
    }
  }
};

}  // namespace

GspanResult MineGspan(const std::vector<LabeledGraph>& transactions,
                      const GspanOptions& options) {
  for (const LabeledGraph& t : transactions) {
    TNMINE_CHECK_MSG(t.IsDense(), "transactions must be dense");
  }
  // One flat snapshot per transaction, presented as a single in-memory
  // shard; the source-based core below does all the mining. Keeping the
  // two overloads on one code path is what makes the byte-identity
  // contract between the in-RAM and out-of-core runs checkable.
  std::vector<graph::GraphView> views;
  views.reserve(transactions.size());
  for (const LabeledGraph& t : transactions) views.emplace_back(t);
  graph::InMemoryTransactionSource source(std::move(views));
  return MineGspan(source, options);
}

GspanResult MineGspan(graph::TransactionSource& source,
                      const GspanOptions& raw_options) {
  TNMINE_TRACE_SPAN("gspan/mine");
  TNMINE_COUNTER_ADD("gspan/runs_started", 1);
  // min_support = 0 means the same as 1 (see GspanOptions): clamp once so
  // every comparison below shares the contract with FSG.
  GspanOptions options = raw_options;
  options.min_support = std::max<std::size_t>(1, options.min_support);
  const auto num_transactions =
      static_cast<std::uint32_t>(source.num_transactions());

  // Seeds: one projection per minimal first entry, one link per edge, in
  // DFS order. Each view lists a type's edges in ascending EdgeId order
  // and the scan walks the source one shard at a time (ascending bases ==
  // ascending global tids), holding a single pin at a time.
  std::map<DfsEdge, Projection> seeds;
  try {
    for (std::size_t s = 0; s < source.num_shards(); ++s) {
      const graph::ShardRef shard = source.Pin(s);
      for (std::uint32_t i = 0; i < shard.views.size(); ++i) {
        const std::uint32_t tid = shard.base + i;
        const graph::GraphView& t = shard.views[i];
        for (std::size_t type = 0; type < t.NumEdgeTypes(); ++type) {
          Projection& links = seeds[SeedEntry(t.EdgeTypeAt(type))];
          for (EdgeId e : t.EdgesOfType(type)) links.push_back({tid, e, 0});
        }
      }
    }
  } catch (const std::bad_alloc&) {
    // A shard pin that could not fit the memory ceiling even after
    // evicting everything else. The seed scan is incomplete, so nothing
    // can be emitted honestly.
    GspanResult aborted;
    aborted.outcome = common::MiningOutcome::kMemoryBudgetExceeded;
    common::RecordOutcome("gspan", aborted.outcome);
    return aborted;
  }
  std::vector<std::pair<DfsEdge, Projection>> frequent;
  for (auto& [entry, links] : seeds) {
    if (SupportOf(links) < options.min_support) continue;
    frequent.emplace_back(entry, std::move(links));
  }

  TNMINE_COUNTER_ADD("gspan/seeds_expanded", frequent.size());

  // Mine each seed's subtree independently on its own lane. Each subtree
  // gets its deterministic Slice of the tick allotment, so tick-truncated
  // output is identical at any thread count; a bad_alloc (real or
  // injected) is absorbed at this boundary, downgrading the subtree to
  // its partial result with an honest memory outcome.
  std::vector<GspanResult> parts = common::ParallelMap<GspanResult>(
      options.parallelism, frequent.size(), [&](std::size_t i) {
        TNMINE_TRACE_SPAN("gspan/seed_subtree");
        Miner miner{graph::TransactionSource::Reader(source),
                    num_transactions, options};
        miner.meter =
            common::BudgetMeter(options.budget.Slice(i, frequent.size()));
        miner.code.push_back(frequent[i].first);
        try {
          miner.Grow(std::move(frequent[i].second));
        } catch (const std::bad_alloc&) {
          miner.result.outcome = common::CombineOutcomes(
              miner.result.outcome,
              common::MiningOutcome::kMemoryBudgetExceeded);
        }
        miner.result.work_ticks = miner.meter.ticks_spent();
        TNMINE_COUNTER_ADD("gspan/extensions_enumerated",
                           miner.extensions_enumerated);
        TNMINE_COUNTER_ADD("gspan/embeddings_materialized",
                           miner.embeddings_materialized);
        TNMINE_COUNTER_ADD("gspan/codes_generated", miner.codes_generated);
        return std::move(miner.result);
      });

  // Subtrees are disjoint, so the merge is concatenation in seed order.
  GspanResult merged;
  for (GspanResult& part : parts) {
    merged.outcome = common::CombineOutcomes(merged.outcome, part.outcome);
    merged.work_ticks += part.work_ticks;
    merged.max_level = std::max(merged.max_level, part.max_level);
    std::move(part.patterns.begin(), part.patterns.end(),
              std::back_inserter(merged.patterns));
  }
  merged.patterns_explored = merged.patterns.size();
  TNMINE_COUNTER_ADD("gspan/patterns_emitted", merged.patterns.size());
  common::RecordOutcome("gspan", merged.outcome);
  return merged;
}

}  // namespace tnmine::gspan
