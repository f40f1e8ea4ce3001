#include "partition/temporal.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/check.h"
#include "common/failpoint.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "graph/algorithms.h"

namespace tnmine::partition {

using data::Transaction;
using data::TransactionDataset;
using graph::LabeledGraph;

TemporalPartition PartitionByActiveDay(const TransactionDataset& dataset,
                                       const TemporalOptions& options) {
  TNMINE_TRACE_SPAN("partition/by_active_day");
  TemporalPartition out;
  if (dataset.empty()) return out;

  // Global discretizer over the labeling attribute.
  std::vector<double> values;
  values.reserve(dataset.size());
  for (const Transaction& t : dataset.transactions()) {
    values.push_back(data::AttributeValue(t, options.attribute));
  }
  out.discretizer =
      options.equal_frequency
          ? Discretizer::EqualFrequency(values, options.num_bins)
          : Discretizer::EqualWidth(values, options.num_bins);

  // Global location labels.
  auto location_label = [&](data::LocationKey key) {
    const auto it = out.location_label.find(key);
    if (it != out.location_label.end()) return it->second;
    const graph::Label label =
        static_cast<graph::Label>(out.location_label.size());
    out.location_label.emplace(key, label);
    return label;
  };

  // Index transactions by active day.
  std::int64_t first_day = dataset[0].req_pickup_day;
  std::int64_t last_day = dataset[0].req_delivery_day;
  for (const Transaction& t : dataset.transactions()) {
    first_day = std::min(first_day, t.req_pickup_day);
    last_day = std::max(last_day, t.req_delivery_day);
  }
  const std::size_t num_days =
      static_cast<std::size_t>(last_day - first_day + 1);
  std::vector<std::vector<std::uint32_t>> active(num_days);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const Transaction& t = dataset[i];
    TNMINE_CHECK(t.req_delivery_day >= t.req_pickup_day);
    for (std::int64_t d = t.req_pickup_day; d <= t.req_delivery_day; ++d) {
      active[static_cast<std::size_t>(d - first_day)].push_back(
          static_cast<std::uint32_t>(i));
    }
  }

  common::BudgetMeter meter(options.budget);
  // Per-day scratch: the day's locations by day-local vertex id, assigned
  // in first-seen order, and each transaction's endpoint ids.
  std::unordered_map<data::LocationKey, graph::VertexId> vertex_of;
  std::vector<data::LocationKey> locations;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> ends;
  auto vertex_for = [&](data::LocationKey key) {
    const auto [it, added] = vertex_of.try_emplace(
        key, static_cast<graph::VertexId>(locations.size()));
    if (added) locations.push_back(key);
    return it->second;
  };
  const std::size_t cap = options.max_distinct_vertex_labels;
  try {
    for (std::size_t day_index = 0; day_index < num_days; ++day_index) {
      const auto& txns = active[day_index];
      if (txns.empty()) continue;
      (void)TNMINE_FAILPOINT("partition/active_day");
      // One tick per active transaction-day; days already emitted stay
      // valid when the budget stops the loop.
      const common::MiningOutcome stop = meter.Charge(1 + txns.size());
      if (stop != common::MiningOutcome::kComplete) {
        out.outcome = common::CombineOutcomes(out.outcome, stop);
        break;
      }
      // One scan numbers the day's locations. With the day-level
      // vertex-label filter (Table 3's "< 200 distinct vertex labels")
      // it stops as soon as the day reaches the cap.
      vertex_of.clear();
      locations.clear();
      ends.clear();
      for (std::uint32_t i : txns) {
        const graph::VertexId src =
            vertex_for(TransactionDataset::OriginKey(dataset[i]));
        const graph::VertexId dst =
            vertex_for(TransactionDataset::DestKey(dataset[i]));
        if (cap > 0 && locations.size() >= cap) break;
        ends.emplace_back(src, dst);
      }
      if (cap > 0 && locations.size() >= cap) {
        ++out.days_filtered_out;
        continue;
      }
      // Build the day's graph: global labels are assigned in the order
      // the day first sees its locations.
      LabeledGraph day_graph;
      day_graph.Reserve(locations.size(), txns.size());
      for (const data::LocationKey key : locations) {
        day_graph.AddVertex(location_label(key));
      }
      for (std::size_t k = 0; k < txns.size(); ++k) {
        const graph::Label label = static_cast<graph::Label>(
            out.discretizer.Bin(
                data::AttributeValue(dataset[txns[k]], options.attribute)));
        day_graph.AddEdge(ends[k].first, ends[k].second, label);
      }
      if (options.deduplicate_edges) graph::DeduplicateEdges(&day_graph);

      const std::int64_t day = first_day + static_cast<std::int64_t>(day_index);
      if (options.split_components) {
        for (LabeledGraph& component : graph::SplitIntoComponents(day_graph)) {
          if (options.remove_single_edge_transactions &&
              component.num_edges() <= 1) {
            continue;
          }
          out.transactions.push_back(std::move(component));
          out.transaction_day.push_back(day);
        }
      } else {
        if (options.remove_single_edge_transactions &&
            day_graph.num_edges() <= 1) {
          continue;
        }
        out.transactions.push_back(
            day_graph.Compact(/*drop_isolated_vertices=*/true));
        out.transaction_day.push_back(day);
      }
    }
  } catch (const std::bad_alloc&) {
    // Days already emitted stay valid; the in-flight day is dropped.
    out.outcome = common::CombineOutcomes(
        out.outcome, common::MiningOutcome::kMemoryBudgetExceeded);
  }
  TNMINE_COUNTER_ADD("partition/day_graphs_emitted", out.transactions.size());
  TNMINE_COUNTER_ADD("partition/days_filtered_out", out.days_filtered_out);
  out.work_ticks = meter.ticks_spent();
  common::RecordOutcome("partition", out.outcome);
  return out;
}

TemporalStats ComputeTemporalStats(
    const std::vector<LabeledGraph>& transactions) {
  TemporalStats stats;
  stats.num_transactions = transactions.size();
  if (transactions.empty()) return stats;
  std::unordered_set<graph::Label> edge_labels;
  std::unordered_set<graph::Label> vertex_labels;
  std::size_t total_edges = 0, total_vertices = 0;
  for (const LabeledGraph& g : transactions) {
    total_edges += g.num_edges();
    total_vertices += g.num_vertices();
    stats.max_edges = std::max(stats.max_edges, g.num_edges());
    stats.max_vertices = std::max(stats.max_vertices, g.num_vertices());
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      vertex_labels.insert(g.vertex_label(v));
    }
    g.ForEachEdge(
        [&](graph::EdgeId e) { edge_labels.insert(g.edge(e).label); });
    const std::size_t size = g.num_edges();
    if (size < 10) {
      ++stats.size_buckets[0];
    } else if (size < 100) {
      ++stats.size_buckets[1];
    } else if (size < 1000) {
      ++stats.size_buckets[2];
    } else if (size < 2000) {
      ++stats.size_buckets[3];
    } else if (size < 5000) {
      ++stats.size_buckets[4];
    } else {
      ++stats.size_buckets[5];
    }
  }
  stats.distinct_edge_labels = edge_labels.size();
  stats.distinct_vertex_labels = vertex_labels.size();
  stats.avg_edges = static_cast<double>(total_edges) /
                    static_cast<double>(transactions.size());
  stats.avg_vertices = static_cast<double>(total_vertices) /
                       static_cast<double>(transactions.size());
  return stats;
}

}  // namespace tnmine::partition
