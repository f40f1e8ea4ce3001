#include "partition/temporal.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/date.h"
#include "data/generator.h"
#include "graph/algorithms.h"

namespace tnmine::partition {
namespace {

using data::Transaction;
using data::TransactionDataset;

Transaction MakeTxn(std::int64_t pickup, std::int64_t delivery, double olat,
                    double olon, double dlat, double dlon, double weight) {
  Transaction t;
  t.req_pickup_day = pickup;
  t.req_delivery_day = delivery;
  t.origin_latitude = olat;
  t.origin_longitude = olon;
  t.dest_latitude = dlat;
  t.dest_longitude = dlon;
  t.gross_weight = weight;
  t.total_distance = 100;
  t.transit_hours = 10;
  t.mode = data::TransMode::kTruckload;
  return t;
}

TEST(TemporalPartitionTest, EmptyDataset) {
  const TemporalPartition p =
      PartitionByActiveDay(TransactionDataset{}, TemporalOptions{});
  EXPECT_TRUE(p.transactions.empty());
}

TEST(TemporalPartitionTest, ActiveWindowSpansDays) {
  TransactionDataset ds;
  // One transaction active days 10..12; another active only day 11.
  // Two more on day 11 so the day-11 component has >1 edge.
  ds.Add(MakeTxn(10, 12, 40.0, -90.0, 41.0, -91.0, 100));
  ds.Add(MakeTxn(11, 11, 41.0, -91.0, 42.0, -92.0, 200));
  ds.Add(MakeTxn(10, 12, 41.0, -91.0, 43.0, -93.0, 300));
  TemporalOptions options;
  options.remove_single_edge_transactions = false;
  options.split_components = false;
  const TemporalPartition p = PartitionByActiveDay(ds, options);
  // Days 10, 11, 12 all have graphs.
  ASSERT_EQ(p.transactions.size(), 3u);
  EXPECT_EQ(p.transaction_day[0], 10);
  EXPECT_EQ(p.transaction_day[1], 11);
  EXPECT_EQ(p.transaction_day[2], 12);
  EXPECT_EQ(p.transactions[0].num_edges(), 2u);  // txns 0 and 2
  EXPECT_EQ(p.transactions[1].num_edges(), 3u);  // all three
  EXPECT_EQ(p.transactions[2].num_edges(), 2u);
}

TEST(TemporalPartitionTest, VertexLabelsStableAcrossDays) {
  TransactionDataset ds;
  ds.Add(MakeTxn(1, 1, 40.0, -90.0, 41.0, -91.0, 100));
  ds.Add(MakeTxn(1, 1, 41.0, -91.0, 42.0, -92.0, 100));
  ds.Add(MakeTxn(5, 5, 40.0, -90.0, 41.0, -91.0, 100));
  ds.Add(MakeTxn(5, 5, 41.0, -91.0, 42.0, -92.0, 100));
  TemporalOptions options;
  options.split_components = false;
  const TemporalPartition p = PartitionByActiveDay(ds, options);
  ASSERT_EQ(p.transactions.size(), 2u);
  // The same locations appear on both days; their vertex labels (by
  // location) must match so the route supports one pattern.
  std::unordered_set<graph::Label> day1_labels, day5_labels;
  for (graph::VertexId v = 0; v < p.transactions[0].num_vertices(); ++v) {
    day1_labels.insert(p.transactions[0].vertex_label(v));
  }
  for (graph::VertexId v = 0; v < p.transactions[1].num_vertices(); ++v) {
    day5_labels.insert(p.transactions[1].vertex_label(v));
  }
  EXPECT_EQ(day1_labels, day5_labels);
}

TEST(TemporalPartitionTest, DeduplicatesEdges) {
  TransactionDataset ds;
  // Two identical shipments on the same day + one other edge.
  ds.Add(MakeTxn(3, 3, 40.0, -90.0, 41.0, -91.0, 100));
  ds.Add(MakeTxn(3, 3, 40.0, -90.0, 41.0, -91.0, 101));  // same weight bin
  ds.Add(MakeTxn(3, 3, 41.0, -91.0, 42.0, -92.0, 30000));
  TemporalOptions options;
  options.split_components = false;
  options.num_bins = 2;
  const TemporalPartition p = PartitionByActiveDay(ds, options);
  ASSERT_EQ(p.transactions.size(), 1u);
  EXPECT_EQ(p.transactions[0].num_edges(), 2u);  // duplicate removed
}

TEST(TemporalPartitionTest, SplitsComponentsAndDropsSingles) {
  TransactionDataset ds;
  // Day 1: two disconnected 2-edge chains and one isolated single edge.
  ds.Add(MakeTxn(1, 1, 40.0, -90.0, 41.0, -91.0, 100));
  ds.Add(MakeTxn(1, 1, 41.0, -91.0, 42.0, -92.0, 30000));
  ds.Add(MakeTxn(1, 1, 30.0, -80.0, 31.0, -81.0, 100));
  ds.Add(MakeTxn(1, 1, 31.0, -81.0, 32.0, -82.0, 30000));
  ds.Add(MakeTxn(1, 1, 25.0, -70.0, 26.0, -71.0, 100));
  TemporalOptions options;
  const TemporalPartition p = PartitionByActiveDay(ds, options);
  ASSERT_EQ(p.transactions.size(), 2u);  // single-edge component dropped
  for (const auto& g : p.transactions) {
    EXPECT_EQ(g.num_edges(), 2u);
    EXPECT_TRUE(graph::IsWeaklyConnected(g));
  }
}

TEST(TemporalPartitionTest, VertexLabelFilterDropsBusyDays) {
  TransactionDataset ds;
  // Day 1: 2 edges over 3 locations. Day 2: 6 edges over 12 locations.
  ds.Add(MakeTxn(1, 1, 40.0, -90.0, 41.0, -91.0, 100));
  ds.Add(MakeTxn(1, 1, 41.0, -91.0, 42.0, -92.0, 100));
  for (int i = 0; i < 6; ++i) {
    ds.Add(MakeTxn(2, 2, 30.0 + i, -80.0, 30.0 + i, -81.0, 100));
  }
  TemporalOptions options;
  options.split_components = false;
  options.max_distinct_vertex_labels = 10;
  const TemporalPartition p = PartitionByActiveDay(ds, options);
  ASSERT_EQ(p.transactions.size(), 1u);
  EXPECT_EQ(p.transaction_day[0], 1);
  EXPECT_EQ(p.days_filtered_out, 1u);
}

// The cap counts a day's distinct locations: a day that reaches it is
// dropped without taking global labels, and a day one short of it is kept
// with its locations labelled in first-seen order.
TEST(TemporalPartitionTest, VertexLabelFilterBoundary) {
  TransactionDataset ds;
  // Day 1: 5 disjoint edges over exactly 10 locations.
  for (int i = 0; i < 5; ++i) {
    ds.Add(MakeTxn(1, 1, 10.0 + i, -80.0, 10.0 + i, -81.0, 100));
  }
  // Day 2: an 8-edge path over 9 locations.
  for (int i = 0; i < 8; ++i) {
    ds.Add(MakeTxn(2, 2, 50.0 + i, -70.0, 51.0 + i, -70.0, 100));
  }
  TemporalOptions options;
  options.split_components = false;
  options.max_distinct_vertex_labels = 10;
  const TemporalPartition p = PartitionByActiveDay(ds, options);
  ASSERT_EQ(p.transactions.size(), 1u);
  EXPECT_EQ(p.transaction_day[0], 2);
  EXPECT_EQ(p.days_filtered_out, 1u);
  EXPECT_EQ(p.location_label.size(), 9u);
  const graph::LabeledGraph& g = p.transactions[0];
  ASSERT_EQ(g.num_vertices(), 9u);
  EXPECT_EQ(g.num_edges(), 8u);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.vertex_label(v), static_cast<graph::Label>(v));
  }
}

TEST(TemporalPartitionTest, StatsMatchHandComputation) {
  std::vector<graph::LabeledGraph> txns;
  graph::LabeledGraph a;
  const auto v0 = a.AddVertex(10);
  const auto v1 = a.AddVertex(11);
  a.AddEdge(v0, v1, 1);
  a.AddEdge(v1, v0, 2);
  graph::LabeledGraph b;
  const auto w0 = b.AddVertex(10);
  const auto w1 = b.AddVertex(12);
  const auto w2 = b.AddVertex(13);
  b.AddEdge(w0, w1, 1);
  b.AddEdge(w1, w2, 1);
  for (int i = 0; i < 10; ++i) b.AddEdge(w0, w2, 3);
  txns.push_back(a);
  txns.push_back(b);
  const TemporalStats stats = ComputeTemporalStats(txns);
  EXPECT_EQ(stats.num_transactions, 2u);
  EXPECT_EQ(stats.distinct_edge_labels, 3u);
  EXPECT_EQ(stats.distinct_vertex_labels, 4u);
  EXPECT_EQ(stats.max_edges, 12u);
  EXPECT_EQ(stats.max_vertices, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_edges, 7.0);
  EXPECT_DOUBLE_EQ(stats.avg_vertices, 2.5);
  EXPECT_EQ(stats.size_buckets[0], 1u);   // 2 edges
  EXPECT_EQ(stats.size_buckets[1], 1u);   // 12 edges
}

TEST(TemporalPartitionTest, SyntheticDataProducesTableTwoShape) {
  const TransactionDataset ds =
      data::GenerateTransportData(data::GeneratorConfig::SmallScale());
  TemporalOptions options;
  options.split_components = false;
  const TemporalPartition p = PartitionByActiveDay(ds, options);
  const TemporalStats stats = ComputeTemporalStats(p.transactions);
  // Roughly one transaction per active day over the 60-day window (plus
  // delivery spill-over).
  EXPECT_GT(stats.num_transactions, 30u);
  EXPECT_LT(stats.num_transactions, 100u);
  EXPECT_LE(stats.distinct_edge_labels, 7u);
  EXPECT_GT(stats.avg_edges, 5.0);
}

}  // namespace
}  // namespace tnmine::partition
