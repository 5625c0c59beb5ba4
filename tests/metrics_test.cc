// Tests for the unified metrics registry (engine/metrics.h): the four
// instrument kinds, snapshot-and-diff semantics, the flat JSON the CI job
// schema-validates, and the adapters that lift the engine's typed telemetry
// structs (KernelStats, GovernorStats, PlanPassStats, Evaluator::Stats)
// into the shared metric namespace.

#include <gtest/gtest.h>

#include <string>

#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "db/region_extension.h"
#include "engine/metrics.h"

namespace lcdb {
namespace {

TEST(MetricsTest, CountersAccumulateGaugesOverwrite) {
  MetricsRegistry registry;
  registry.Count("c", 2);
  registry.Count("c", 3);
  registry.Gauge("g", 7);
  registry.Gauge("g", 4);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.values.at("c"), 5u);
  EXPECT_EQ(snap.values.at("g"), 4u);
}

TEST(MetricsTest, SnapshotDiffIsTheDelta) {
  MetricsRegistry registry;
  registry.Count("queries", 5);
  const MetricsSnapshot before = registry.Snapshot();
  registry.Count("queries", 3);
  registry.Gauge("nodes", 11);
  const MetricsSnapshot after = registry.Snapshot();

  const MetricsSnapshot delta = after.Diff(before);
  EXPECT_EQ(delta.values.at("queries"), 3u);
  EXPECT_EQ(delta.values.at("nodes"), 11u);  // absent before => full value

  // Diff clamps at zero instead of wrapping (a gauge can shrink).
  const MetricsSnapshot reverse = before.Diff(after);
  EXPECT_EQ(reverse.values.at("queries"), 0u);
}

TEST(MetricsTest, HistogramObservations) {
  MetricsRegistry registry;
  registry.Observe("lat", 0);
  registry.Observe("lat", 1);
  registry.Observe("lat", 1000);
  const MetricsSnapshot snap = registry.Snapshot();
  const auto& h = snap.histograms.at("lat");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1001u);
  uint64_t total = 0;
  for (uint64_t b : h.buckets) total += b;
  EXPECT_EQ(total, 3u);

  // Diff subtracts bucket-wise.
  registry.Observe("lat", 1);
  const auto delta = registry.Snapshot().Diff(snap);
  EXPECT_EQ(delta.histograms.at("lat").count, 1u);
  EXPECT_EQ(delta.histograms.at("lat").sum, 1u);
}

TEST(MetricsTest, ToJsonIsFlatAndTyped) {
  MetricsRegistry registry;
  registry.Count("kernel.oracle_calls", 2);
  registry.Label("governor.tripped_budget", "max_simplex_pivots");
  registry.Observe("lat", 3);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"kernel.oracle_calls\":2"), std::string::npos);
  EXPECT_NE(json.find("\"governor.tripped_budget\":\"max_simplex_pivots\""),
            std::string::npos);
  // Histograms serialize as {"count":...,"sum":...,"buckets":[...]}.
  EXPECT_NE(json.find("\"lat\":{\"count\":1,\"sum\":3,\"buckets\":"),
            std::string::npos);
}

TEST(MetricsTest, HistogramPercentileEstimates) {
  MetricsRegistry registry;
  for (int i = 0; i < 100; ++i) registry.Observe("lat", 100);
  // Every observation lands in the [64, 128) bucket, so every percentile
  // estimate must interpolate inside it.
  const MetricsSnapshot snap = registry.Snapshot();
  const auto& h = snap.histograms.at("lat");
  EXPECT_GE(h.Percentile(0.5), 64u);
  EXPECT_LT(h.Percentile(0.5), 128u);
  EXPECT_GE(h.Percentile(0.99), h.Percentile(0.5));

  // An empty histogram and an all-zeros histogram both report 0.
  MetricsSnapshot::HistogramValue empty;
  EXPECT_EQ(empty.Percentile(0.5), 0u);
  MetricsRegistry zeros;
  zeros.Observe("z", 0);
  const MetricsSnapshot zsnap = zeros.Snapshot();
  EXPECT_EQ(zsnap.histograms.at("z").Percentile(0.9), 0u);
}

TEST(MetricsTest, HistogramOverflowRoundTripsThroughDiffAndMerge) {
  const uint64_t huge = uint64_t{1} << 45;  // past the last finite bucket
  MetricsRegistry registry;
  registry.Observe("lat", huge);
  const MetricsSnapshot before = registry.Snapshot();
  registry.Observe("lat", huge);
  registry.Observe("lat", 1);
  const MetricsSnapshot after = registry.Snapshot();

  const MetricsSnapshot delta = after.Diff(before);
  const auto& d = delta.histograms.at("lat");
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.sum, huge + 1);
  EXPECT_EQ(d.buckets.back(), 1u);  // the overflow observation in the delta

  // Merge adds bucket-wise, so before + (after - before) == after exactly.
  MetricsSnapshot merged = before;
  merged.Merge(delta);
  const auto& m = merged.histograms.at("lat");
  const auto& a = after.histograms.at("lat");
  EXPECT_EQ(m.count, a.count);
  EXPECT_EQ(m.sum, a.sum);
  EXPECT_EQ(m.buckets, a.buckets);
  // The overflow bucket extrapolates beyond the last finite bucket bound.
  EXPECT_GE(a.Percentile(0.99),
            uint64_t{1} << (MetricsRegistry::kHistogramBuckets - 2));
}

TEST(MetricsTest, MergeUnionsDisjointLabelSets) {
  MetricsRegistry r1;
  MetricsRegistry r2;
  r1.Label("governor.tripped_budget", "max_tuple_space");
  r1.Count("a", 1);
  r2.Label("session.last_failure_class", "resource");
  r2.Count("b", 2);
  MetricsSnapshot merged = r1.Snapshot();
  merged.Merge(r2.Snapshot());
  EXPECT_EQ(merged.labels.at("governor.tripped_budget"), "max_tuple_space");
  EXPECT_EQ(merged.labels.at("session.last_failure_class"), "resource");
  EXPECT_EQ(merged.values.at("a"), 1u);
  EXPECT_EQ(merged.values.at("b"), 2u);

  // On a label collision the merged-in value wins.
  MetricsRegistry r3;
  r3.Label("governor.tripped_budget", "max_bigint_bits");
  merged.Merge(r3.Snapshot());
  EXPECT_EQ(merged.labels.at("governor.tripped_budget"), "max_bigint_bits");
}

TEST(MetricsTest, ExportsCarryPercentileEstimates) {
  MetricsRegistry registry;
  registry.Observe("lat", 100);
  const MetricsSnapshot snap = registry.Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  const std::string text = snap.ToString();
  EXPECT_NE(text.find("lat.p50="), std::string::npos);
  EXPECT_NE(text.find("lat.p99="), std::string::npos);
}

TEST(MetricsTest, ClearEmptiesEverything) {
  MetricsRegistry registry;
  registry.Count("a", 1);
  registry.Label("b", "x");
  registry.Observe("c", 1);
  registry.Clear();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.values.empty());
  EXPECT_TRUE(snap.labels.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsTest, KernelStatsAdapter) {
  KernelStats stats;
  stats.feasibility_queries = 3;
  stats.cache_hits = 1;
  stats.simplex_pivots = 6;
  MetricsRegistry registry;
  registry.RegisterKernelStats(stats);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.values.at("kernel.feasibility_queries"), 3u);
  EXPECT_EQ(snap.values.at("kernel.cache_hits"), 1u);
  EXPECT_EQ(snap.values.at("kernel.simplex_pivots"), 6u);
}

TEST(MetricsTest, GovernorStatsAdapterCarriesTheTrippedBudget) {
  GovernorStats stats;
  stats.checkpoints = 12;
  stats.budget_trips = 1;
  stats.tripped_budget = "max_tuple_space";
  MetricsRegistry registry;
  registry.RegisterGovernorStats(stats);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.values.at("governor.checkpoints"), 12u);
  EXPECT_EQ(snap.values.at("governor.budget_trips"), 1u);
  EXPECT_EQ(snap.labels.at("governor.tripped_budget"), "max_tuple_space");
}

TEST(MetricsTest, EvaluatorStatsExportAllFamilies) {
  auto f = ParseDnf("(x > 0 & x < 1) | x = 5", {"x"});
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ConstraintDatabase db("S", *f, {"x"});
  auto ext = MakeArrangementExtension(db);
  auto parsed = ParseQuery("exists x . (S(x) & x > 2)", db.relation_name());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Evaluator evaluator(*ext);
  auto r = evaluator.Evaluate(**parsed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const MetricsSnapshot snap = evaluator.stats().ToMetrics();
  EXPECT_GT(snap.values.at("evaluator.node_evaluations"), 0u);
  EXPECT_GT(snap.values.at("evaluator.qe_eliminations"), 0u);
  EXPECT_GT(snap.values.at("plan.plan_nodes"), 0u);
  // Every family shows up under its prefix in one flat namespace.
  ASSERT_TRUE(snap.values.count("kernel.feasibility_queries"));
  ASSERT_TRUE(snap.values.count("governor.checkpoints"));
  const std::string json = evaluator.stats().ToJson();
  EXPECT_NE(json.find("\"evaluator.node_evaluations\""), std::string::npos);
  // The one elimination is a counter; its time lives in the qe.exists
  // trace span, so no per-operator timer family exists.
  EXPECT_NE(json.find("\"evaluator.qe_eliminations\":1"), std::string::npos);
  EXPECT_EQ(json.find("\"op."), std::string::npos);
}

}  // namespace
}  // namespace lcdb
