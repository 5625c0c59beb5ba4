// Unit tests of the plan pipeline itself: optimizer pass counters, the
// cost win the passes buy (node evaluations), and the explain rendering.
// Byte-identity of answers across modes is covered by
// plan_equivalence_test.cc.

#include <gtest/gtest.h>

#include <string>

#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/trace.h"

namespace lcdb {
namespace {

Evaluator::Stats EvalStats(const RegionExtension& ext, const std::string& text,
                           bool optimize) {
  auto query = ParseQuery(text, ext.database().relation_name());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  Evaluator::Options options;
  options.optimize = optimize;
  Evaluator evaluator(ext, options);
  auto answer = evaluator.Evaluate(**query);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return evaluator.stats();
}

std::string Explain(const RegionExtension& ext, const std::string& text,
                    bool optimize = true) {
  auto query = ParseQuery(text, ext.database().relation_name());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  Evaluator::Options options;
  options.optimize = optimize;
  Evaluator evaluator(ext, options);
  auto explained = evaluator.Explain(**query);
  EXPECT_TRUE(explained.ok()) << explained.status().ToString();
  return explained.ok() ? *explained : "<error>";
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(PlanOptimizerTest, NodeEvaluationsStrictlyLowerOnRegLfpWorkload) {
  // The acceptance experiment: on the bench_reglfp workload (RegionConn
  // over a comb arrangement) the pass pipeline must strictly reduce
  // Stats::node_evaluations versus the unoptimized plan.
  ConstraintDatabase db = MakeComb(3, true);
  auto ext = MakeArrangementExtension(db);
  const auto with = EvalStats(*ext, RegionConnQueryText(), true);
  const auto without = EvalStats(*ext, RegionConnQueryText(), false);
  EXPECT_LT(with.node_evaluations, without.node_evaluations);
  // The win comes from narrowing the region-pure sentence to boolean mode:
  // symbolic visits all but vanish.
  EXPECT_GT(with.plan.narrowed_subtrees, 0u);
  EXPECT_LE(with.node_evaluations, 2u);
}

TEST(PlanOptimizerTest, RegionConnPassCounters) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const auto stats = EvalStats(*ext, RegionConnQueryText(), true);
  EXPECT_GT(stats.plan.plan_nodes, 0u);
  EXPECT_GT(stats.plan.narrowed_subtrees, 0u);
  // forall Rx Ry (subset(Rx) & subset(Ry) -> ...): subset(Rx) is invariant
  // in the inner Ry loop and must be hoisted past it.
  EXPECT_GT(stats.plan.hoisted_invariants, 0u);
  EXPECT_GT(stats.plan.cacheable_marked, 0u);
}

TEST(PlanOptimizerTest, ConstantFoldingAndPruning) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const auto folded =
      EvalStats(*ext, "exists R . (subset(R) & (1 < 2))", true);
  EXPECT_GT(folded.plan.folded_constants, 0u);
  const auto pruned =
      EvalStats(*ext, "exists R . (subset(R) & (1 > 2))", true);
  EXPECT_GT(pruned.plan.pruned_branches, 0u);
  // A constant-false body kills the whole region loop at compile time: the
  // execution visits only the root.
  EXPECT_LE(pruned.node_evaluations + pruned.bool_evaluations, 2u);
}

TEST(PlanOptimizerTest, CommonSubplanElimination) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const auto stats =
      EvalStats(*ext, "exists R . (subset(R) & subset(R))", true);
  EXPECT_GT(stats.plan.cse_merged, 0u);
}

TEST(PlanOptimizerTest, QuantifierAndConjunctReordering) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  // R' has a cheap single-variable guard, R has none: the chain must be
  // reordered to loop over R' outermost.
  const auto quantifiers =
      EvalStats(*ext, "exists R R' . (subset(R') & adj(R, R'))", true);
  EXPECT_GT(quantifiers.plan.reordered_quantifiers, 0u);
  // The cheap region atom must be tested before the nested region loop.
  const auto conjuncts = EvalStats(
      *ext, "exists R . ((exists R' . adj(R, R')) & subset(R))", true);
  EXPECT_GT(conjuncts.plan.reordered_conjuncts, 0u);
}

TEST(PlanOptimizerTest, OptimizeOffDisablesCaching) {
  // With the pipeline disabled no MarkCacheable pass runs, so the executor
  // never memoizes — the ablation the EXPERIMENTS.md row measures. The
  // exists-x subformula depends only on R, so under the R' loop it is a
  // cache hit for every R' after the first.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string query =
      "forall R R' . ((exists x . in(x, x; R)) | adj(R, R') | true)";
  const auto raw = EvalStats(*ext, query, false);
  EXPECT_EQ(raw.memo_hits, 0u);
  const auto optimized = EvalStats(*ext, query, true);
  EXPECT_GT(optimized.memo_hits, 0u);
  EXPECT_LT(optimized.node_evaluations, raw.node_evaluations);
}

TEST(PlanOptimizerTest, FixpointSpanRecorded) {
  // Per-operator time lives in the trace spans: the one fixpoint of the
  // connectivity sentence is computed once, in one span.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  QueryTracer tracer;
  {
    ScopedTracer scoped(tracer);
    EvalStats(*ext, RegionConnQueryText(), true);
  }
  size_t fixpoint_spans = 0;
  tracer.VisitCompletedSpans([&](const std::string& name, uint64_t) {
    if (name == "fixpoint") ++fixpoint_spans;
  });
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  EXPECT_EQ(fixpoint_spans, 1u);
}

TEST(PlanExplainTest, OptimizedPlanRendering) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string out = Explain(*ext, RegionConnQueryText());
  // Narrowed to boolean loops, with per-operator annotations and the pass
  // counter footer.
  EXPECT_TRUE(Contains(out, "all_region")) << out;
  EXPECT_TRUE(Contains(out, "fixpoint lfp")) << out;
  EXPECT_TRUE(Contains(out, "cache=region-key")) << out;
  EXPECT_TRUE(Contains(out, "fanout=")) << out;
  EXPECT_TRUE(Contains(out, "plan_nodes=")) << out;
}

TEST(PlanExplainTest, RawPlanKeepsSymbolicOperators) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string out = Explain(*ext, RegionConnQueryText(), false);
  EXPECT_TRUE(Contains(out, "expand.forall")) << out;
  EXPECT_FALSE(Contains(out, "cache=region-key")) << out;
}

TEST(PlanExplainTest, SharedSubplansPrintedOnce) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string out =
      Explain(*ext, "exists R . (subset(R) | subset(R))");
  EXPECT_TRUE(Contains(out, "(shared, see above)")) << out;
}

TEST(PlanExplainTest, QueriesWithFreeElementVariables) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  // The in(...) atom keeps the subtree element-sorted, so the quantifier
  // stays a symbolic region expansion (no narrowing applies).
  const std::string out =
      Explain(*ext, "exists R . (subset(R) & in(x, y; R))");
  EXPECT_TRUE(Contains(out, "expand.exists")) << out;
  EXPECT_TRUE(Contains(out, "in_region")) << out;
}

}  // namespace
}  // namespace lcdb
