// Tests for the plan bytecode pipeline (plan/bytecode.h, plan/vm.h): the
// disassembler's golden listing, vm.* stats plumbing, the
// use_bytecode && !optimize rejection, per-op memo-hit attribution parity
// between the tree walk and the VM, governor budget trips landing
// mid-bytecode-loop, and failpoint unwinds leaving the evaluator reusable.

#include <gtest/gtest.h>

#include <string>

#include "analysis/bytecode_verify.h"
#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "core/typecheck.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "plan/bytecode.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "plan/vm.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace lcdb {
namespace {

ConstraintDatabase IntervalsDb() {
  auto f = ParseDnf("(x > 0 & x < 1) | x = 5", {"x"});
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return ConstraintDatabase("S", *f, {"x"});
}

/// Compiles `text` against `ext` to an optimized bytecode program, the way
/// the evaluator facade does — tier-3 verification included, since the VM
/// refuses programs whose `verified` flag is unset.
BytecodeProgram Compile(const RegionExtension& ext, const std::string& text) {
  auto query = ParseQuery(text, ext.database().relation_name());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  auto info = TypeCheck(**query, ext.database());
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  CompiledPlan plan = BuildPlan(**query, *info, ext);
  PlanPassStats pass_stats;
  OptimizePlan(&plan, &pass_stats);
  BytecodeProgram program = CompileToBytecode(plan);
  BytecodeVerifyResult verdict = VerifyBytecode(program);
  EXPECT_TRUE(verdict.status.ok()) << verdict.status.ToString();
  program.verified = verdict.status.ok();
  return program;
}

Evaluator::Options VmOptions() {
  Evaluator::Options options;
  options.use_bytecode = true;
  return options;
}

TEST(VmTest, DisassemblerGolden) {
  // A query touching both modes (symbolic QE + boolean region loop) and
  // memo-marked subplans (each Enter lists its memo key), pinned
  // byte-for-byte. The expand.exists and qe.exists Enter/Leave pairs also
  // carry those operators' spans and counters. If lowering legitimately
  // changes, update the golden — the point is that it cannot drift
  // unnoticed.
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  BytecodeProgram program =
      Compile(*ext, "exists R . (subset(R) & exists y . (S(y) & y >= 0))");
  EXPECT_EQ(
      DisassembleBytecode(program),
      "proc 0 (main): sym sregs=4 bregs=1 iregs=1\n"
      "  0000  enter.sym     s0 #0 expand.exists memo={} skip->0025\n"
      "  0001  load.false    s0\n"
      "  0002  load.imm      i0 0\n"
      "  0003  loop.head     i0 exit->0024 stride=0\n"
      "  0004  set_region    R = i0\n"
      "  0005  enter.sym     s1 #1 and.sym memo={R} skip->0021\n"
      "  0006  enter.sym     s1 #2 lift_bool\n"
      "  0007  enter.bool    b0 #3 region_atom\n"
      "  0008  region_atom   b0 R\n"
      "  0009  leave.bool    b0\n"
      "  0010  lift_bool     s1 b0\n"
      "  0011  leave.sym     s1\n"
      "  0012  jmp.sym_false s1 ->0020\n"
      "  0013  enter.sym     s2 #4 qe.exists memo={} skip->0019\n"
      "  0014  enter.sym     s3 #5 const.formula\n"
      "  0015  const.formula s3 {(-x0 < 0 & x0 < 1 & -x0 <= 0)...}\n"
      "  0016  leave.sym     s3\n"
      "  0017  qe.exists     s2 s3 col0\n"
      "  0018  leave.sym     s2 memo\n"
      "  0019  and.sym       s1 s2\n"
      "  0020  leave.sym     s1 memo\n"
      "  0021  or.sym        s0 s1\n"
      "  0022  jmp.sym_true  s0 ->0024\n"
      "  0023  loop.next     i0 ->0003\n"
      "  0024  leave.sym     s0 memo\n"
      "  0025  halt          \n"
      "-- 1 proc(s), 26 instruction(s)\n");
}

TEST(VmTest, DisassemblerListsEveryProcAndFootersMatch) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  BytecodeProgram program = Compile(*ext, RegionConnQueryText());
  const std::string listing = DisassembleBytecode(program);
  for (size_t p = 0; p < program.procs.size(); ++p) {
    EXPECT_NE(listing.find("proc " + std::to_string(p)), std::string::npos);
  }
  EXPECT_NE(listing.find("proc 0 (main)"), std::string::npos);
  EXPECT_NE(listing.find(std::to_string(program.procs.size()) + " proc(s)"),
            std::string::npos);
  EXPECT_NE(
      listing.find(std::to_string(program.TotalInstructions()) +
                   " instruction(s)"),
      std::string::npos);
  // The set-at-a-time engine evaluates the region-pure fixpoint body
  // itself: the site lowers no body proc and lists no opaque leaves.
  EXPECT_EQ(program.procs.size(), 1u);
  ASSERT_EQ(program.fixpoint_sites.size(), 1u);
  EXPECT_TRUE(program.fixpoint_sites[0].leaves.empty());
  EXPECT_NE(listing.find("leaves={}"), std::string::npos);
}

TEST(VmTest, OpaqueFixpointLeavesLowerToProcs) {
  // The river query's body tests element-sort subformulas (kNonEmpty): each
  // opaque leaf becomes a boolean proc the engine calls back into, and the
  // site and listing name them.
  ConstraintDatabase db = MakeRiverScenario(3, {1}, {1}, {2});
  auto ext = MakeArrangementExtension(db);
  BytecodeProgram program = Compile(*ext, RiverPollutionQueryText());
  ASSERT_EQ(program.fixpoint_sites.size(), 1u);
  const VmMemberSite& site = program.fixpoint_sites[0];
  ASSERT_FALSE(site.leaves.empty());
  EXPECT_EQ(program.leaf_sites.size(), site.leaves.size());
  for (uint32_t leaf : site.leaves) {
    const VmLeafSite& leaf_site = program.leaf_sites[leaf];
    ASSERT_LT(leaf_site.proc, program.procs.size());
    EXPECT_FALSE(program.procs[leaf_site.proc].symbolic);
    EXPECT_EQ(leaf_site.node->op, PlanOp::kNonEmpty);
  }
  EXPECT_GE(program.procs.size(), 1 + site.leaves.size());
  EXPECT_TRUE(VerifyBytecode(program).status.ok());
}

TEST(VmTest, VmStatsPopulatedAndByteIdentical) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());

  Evaluator tree(*ext);
  auto tree_answer = tree.Evaluate(**query);
  ASSERT_TRUE(tree_answer.ok());
  // The tree backend never touches the VM counters.
  EXPECT_EQ(tree.stats().vm.instructions, 0u);
  EXPECT_EQ(tree.stats().vm.procs, 0u);

  Evaluator vm(*ext, VmOptions());
  auto vm_answer = vm.Evaluate(**query);
  ASSERT_TRUE(vm_answer.ok());
  EXPECT_EQ(tree_answer->ToString(), vm_answer->ToString());
  EXPECT_GT(vm.stats().vm.instructions, 0u);
  EXPECT_EQ(vm.stats().vm.procs, 1u);  // the body runs in the engine
  EXPECT_GT(vm.stats().vm.code_instructions, 0u);
  // Core evaluation telemetry matches the tree walk exactly (same memo
  // cadence, same operator visits).
  EXPECT_EQ(tree.stats().node_evaluations, vm.stats().node_evaluations);
  EXPECT_EQ(tree.stats().bool_evaluations, vm.stats().bool_evaluations);
  EXPECT_EQ(tree.stats().memo_hits, vm.stats().memo_hits);
  EXPECT_EQ(tree.stats().fixpoint_iterations, vm.stats().fixpoint_iterations);
  // vm.* metrics are schema-stable on both backends.
  EXPECT_NE(tree.stats().ToJson().find("\"vm.instructions\":0"),
            std::string::npos);
  EXPECT_NE(vm.stats().ToJson().find("\"vm.procs\":"), std::string::npos);
}

TEST(VmTest, GovernorBudgetsTripMidLoop) {
  // Each budget must trip from inside bytecode execution (fixpoint loops,
  // dispatch checkpoints) and surface as the documented Status, with the
  // budget named in the governor stats.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);

  struct Case {
    const char* budget;
    GovernorLimits limits;
    StatusCode code;
    std::string query;
  };
  GovernorLimits fixpoint_limits;
  fixpoint_limits.max_fixpoint_iterations = 1;
  GovernorLimits pivot_limits;
  pivot_limits.max_simplex_pivots = 1;
  GovernorLimits space_limits;
  space_limits.max_tuple_space = 1;
  GovernorLimits deadline_limits;
  deadline_limits.wall_clock_ms = 0;
  // The conn query needs no kernel decisions at eval time (adjacency and
  // subset flags are precomputed with the arrangement), so the pivot budget
  // is exercised with an element-sort projection that must simplify through
  // the feasibility oracle.
  const Case cases[] = {
      {"max_fixpoint_iterations", fixpoint_limits,
       StatusCode::kResourceExhausted, RegionConnQueryText()},
      {"max_simplex_pivots", pivot_limits, StatusCode::kResourceExhausted,
       "exists x . S(x, y)"},
      {"max_tuple_space", space_limits, StatusCode::kResourceExhausted,
       RegionConnQueryText()},
      {"wall_clock_ms", deadline_limits, StatusCode::kDeadlineExceeded,
       RegionConnQueryText()},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.budget);
    auto query = ParseQuery(c.query, db.relation_name());
    ASSERT_TRUE(query.ok());
    // Fresh kernel per case: the process-default kernel's feasibility cache
    // would otherwise satisfy the pivot case without running the simplex.
    ConstraintKernel kernel;
    ScopedKernel scoped_kernel(kernel);
    QueryGovernor governor(c.limits);
    ScopedGovernor scoped(governor);
    Evaluator evaluator(*ext, VmOptions());
    auto answer = evaluator.Evaluate(**query);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), c.code);
    EXPECT_EQ(governor.stats().tripped_budget, c.budget);
    EXPECT_EQ(evaluator.stats().governor.tripped_budget, c.budget);
  }
}

TEST(VmTest, FailpointUnwindLeavesEvaluatorReusable) {
  // Injected faults at the executor root and inside fixpoint/closure loops
  // must unwind through the VM (closing its operator spans) and leave the
  // evaluator able to answer the same query correctly afterwards.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  std::string tc_query = RegionConnTcQueryText(false);
  for (const auto& [site, text] :
       {std::pair<const char*, std::string>{"plan.execute",
                                            RegionConnQueryText()},
        {"fixpoint.stage", RegionConnQueryText()},
        {"closure.build", tc_query}}) {
    SCOPED_TRACE(site);
    auto query = ParseQuery(text, db.relation_name());
    ASSERT_TRUE(query.ok());
    Evaluator evaluator(*ext, VmOptions());
    ArmFailpoint(site, StatusCode::kInternal, "injected");
    auto failed = evaluator.Evaluate(**query);
    DisarmAllFailpoints();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    auto recovered = evaluator.Evaluate(**query);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    Evaluator oracle(*ext);
    auto expected = oracle.Evaluate(**query);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(expected->ToString(), recovered->ToString());
  }
}

TEST(VmTest, ExplainBytecodeMatchesDirectDisassembly) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  const std::string text = "exists y . (S(y) & y >= 0)";
  auto query = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(*ext);
  auto listing = evaluator.ExplainBytecode(**query);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(*listing, DisassembleBytecode(Compile(*ext, text)));
  EXPECT_GT(evaluator.stats().vm.code_instructions, 0u);

  Evaluator::Options raw;
  raw.optimize = false;
  Evaluator rejecting(*ext, raw);
  auto rejected = rejecting.ExplainBytecode(**query);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(VmTest, ExplainBytecodeLeavesItsOwnPlanCost) {
  // Explain and ExplainBytecode compile through one pipeline: the listing
  // of query B leaves B's tier-2 cost in stats, never the cost of the
  // query evaluated before it.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto a = ParseQuery(RegionConnQueryText(), db.relation_name());
  auto b = ParseQuery("exists R . (subset(R) & !(bounded(R)))",
                      db.relation_name());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Evaluator explained(*ext);
  ASSERT_TRUE(explained.Explain(**b).ok());
  const PlanCostStats want = explained.stats().plan_cost;
  ASSERT_GT(want.nodes, 0u);

  Evaluator evaluator(*ext);
  ASSERT_TRUE(evaluator.Evaluate(**a).ok());
  ASSERT_NE(evaluator.stats().plan_cost.nodes, want.nodes);
  ASSERT_TRUE(evaluator.ExplainBytecode(**b).ok());
  const PlanCostStats& got = evaluator.stats().plan_cost;
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.total_bigint_ops, want.total_bigint_ops);
  EXPECT_EQ(got.est_answer_rows, want.est_answer_rows);
  EXPECT_EQ(got.dead_caches, want.dead_caches);
  EXPECT_EQ(got.warnings, want.warnings);
}

TEST(VmTest, PlanCostStatsExported) {
  // The tier-2 pass runs on every optimized compile; its aggregates land
  // in stats and the plan.cost.* metrics family.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(*ext, VmOptions());
  ASSERT_TRUE(evaluator.Evaluate(**query).ok());
  EXPECT_GT(evaluator.stats().plan_cost.nodes, 0u);
  EXPECT_GT(evaluator.stats().plan_cost.total_bigint_ops, 0u);
  EXPECT_NE(evaluator.stats().ToJson().find("\"plan.cost.nodes\":"),
            std::string::npos);

  // Explain carries the cost column and footer.
  auto explain = evaluator.Explain(**query);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("| est: calls="), std::string::npos);
  EXPECT_NE(explain->find("-- cost: nodes="), std::string::npos);
}

}  // namespace
}  // namespace lcdb
