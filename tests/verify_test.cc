// Tests for the tier-3 static verifiers (analysis/plan_verify.h,
// analysis/bytecode_verify.h): corpus acceptance with zero false positives,
// hand-built violations of every plan invariant class, hand-mutated
// bytecode violations, the VM's refusal of unverified programs, the
// --no-verify ablation, and the analysis.verify.* metrics family.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/bytecode_verify.h"
#include "analysis/plan_verify.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "core/typecheck.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "plan/bytecode.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "plan/vm.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {
namespace {

ConstraintDatabase IntervalsDb() {
  return *LoadDatabaseFromString(
      "relation S(x)\nformula (x > 0 & x < 1) | x = 5");
}

/// Parse + typecheck + plan + optimize, the way the evaluator facade does.
CompiledPlan CompilePlan(const RegionExtension& ext, const std::string& text) {
  auto query = ParseQuery(text, ext.database().relation_name());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  auto info = TypeCheck(**query, ext.database());
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  CompiledPlan plan = BuildPlan(**query, *info, ext);
  PlanPassStats pass_stats;
  OptimizePlan(&plan, &pass_stats);
  return plan;
}

PlanPtr Node(PlanOp op) {
  auto n = std::make_shared<PlanNode>();
  n->op = op;
  return n;
}

/// DFS for the first node satisfying `pred` (plans are DAGs; first match in
/// preorder). Returns nullptr when none matches.
PlanNode* FindNode(PlanNode* node, bool (*pred)(const PlanNode&)) {
  if (pred(*node)) return node;
  for (const PlanPtr& child : node->children) {
    if (PlanNode* hit = FindNode(child.get(), pred)) return hit;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Plan verifier: acceptance.

TEST(PlanVerifyTest, AcceptsOptimizedAndRawPlans) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  const std::string text = "exists x . (S(x) & x > 0)";
  VerifyStats stats;
  CompiledPlan optimized = CompilePlan(*ext, text);
  EXPECT_TRUE(VerifyPlan(optimized, "test", &stats).ok());
  auto query = ParseQuery(text, db.relation_name());
  auto info = TypeCheck(**query, db);
  CompiledPlan raw = BuildPlan(**query, *info, *ext);
  EXPECT_TRUE(VerifyPlan(raw, "test", &stats).ok());
  EXPECT_EQ(stats.plans_verified, 2u);
  EXPECT_GT(stats.plan_nodes_verified, 0u);
  EXPECT_EQ(stats.violations, 0u);
}

TEST(PlanVerifyTest, AcceptsRegionConnectivityPlan) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  CompiledPlan plan = CompilePlan(*ext, RegionConnQueryText());
  EXPECT_TRUE(VerifyPlan(plan, "test").ok());
}

// ---------------------------------------------------------------------------
// Plan verifier: one hand-built violation per invariant class. Every
// rejection is a clean LCDB012 kInternal naming the context and sub-reason.

/// Verifies `root` as a plan over one element column, three regions and a
/// single region variable R (slot 0).
void ExpectPlanRejected(PlanPtr root, const std::string& substring) {
  CompiledPlan plan;
  plan.root = std::move(root);
  plan.num_columns = 1;
  plan.num_regions = 3;
  plan.region_names = {"R"};
  Status s = VerifyPlan(plan, "unit");
  ASSERT_FALSE(s.ok()) << "expected rejection containing '" << substring
                       << "'";
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("LCDB012"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("unit"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find(substring), std::string::npos) << s.ToString();
}

TEST(PlanVerifyTest, RejectsWrongArity) {
  PlanPtr root = Node(PlanOp::kNegateSym);  // needs exactly one child
  ExpectPlanRejected(root, "operator arity");
}

TEST(PlanVerifyTest, RejectsNullChild) {
  PlanPtr root = Node(PlanOp::kNegateSym);
  root->children.push_back(nullptr);
  ExpectPlanRejected(root, "null child");
}

TEST(PlanVerifyTest, RejectsModeConfusion) {
  // Boolean child under a symbolic connective: the executor would read a
  // DnfFormula that was never produced.
  PlanPtr sym = Node(PlanOp::kConstFormula);
  sym->const_formula = DnfFormula::False(1);
  DeriveAnnotations(sym.get(), 3);
  PlanPtr boolean = Node(PlanOp::kConstBool);
  DeriveAnnotations(boolean.get(), 3);
  PlanPtr root = Node(PlanOp::kAndSym);
  root->children = {sym, boolean};
  ExpectPlanRejected(root, "mode confusion");
}

TEST(PlanVerifyTest, RejectsCycle) {
  PlanPtr a = Node(PlanOp::kNegateSym);
  PlanPtr b = Node(PlanOp::kNegateSym);
  a->children.push_back(b);
  b->children.push_back(a);  // cycle: the executor's walk would not return
  ExpectPlanRejected(a, "cycle");
  // Break it so the shared_ptr loop does not leak.
  b->children.clear();
}

TEST(PlanVerifyTest, RejectsMissingPayload) {
  PlanPtr root = Node(PlanOp::kConstFormula);  // no formula attached
  ExpectPlanRejected(root, "missing payload");
}

TEST(PlanVerifyTest, RejectsColumnOutOfRange) {
  PlanPtr child = Node(PlanOp::kConstFormula);
  child->const_formula = DnfFormula::False(1);
  DeriveAnnotations(child.get(), 3);
  PlanPtr root = Node(PlanOp::kExistsElim);
  root->column = 7;  // plan has 1 column
  root->children.push_back(child);
  ExpectPlanRejected(root, "column out of range");
}

TEST(PlanVerifyTest, RejectsStaleAnnotations) {
  PlanPtr root = Node(PlanOp::kInRegion);
  root->region_args = {0};  // R
  DeriveAnnotations(root.get(), 3);
  ASSERT_FALSE(root->free_region.empty());
  root->free_region.clear();  // stale: would silently corrupt memo keys
  ExpectPlanRejected(root, "annotation mismatch");
}

TEST(PlanVerifyTest, RejectsCacheMarkedConstant) {
  PlanPtr root = Node(PlanOp::kConstBool);
  DeriveAnnotations(root.get(), 3);
  root->cache = CachePolicy::kByRegionKey;
  ExpectPlanRejected(root, "cache key ill-formed");
}

TEST(PlanVerifyTest, RejectsUnclosedRoot) {
  PlanPtr root = Node(PlanOp::kInRegion);
  root->region_args = {0};  // R
  DeriveAnnotations(root.get(), 3);
  ExpectPlanRejected(root, "plan not closed: free region variables remain "
                           "at root ({R})");
}

TEST(PlanVerifyTest, RejectsSlotOutOfRange) {
  // Slots index the executors' flat environments unchecked, so a slot past
  // the plan's name tables must never reach them.
  PlanPtr atom = Node(PlanOp::kRegionAtom);
  atom->source_kind = NodeKind::kBoundedAtom;
  atom->region_args = {4};  // the plan has one region variable
  DeriveAnnotations(atom.get(), 3);
  PlanPtr loop = Node(PlanOp::kAnyRegion);
  loop->region_var = 4;
  loop->children.push_back(atom);
  DeriveAnnotations(loop.get(), 3);
  ExpectPlanRejected(loop, "region slot out of range: region_atom uses slot 4 "
                           "of 1");

  PlanPtr member = Node(PlanOp::kSetMember);
  member->set_var = 0;  // the plan has no set variables
  member->region_args = {0};
  DeriveAnnotations(member.get(), 3);
  PlanPtr bind = Node(PlanOp::kAnyRegion);
  bind->region_var = 0;
  bind->children.push_back(member);
  DeriveAnnotations(bind.get(), 3);
  ExpectPlanRejected(bind,
                     "set slot out of range: set_member uses slot 0 of 0");
}

// ---------------------------------------------------------------------------
// Bytecode verifier: acceptance + hand-mutated violations.

BytecodeProgram CompileProgram(const RegionExtension& ext,
                               const std::string& text) {
  return CompileToBytecode(CompilePlan(ext, text));
}

void ExpectBytecodeRejected(const BytecodeProgram& program,
                            const std::string& substring) {
  BytecodeVerifyResult result = VerifyBytecode(program);
  ASSERT_FALSE(result.status.ok())
      << "expected rejection containing '" << substring << "'";
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_NE(result.status.message().find("LCDB012"), std::string::npos)
      << result.status.ToString();
  EXPECT_NE(result.status.message().find(substring), std::string::npos)
      << result.status.ToString();
}

TEST(BytecodeVerifyTest, AcceptsCompiledPrograms) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  for (const std::string& text :
       {std::string("exists x . (S(x, y) & x > 0)"), RegionConnQueryText(),
        RegionConnTcQueryText(false)}) {
    BytecodeProgram program = CompileProgram(*ext, text);
    BytecodeVerifyResult result = VerifyBytecode(program);
    EXPECT_TRUE(result.status.ok()) << text << "\n"
                                    << result.status.ToString();
    EXPECT_EQ(result.procs_verified, program.procs.size());
    EXPECT_EQ(result.instructions_verified, program.TotalInstructions());
    EXPECT_EQ(result.unreachable_procs, 0u) << text;
  }
}

TEST(BytecodeVerifyTest, FixpointProgramProvesLoops) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  BytecodeProgram program = CompileProgram(*ext, RegionConnQueryText());
  BytecodeVerifyResult result = VerifyBytecode(program);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // The region loops lowered from quantifier expansion all carry a
  // checkpoint source.
  EXPECT_GT(result.loops_verified, 0u);
}

TEST(BytecodeVerifyTest, RejectsEmptyAndWrongModePrograms) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  BytecodeProgram program =
      CompileProgram(*ext, "exists x . (S(x) & x > 0)");
  BytecodeProgram empty = program;
  empty.procs.clear();
  ExpectBytecodeRejected(empty, "no procs");
  BytecodeProgram wrong_mode = program;
  wrong_mode.procs[0].symbolic = false;
  ExpectBytecodeRejected(wrong_mode, "entry proc must be symbolic");
}

TEST(BytecodeVerifyTest, RejectsRegisterAndJumpMutations) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  BytecodeProgram program =
      CompileProgram(*ext, "exists x . (S(x) & x > 0)");

  {
    // Flip a destination register out of the register file.
    BytecodeProgram mutant = program;
    VmProc& proc = mutant.procs[0];
    bool mutated = false;
    for (VmInstr& in : proc.code) {
      if (in.op == VmOp::kConstFormula || in.op == VmOp::kQeExists) {
        in.a = proc.num_sregs + 17;
        mutated = true;
        break;
      }
    }
    ASSERT_TRUE(mutated);
    ExpectBytecodeRejected(mutant, "register out of range");
  }
  {
    // Aim a jump outside the proc.
    BytecodeProgram mutant = program;
    for (VmInstr& in : mutant.procs[0].code) {
      if (in.op == VmOp::kJmp || in.op == VmOp::kJmpIfSymFalse ||
          in.op == VmOp::kJmpIfSymTrue) {
        in.b = static_cast<uint32_t>(mutant.procs[0].code.size()) + 9;
        ExpectBytecodeRejected(mutant, "jump target out of range");
        return;
      }
    }
    // No conditional jump in this program — acceptable, covered by the
    // mutation harness over the full corpus.
  }
}

TEST(BytecodeVerifyTest, RejectsDroppedLeaveAndFallOffEnd) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  BytecodeProgram program = CompileProgram(*ext, RegionConnQueryText());

  bool found_leave = false;
  for (size_t p = 0; p < program.procs.size() && !found_leave; ++p) {
    for (size_t pc = 0; pc < program.procs[p].code.size(); ++pc) {
      const VmInstr& in = program.procs[p].code[pc];
      if (in.op == VmOp::kLeaveSym || in.op == VmOp::kLeaveBool) {
        // Overwrite the Leave with an in-place rewrite of its result
        // register: the matching Enter's bracket never closes, so every
        // path to ret/halt is unbalanced.
        BytecodeProgram mutant = program;
        VmInstr& target = mutant.procs[p].code[pc];
        target.op =
            in.op == VmOp::kLeaveSym ? VmOp::kNegSym : VmOp::kNotBool;
        ExpectBytecodeRejected(mutant, "bracket");
        found_leave = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_leave);

  // Make the entry proc's halt a fallthrough op: control falls off the end.
  BytecodeProgram mutant = program;
  VmInstr& last = mutant.procs[0].code.back();
  ASSERT_EQ(last.op, VmOp::kHalt);
  last.op = VmOp::kLoadTrueSym;
  last.a = 0;
  ExpectBytecodeRejected(mutant, "falls off the end");
}

TEST(BytecodeVerifyTest, RejectsRetargetedBackEdge) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  BytecodeProgram program = CompileProgram(*ext, RegionConnQueryText());
  for (size_t p = 0; p < program.procs.size(); ++p) {
    for (size_t pc = 0; pc < program.procs[p].code.size(); ++pc) {
      if (program.procs[p].code[pc].op == VmOp::kLoopNext) {
        BytecodeProgram mutant = program;
        // One past the head is no longer a kLoopHead.
        mutant.procs[p].code[pc].b += 1;
        ExpectBytecodeRejected(mutant,
                               "loop back-edge does not target its loop.head");
        return;
      }
    }
  }
  FAIL() << "expected at least one loop in the connectivity program";
}

// ---------------------------------------------------------------------------
// VM gate + ablation + metrics.

TEST(VerifyGateTest, VmRefusesUnverifiedProgram) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  BytecodeProgram program =
      CompileProgram(*ext, "exists x . (S(x) & x > 0)");
  ASSERT_FALSE(program.verified);
  Evaluator::Options options;
  options.use_bytecode = true;
  Evaluator::Stats stats;
  BytecodeVm vm(program, *ext, options, &stats);
  try {
    vm.Run();
    FAIL() << "expected the VM to refuse the unverified program";
  } catch (const QueryInterrupt& interrupt) {
    EXPECT_EQ(interrupt.status().code(), StatusCode::kInternal);
    EXPECT_NE(interrupt.status().message().find("LCDB012"),
              std::string::npos);
    EXPECT_NE(interrupt.status().message().find("unverified"),
              std::string::npos);
  }
  // The ablation switch waives the gate; answers are unchanged.
  options.verify = false;
  BytecodeVm unchecked(program, *ext, options, &stats);
  EXPECT_NO_THROW(unchecked.Run());
}

TEST(VerifyGateTest, EvaluateRunsVerifiersOnBothBackends) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  const std::string text = "exists x . (S(x) & x > 0)";
  Evaluator::Options options;
  for (bool vm : {false, true}) {
    options.use_bytecode = vm;
    Evaluator evaluator(*ext, options);
    auto parsed = ParseQuery(text, db.relation_name());
    ASSERT_TRUE(parsed.ok());
    auto answer = evaluator.Evaluate(**parsed);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    const VerifyStats& verify = evaluator.stats().verify;
    EXPECT_EQ(verify.plans_verified, 1u);
    EXPECT_EQ(verify.violations, 0u);
    EXPECT_EQ(verify.programs_verified, vm ? 1u : 0u);
    const auto values = evaluator.stats().ToMetrics().values;
    ASSERT_TRUE(values.count("analysis.verify.plans"));
    EXPECT_EQ(values.at("analysis.verify.plans"), 1u);
    ASSERT_TRUE(values.count("analysis.verify.violations"));
    EXPECT_EQ(values.at("analysis.verify.violations"), 0u);
    if (vm) {
      EXPECT_GE(values.at("analysis.verify.instructions"), 1u);
    }
  }
}

TEST(VerifyGateTest, NoVerifyAblationSkipsVerifiersAndStillAnswers) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  const std::string text = "exists x . (S(x) & x > 0)";
  Evaluator::Options options;
  options.use_bytecode = true;
  options.verify = false;
  Evaluator evaluator(*ext, options);
  auto parsed = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(parsed.ok());
  auto answer = evaluator.Evaluate(**parsed);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(evaluator.stats().verify.plans_verified, 0u);
  EXPECT_EQ(evaluator.stats().verify.programs_verified, 0u);
  // The family stays schema-stable at zero.
  const auto values = evaluator.stats().ToMetrics().values;
  ASSERT_TRUE(values.count("analysis.verify.plans"));
  EXPECT_EQ(values.at("analysis.verify.plans"), 0u);
}

TEST(VerifyGateTest, ExplainRunsThePlanVerifier) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  Evaluator evaluator(*ext);
  auto parsed = ParseQuery("exists x . (S(x) & x > 0)", db.relation_name());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(evaluator.Explain(**parsed).ok());
  EXPECT_EQ(evaluator.stats().verify.plans_verified, 1u);
  ASSERT_TRUE(evaluator.ExplainBytecode(**parsed).ok());
  EXPECT_EQ(evaluator.stats().verify.plans_verified, 1u);
  EXPECT_EQ(evaluator.stats().verify.programs_verified, 1u);
}

}  // namespace
}  // namespace lcdb
