// Equivalence harness for the compile -> optimize -> execute pipeline: every
// seed database in data/ and every canned query from core/queries.h must
// produce *byte-identical* QueryAnswer formulas through
//   (a) the legacy single-pass tree walk (Options::use_plan = false, kept
//       for one release as the oracle),
//   (b) the raw plan (use_plan = true, optimize = false),
//   (c) the optimized plan (use_plan = true, optimize = true), and
//   (d) the bytecode VM over the optimized plan (use_bytecode = true),
//       traced and untraced — tracing must never change an answer.
// The optimizer's contract is representation preservation, not mere logical
// equivalence, so the comparison is on ToString() output.
// (c) and (d) must also ask the kernel the same questions: equal query,
// oracle-call and hit/miss counters on fresh kernels — and record the same
// span tree.
// LCDB_TEST_DATA_DIR is injected by CMake.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "engine/trace.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace lcdb {
namespace {

#ifndef LCDB_TEST_DATA_DIR
#define LCDB_TEST_DATA_DIR "data"
#endif

/// Retains every span of the largest swept query.
constexpr size_t kSweepSpanCapacity = 1u << 20;

ConstraintDatabase Load(const std::string& name) {
  auto db = LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return *db;
}

/// The span tree of `tracer` with zeroed timestamps, minus the VM's
/// lowering and bytecode-verification spans (phases the tree walk does not
/// have; neither has child spans).
std::string ExecutionSpans(const QueryTracer& tracer) {
  std::istringstream lines(tracer.ToTreeString(/*zero_timestamps=*/true));
  std::string out, line;
  while (std::getline(lines, line)) {
    const std::string name = line.substr(line.find_first_not_of(' '));
    if (name.rfind("plan.lower", 0) == 0 ||
        name.rfind("bytecode.verify", 0) == 0) {
      continue;
    }
    out += line + "\n";
  }
  return out;
}

/// `stages`, when given, receives the evaluation's fixpoint_iterations.
/// `traffic`, when given, receives the evaluation's stats, and `spans` its
/// ExecutionSpans; both are taken on a fresh kernel with the ambient
/// kernel's options so that no earlier run's cached verdicts count in its
/// kernel counters or change its LP spans.
std::string AnswerVia(const RegionExtension& ext, const FormulaNode& query,
                      bool use_plan, bool optimize,
                      bool use_bytecode = false, size_t* stages = nullptr,
                      Evaluator::Stats* traffic = nullptr,
                      std::string* spans = nullptr) {
  Evaluator::Options options;
  options.use_plan = use_plan;
  options.optimize = optimize;
  options.use_bytecode = use_bytecode;
  std::unique_ptr<ConstraintKernel> fresh;
  std::unique_ptr<ScopedKernel> scope;
  if (traffic != nullptr || spans != nullptr) {
    fresh = std::make_unique<ConstraintKernel>(CurrentKernel().options());
    scope = std::make_unique<ScopedKernel>(*fresh);
  }
  std::optional<QueryTracer> tracer;
  std::optional<ScopedTracer> traced;
  if (spans != nullptr) {
    tracer.emplace(QueryTracer::Options{.capacity = kSweepSpanCapacity});
    traced.emplace(*tracer);
  }
  Evaluator evaluator(ext, options);
  auto answer = evaluator.Evaluate(query);
  traced.reset();
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  if (stages != nullptr) *stages = evaluator.stats().fixpoint_iterations;
  if (traffic != nullptr) *traffic = evaluator.stats();
  if (spans != nullptr) {
    EXPECT_EQ(tracer->spans_dropped(), 0u);
    *spans = ExecutionSpans(*tracer);
  }
  if (!answer.ok()) return "<error>";
  return answer->ToString();
}

/// The tree walk and the VM ask the kernel the same questions: the lemma
/// database is the only cache of kernel verdicts, so even the hit/miss
/// split is equal.
void ExpectSameKernelTraffic(const Evaluator::Stats& tree_stats,
                             const Evaluator::Stats& vm_stats,
                             const std::string& text) {
  const KernelStats& tree = tree_stats.kernel;
  const KernelStats& vm = vm_stats.kernel;
  EXPECT_EQ(tree.feasibility_queries, vm.feasibility_queries) << text;
  EXPECT_EQ(tree.implication_queries, vm.implication_queries) << text;
  EXPECT_EQ(tree.oracle_calls, vm.oracle_calls) << text;
  EXPECT_EQ(tree.cache_hits, vm.cache_hits) << text;
  EXPECT_EQ(tree.cache_misses, vm.cache_misses) << text;
  EXPECT_EQ(tree.implication_cache_hits, vm.implication_cache_hits) << text;
  EXPECT_EQ(tree.implication_cache_misses, vm.implication_cache_misses)
      << text;
}

/// `check_raw` additionally runs the unoptimized plan, which executes with
/// no subformula caching at all — skipped for the workloads where that
/// ablation is minutes-expensive (it is still covered on the cheap ones).
void ExpectAllModesAgree(const RegionExtension& ext, const std::string& text,
                         bool check_raw = true) {
  auto query = ParseQuery(text, ext.database().relation_name());
  ASSERT_TRUE(query.ok()) << text << "\n" << query.status().ToString();
  // Stage counts too: the set-at-a-time engine (semi-naive or not) must
  // run exactly the legacy walk's Kleene stages.
  size_t legacy_stages = 0, stages = 0;
  const std::string legacy =
      AnswerVia(ext, **query, false, true, false, &legacy_stages);
  if (check_raw) {
    EXPECT_EQ(legacy, AnswerVia(ext, **query, true, false, false, &stages))
        << "raw plan diverges on: " << text;
    EXPECT_EQ(legacy_stages, stages) << "raw plan stages differ on: " << text;
  }
  Evaluator::Stats tree_traffic, vm_traffic;
  std::string tree_spans;
  EXPECT_EQ(legacy, AnswerVia(ext, **query, true, true, false, &stages,
                              &tree_traffic, &tree_spans))
      << "optimized plan diverges on: " << text;
  EXPECT_EQ(legacy_stages, stages)
      << "optimized plan stages differ on: " << text;
  EXPECT_EQ(legacy, AnswerVia(ext, **query, true, true, true, &stages,
                              &vm_traffic))
      << "bytecode VM diverges on: " << text;
  EXPECT_EQ(legacy_stages, stages) << "bytecode VM stages differ on: " << text;
  ExpectSameKernelTraffic(tree_traffic, vm_traffic, text);
  // Both backends enter the same nodes and share one memo (plan/slot_env.h),
  // so they evaluate, and hit the memo on, exactly the same nodes.
  EXPECT_EQ(tree_traffic.node_evaluations, vm_traffic.node_evaluations)
      << text;
  EXPECT_EQ(tree_traffic.bool_evaluations, vm_traffic.bool_evaluations)
      << text;
  EXPECT_EQ(tree_traffic.memo_hits, vm_traffic.memo_hits) << text;
  // Traced VM run: span emission sits on the dispatch hot path, so it is
  // swept too — tracing must be observation only, and the VM's Enter/Leave
  // must open and close the tree walk's operator spans.
  std::string vm_spans;
  EXPECT_EQ(legacy, AnswerVia(ext, **query, true, true, true, nullptr,
                              nullptr, &vm_spans))
      << "traced bytecode VM diverges on: " << text;
  EXPECT_EQ(tree_spans, vm_spans) << "span trees differ on: " << text;
}

/// Queries exercising every operator family, parameterized on the
/// database's arity (element tuples must match it).
std::vector<std::string> QueriesForArity(size_t arity) {
  std::vector<std::string> queries = {
      RegionConnQueryText(),
      RegionConnTcQueryText(false),
      RegionConnTcQueryText(true),
      "exists R . (subset(R) & !(bounded(R)))",
      "forall R . (subset(R) -> exists R' . (adj(R, R') | R = R'))",
      "exists R R' . [rbit x : x > 0](R, R')",
  };
  if (arity == 1) {
    queries.push_back("exists R . (subset(R) & in(x; R))");
    queries.push_back("forall y . ([hull u : S(u)](y) -> y = y)");
    queries.push_back("exists y . (S(y) & y >= 0)");
  } else if (arity == 2) {
    queries.push_back("exists R . (subset(R) & in(x, y; R))");
    queries.push_back("exists x . S(x, y)");
    queries.push_back(
        "forall x y . (S(x, y) -> exists R . (in(x, y; R) & subset(R)))");
  }
  return queries;
}

TEST(PlanEquivalenceTest, DataFiles) {
  for (const char* name : {"triangle.lcdb", "comb.lcdb", "intervals.lcdb",
                           "pentagon.lcdb", "wedge.lcdb"}) {
    SCOPED_TRACE(name);
    ConstraintDatabase db = Load(name);
    auto ext = MakeArrangementExtension(db);
    for (const std::string& text : QueriesForArity(db.arity())) {
      ExpectAllModesAgree(*ext, text);
    }
  }
}

TEST(PlanEquivalenceTest, LiteralConnQuery) {
  // The paper's literal Conn query (element quantifiers + LFP) on small
  // box instances, connected and disconnected.
  for (bool connected : {true, false}) {
    SCOPED_TRACE(connected ? "connected" : "disconnected");
    auto f = ParseDnf(connected
                          ? "x >= 0 & x <= 1 & y >= 0 & y <= 1"
                          : "(x >= 0 & x <= 1 & y >= 0 & y <= 1) | "
                            "(x >= 3 & x <= 4 & y >= 0 & y <= 1)",
                      {"x", "y"});
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ConstraintDatabase db("S", *f, {"x", "y"});
    auto ext = MakeArrangementExtension(db);
    ExpectAllModesAgree(*ext, ConnQueryText(2), /*check_raw=*/false);
  }
}

TEST(PlanEquivalenceTest, RiverScenario) {
  // Fixpoint with set-dependent body over the Figure 6 encoding, in both
  // the polluted and clean configurations.
  for (bool polluted : {true, false}) {
    SCOPED_TRACE(polluted ? "polluted" : "clean");
    ConstraintDatabase db = polluted
                                ? MakeRiverScenario(3, {1}, {0}, {2})
                                : MakeRiverScenario(3, {1}, {0}, {});
    auto ext = MakeArrangementExtension(db);
    ExpectAllModesAgree(*ext, RiverPollutionQueryText(),
                        /*check_raw=*/false);
  }
}

TEST(PlanEquivalenceTest, FixpointFlavours) {
  // LFP / IFP / PFP variants of reachability plus a diverging PFP.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  std::string lfp = RegionConnQueryText();
  std::string ifp = lfp;
  ifp.replace(ifp.find("[lfp"), 4, "[ifp");
  std::string pfp = lfp;
  pfp.replace(pfp.find("[lfp"), 4, "[pfp");
  for (const std::string& text :
       {lfp, ifp, pfp,
        std::string("exists A . [pfp M R : !(M(R))](A)"),
        // Bodies the set-at-a-time engine cannot run semi-naively: M under
        // ∀ and →, and a closure edge with a universal quantifier.
        std::string("exists A . [lfp M R : (subset(R) & !(bounded(R))) | "
                    "(forall Z . (adj(R, Z) -> M(Z)))](A)"),
        std::string("forall A . (subset(A) -> exists B . [tc R ; S : "
                    "forall Z . (adj(S, Z) -> adj(R, Z) | R = Z)](A ; B))")}) {
    ExpectAllModesAgree(*ext, text);
  }
}

TEST(PlanEquivalenceTest, MemoizationOffAgrees) {
  // The ablation configuration (no caching anywhere) must also agree.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator::Options legacy_opts;
  legacy_opts.use_plan = false;
  legacy_opts.memoize = false;
  Evaluator legacy(*ext, legacy_opts);
  auto oracle = legacy.Evaluate(**query);
  ASSERT_TRUE(oracle.ok());
  Evaluator::Options plan_opts;
  plan_opts.memoize = false;
  Evaluator plan(*ext, plan_opts);
  auto answer = plan.Evaluate(**query);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(oracle->ToString(), answer->ToString());
  Evaluator::Options vm_opts;
  vm_opts.memoize = false;
  vm_opts.use_bytecode = true;
  Evaluator vm(*ext, vm_opts);
  auto vm_answer = vm.Evaluate(**query);
  ASSERT_TRUE(vm_answer.ok());
  EXPECT_EQ(oracle->ToString(), vm_answer->ToString());
}

TEST(PlanEquivalenceTest, KernelBackendSweep) {
  // Kernel-configuration sweep: the lemma database and memoize-off must
  // produce byte-identical answers, and equal kernel traffic, on both the
  // tree walk and the bytecode VM, across the data/ seed databases and the
  // canned query set. Lemma truth is a pure function of the canonical
  // encoding, so memoization can only change hit rates — this sweep is the
  // executable form of that contract.
  struct Backend {
    const char* name;
    ConstraintKernel::Options options;
  };
  const Backend backends[] = {
      {"lemma-db", {/*memoize=*/true}},
      {"memoize-off", {/*memoize=*/false}},
  };
  for (const char* name : {"triangle.lcdb", "comb.lcdb", "intervals.lcdb",
                           "pentagon.lcdb", "wedge.lcdb"}) {
    SCOPED_TRACE(name);
    ConstraintDatabase db = Load(name);
    auto ext = MakeArrangementExtension(db);
    for (const std::string& text : QueriesForArity(db.arity())) {
      SCOPED_TRACE(text);
      auto query = ParseQuery(text, db.relation_name());
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      std::string tree_oracle;
      std::string vm_oracle;
      for (const Backend& backend : backends) {
        SCOPED_TRACE(backend.name);
        ConstraintKernel kernel(backend.options);
        ScopedKernel scope(kernel);
        Evaluator::Stats tree_traffic, vm_traffic;
        const std::string tree = AnswerVia(*ext, **query, true, true, false,
                                           nullptr, &tree_traffic);
        const std::string vm = AnswerVia(*ext, **query, true, true, true,
                                         nullptr, &vm_traffic);
        EXPECT_EQ(tree, vm);
        ExpectSameKernelTraffic(tree_traffic, vm_traffic, text);
        if (tree_oracle.empty()) {
          tree_oracle = tree;
          vm_oracle = vm;
        } else {
          EXPECT_EQ(tree, tree_oracle);
          EXPECT_EQ(vm, vm_oracle);
        }
      }
    }
  }
}

TEST(PlanEquivalenceTest, InterruptResumeSweep) {
  // Checkpoint/resume equivalence (core/resume.h): interrupt the Kleene
  // loop at stage k via the fixpoint.stage failpoint, resume with the token
  // the failure Status carries, and require the final answer byte-identical
  // to an uninterrupted run — across every backend (legacy walk, plan tree,
  // bytecode VM) x kernel configuration (lemma DB, memoize-off) x
  // interrupt stage.
  struct Backend {
    const char* name;
    bool use_plan;
    bool use_bytecode;
  };
  const Backend backends[] = {
      {"legacy", false, false}, {"tree", true, false}, {"vm", true, true}};
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string text = RegionConnQueryText();
  auto query = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (const Backend& backend : backends) {
    SCOPED_TRACE(backend.name);
    for (bool memoize : {true, false}) {
      SCOPED_TRACE(memoize ? "lemma-db" : "memoize-off");
      ConstraintKernel::Options kernel_options;
      kernel_options.memoize = memoize;
      ConstraintKernel kernel(kernel_options);
      ScopedKernel scope(kernel);
      Evaluator::Options options;
      options.use_plan = backend.use_plan;
      options.use_bytecode = backend.use_bytecode;
      Evaluator reference_evaluator(*ext, options);
      auto reference = reference_evaluator.Evaluate(**query);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      for (uint64_t stage : {0u, 1u, 2u}) {
        SCOPED_TRACE("interrupt at stage " + std::to_string(stage));
        Evaluator evaluator(*ext, options);
        ArmFailpoint("fixpoint.stage", StatusCode::kResourceExhausted,
                     "injected stage interrupt", stage);
        auto interrupted = evaluator.Evaluate(**query);
        DisarmAllFailpoints();
        ASSERT_FALSE(interrupted.ok());
        ASSERT_TRUE(interrupted.status().IsResourceFailure());
        const uint64_t token = interrupted.status().resume_token();
        ASSERT_NE(token, 0u) << "resource failure carried no resume token";
        auto resumed = evaluator.Evaluate(**query, token);
        ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
        EXPECT_EQ(resumed->ToString(), reference->ToString());
        const Evaluator::Stats& s = evaluator.stats();
        EXPECT_GT(s.resume_fixpoints_resumed + s.resume_sets_restored, 0u)
            << "resume did not reuse the checkpoint";
      }
    }
  }
}

TEST(PlanEquivalenceTest, ResumeRestoresCompletedFixpoints) {
  // Interrupt *after* the left conjunct's fixpoint completed (the
  // closure.build site fires when the right conjunct's TC matrix starts):
  // the resumed run must restore the finished fixpoint set wholesale
  // instead of recomputing it.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string text =
      "(" + RegionConnQueryText() + ") & (" + RegionConnTcQueryText() + ")";
  auto query = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (bool use_bytecode : {false, true}) {
    SCOPED_TRACE(use_bytecode ? "vm" : "tree");
    Evaluator::Options options;
    options.use_bytecode = use_bytecode;
    Evaluator reference_evaluator(*ext, options);
    auto reference = reference_evaluator.Evaluate(**query);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    Evaluator evaluator(*ext, options);
    ArmFailpoint("closure.build", StatusCode::kDeadlineExceeded,
                 "injected post-fixpoint interrupt");
    auto interrupted = evaluator.Evaluate(**query);
    DisarmAllFailpoints();
    ASSERT_FALSE(interrupted.ok());
    const uint64_t token = interrupted.status().resume_token();
    ASSERT_NE(token, 0u);
    auto resumed = evaluator.Evaluate(**query, token);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->ToString(), reference->ToString());
    EXPECT_GT(evaluator.stats().resume_sets_restored, 0u);
  }
}

TEST(PlanEquivalenceTest, ResumeTokenValidation) {
  // Tokens are single-use, instance-scoped and query-bound: replay, cross-
  // query use and unknown tokens are clean argument errors.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(*ext, Evaluator::Options{});
  ArmFailpoint("fixpoint.stage", StatusCode::kResourceExhausted,
               "injected stage interrupt", 1);
  auto interrupted = evaluator.Evaluate(**query);
  DisarmAllFailpoints();
  ASSERT_FALSE(interrupted.ok());
  const uint64_t token = interrupted.status().resume_token();
  ASSERT_NE(token, 0u);

  // Wrong query: the fingerprint rejects and the token is consumed.
  auto other = ParseQuery("exists R . subset(R)", db.relation_name());
  ASSERT_TRUE(other.ok());
  auto mismatch = evaluator.Evaluate(**other, token);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  // Replay of the consumed token: unknown.
  auto replay = evaluator.Evaluate(**query, token);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
  // A token the evaluator never issued.
  auto unknown = evaluator.Evaluate(**query, token + 1234);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // Token 0 is a plain evaluation.
  auto plain = evaluator.Evaluate(**query, 0);
  EXPECT_TRUE(plain.ok()) << plain.status().ToString();
}

TEST(PlanEquivalenceTest, BytecodeRequiresOptimizedPlan) {
  // Lowering is defined over optimized plans only; the combination must be
  // a clean argument error, never a silent fallback to the tree walk.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery("exists y . (S(y) & y >= 0)", db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator::Options options;
  options.use_bytecode = true;
  options.optimize = false;
  Evaluator evaluator(*ext, options);
  auto answer = evaluator.Evaluate(**query);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(answer.status().message().find("optimized plan"),
            std::string::npos);
}

}  // namespace
}  // namespace lcdb
