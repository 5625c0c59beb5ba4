#ifndef LCDB_CORE_EVALUATOR_H_
#define LCDB_CORE_EVALUATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis_stats.h"
#include "analysis/verify_stats.h"
#include "core/ast.h"
#include "core/resume.h"
#include "core/typecheck.h"
#include "db/region_extension.h"
#include "engine/governor.h"
#include "engine/kernel_stats.h"
#include "engine/metrics.h"
#include "engine/trace.h"
#include "plan/plan_stats.h"
#include "qe/fourier_motzkin.h"

namespace lcdb {

struct CompiledPlan;
struct PlanCostReport;
struct QueryRecord;

/// Answer of a (possibly non-boolean) query: a quantifier-free DNF formula
/// over the query's free element variables — the closure property of
/// Section 2, made concrete. `free_vars[i]` names column i.
struct QueryAnswer {
  DnfFormula formula = DnfFormula::False(0);
  std::vector<std::string> free_vars;

  /// Exact-size: callers keep answers (per-round histories, logs), so the
  /// builder's growth slack is released.
  std::string ToString() const {
    std::string out = formula.ToString(free_vars);
    out.shrink_to_fit();
    return out;
  }
};

/// Evaluator for RegFO / RegLFP / RegIFP / RegPFP / RegTC / RegDTC queries
/// over a region extension. This is the proof of Theorem 4.3 (and the
/// fixed-point cases of Theorem 6.1) turned into an algorithm:
///
///  * element-sort subformulas are evaluated *symbolically*: each node
///    yields a quantifier-free DNF formula over the query's element
///    variables, and element quantifiers are discharged by Fourier-Motzkin
///    elimination;
///  * region quantifiers expand over the finite region sort;
///  * fixed points iterate over sets of region tuples (Kleene iteration;
///    PFP with cycle detection and the empty-result convention);
///  * TC/DTC build the edge relation over region tuples once per operator
///    and take (deterministic) reflexive-transitive closures;
///  * rBIT evaluates its body to a univariate formula, tests for a
///    singleton rational and reads bits of its numerator/denominator.
///
/// Memoization: subformulas that do not depend on any set variable are
/// cached per assignment of their free region variables — across fixed-point
/// iterations this is the difference between O(iterations * |Reg|^k) and
/// O(|Reg|^k) evaluations of the M-independent parts. It can be disabled
/// (Options::memoize) for the ablation benchmark.
class Evaluator {
 public:
  struct Options {
    /// Cache set-variable-independent subformula results.
    bool memoize = true;
    /// Safety bound on PFP iterations before declaring divergence.
    size_t max_pfp_iterations = 1u << 16;
    /// Cap on n^m tuple-space size for fixed points and TC.
    size_t max_tuple_space = 1u << 22;
    /// Evaluate through the compile -> optimize -> execute pipeline
    /// (plan/planner.h, plan/optimizer.h, plan/executor.h). When false the
    /// legacy single-pass tree walk is used instead; the two produce
    /// byte-identical answer formulas. The legacy walk stays: it evaluates
    /// tuple-at-a-time over named environments, sharing no executor code
    /// with the plan backends, and is the reference the equivalence tests
    /// compare them against.
    bool use_plan = true;
    /// Run the optimizer's pass pipeline over the compiled plan. Only
    /// meaningful with use_plan; disabling it also disables all subformula
    /// caching, because caching decisions are a pass (MarkCacheable) — this
    /// is the ablation EXPERIMENTS.md's optimizer-telemetry row measures.
    bool optimize = true;
    /// Execute through the register bytecode VM (plan/bytecode.h, plan/vm.h)
    /// instead of the tree-walking PlanExecutor: the optimized plan is
    /// flattened to fixed-width instructions. Answer formulas, memo
    /// behaviour, governor checkpoint cadence, kernel query counts and
    /// op.*/trace telemetry are byte-identical to the tree walk (the
    /// equivalence tests sweep both). Requires optimize=true — lowering is
    /// defined over optimized plans only, and Evaluate fails with
    /// kInvalidArgument on the combination use_bytecode && !optimize.
    bool use_bytecode = false;
    /// Checkpoint fixpoint progress (core/resume.h) so a resource failure
    /// returns a Status carrying a resume token and Evaluate(query, token)
    /// continues from the saved stage. The never-tripped cost is one
    /// thread-local read plus a map lookup per fixpoint/closure operator
    /// (BM_ResumeVsRecompute bounds it under 2%); the off switch exists for
    /// that ablation.
    bool capture_resume = true;
    /// Tier-3 static verification (analysis/plan_verify.h,
    /// analysis/bytecode_verify.h): the compiled plan is checked after the
    /// optimizer pipeline (after BuildPlan when optimization is off), and
    /// lowered bytecode is checked before the VM will run it. A violation
    /// surfaces as a clean LCDB012 kInternal Status instead of undefined
    /// executor behaviour. The off switch exists for the BM_VerifyOverhead
    /// ablation (tax bounded under 2%).
    bool verify = true;
  };

  struct Stats {
    size_t node_evaluations = 0;
    size_t bool_evaluations = 0;
    size_t memo_hits = 0;
    size_t fixpoint_iterations = 0;
    /// Tuples the fixpoint stages changed, summed over stages (the per-stage
    /// deltas of the set-at-a-time engine, plan/region_relations.h).
    size_t fixpoint_delta_tuples = 0;
    /// 64-bit word operations the set-at-a-time engine performed on its
    /// bitset relations (its unit of work, as bool_evaluations is the tree
    /// walk's).
    size_t relation_word_ops = 0;
    size_t fixpoints_computed = 0;
    size_t closures_computed = 0;
    size_t qe_eliminations = 0;
    size_t region_expansions = 0;
    /// Constraint-kernel telemetry attributed to this evaluator: the delta
    /// of CurrentKernel()'s counters accumulated over Evaluate /
    /// EvaluateSentence calls (oracle decisions, cache hits, simplex work).
    KernelStats kernel;
    /// Feasibility questions issued while computing fixpoint sets and
    /// TC/DTC closure matrices (subsets of `kernel.feasibility_queries`) —
    /// the oracle-decision counts Theorems 6.1/7.3 bound.
    size_t fixpoint_feasibility_queries = 0;
    size_t closure_feasibility_queries = 0;
    /// Resource-governance telemetry of the most recent Evaluate call:
    /// checkpoints passed, deadline reads, and — after a failed query —
    /// which budget tripped. All zeros when the query ran ungoverned.
    GovernorStats governor;
    /// Optimizer pass counters of the most recent compilation (plan mode).
    PlanPassStats plan;
    /// Static-analyzer telemetry of the most recent Evaluate/Explain call
    /// (diagnostic counts by severity, guard classification work).
    AnalysisStats analysis;
    /// Bytecode-VM telemetry of the most recent Evaluate call (instruction
    /// count, program shape). All zeros when the tree backend ran; reset at
    /// each Evaluate entry.
    VmStats vm;
    /// Tier-3 static-verifier telemetry (analysis/verify_stats.h) of the
    /// most recent Evaluate call: plans/programs verified, dataflow
    /// coverage, and the proved facts the tier-2 analyzer tightens on.
    /// Reset at each Evaluate entry like vm.
    VerifyStats verify;
    /// Tier-2 cost-analyzer aggregates of the most recent compile
    /// (analysis/plan_cost.h). Zeros when optimization was off.
    PlanCostStats plan_cost;
    /// Checkpoint/resume telemetry (core/resume.h), cumulative like the
    /// counters above: completed fixpoint/closure sets reused from a resume
    /// token, in-progress Kleene loops continued mid-iteration, and the
    /// total stage transitions those continuations did not recompute.
    size_t resume_sets_restored = 0;
    size_t resume_fixpoints_resumed = 0;
    size_t resume_stages_skipped = 0;
    /// Completed spans the installed tracer's bounded ring evicted during
    /// this evaluator's queries (exported as trace.spans_dropped). Nonzero
    /// means tail-latency attribution from the trace is incomplete.
    size_t trace_spans_dropped = 0;

    /// Unified named view over all the telemetry above: the evaluator's own
    /// counters as `evaluator.*` plus the kernel.*, governor.*, plan.* and
    /// op.* families (engine/metrics.h). Every exporter — `lcdbq --stats`,
    /// the bench harness JSON, tests — reads this one flat namespace.
    MetricsSnapshot ToMetrics() const;
    /// Flat metrics JSON of ToMetrics() (the schema CI validates).
    std::string ToJson() const;
  };

  explicit Evaluator(const RegionExtension& extension);
  Evaluator(const RegionExtension& extension, Options options);

  /// Attaches the query source text, so analyzer diagnostics carried by a
  /// rejection Status render with the offending line and a caret run under
  /// the span. Optional — without it diagnostics degrade to span-less
  /// messages. EvaluateQueryText / EvaluateSentenceText attach automatically.
  void AttachSource(std::string source) { source_ = std::move(source); }

  /// Evaluates a well-formed query (no free region or set variables);
  /// type-checks first. The answer formula ranges over the free element
  /// variables in first-appearance order.
  Result<QueryAnswer> Evaluate(const FormulaNode& query);

  /// Resume continuation: re-evaluates `query` seeded with the checkpoint a
  /// prior resource failure left behind (Status::resume_token), skipping
  /// every completed fixpoint stage instead of recomputing it. The final
  /// answer is byte-identical to an uninterrupted run. Tokens are
  /// single-use, bound to this evaluator instance, and validated against
  /// the query text and backend options that produced them (kInvalidArgument
  /// on mismatch, or on an unknown/expired token). Token 0 degrades to a
  /// plain Evaluate.
  Result<QueryAnswer> Evaluate(const FormulaNode& query,
                               uint64_t resume_token);

  /// Evaluates a sentence (no free variables at all) to its truth value.
  /// A nonzero `resume_token` continues from a saved checkpoint, as in
  /// Evaluate(query, token).
  Result<bool> EvaluateSentence(const FormulaNode& query,
                                uint64_t resume_token = 0);

  /// Compiles (and, per Options::optimize, optimizes) the query and returns
  /// the plan rendered as an annotated tree plus the optimizer's pass
  /// counters, without executing it (`lcdbq --explain`).
  Result<std::string> Explain(const FormulaNode& query);

  /// EXPLAIN ANALYZE: compiles, optimizes and *executes* the query through
  /// the plan pipeline (regardless of Options::use_plan — the profile is a
  /// plan-level artifact), returning the plan tree annotated per node with
  /// measured execution — calls, inclusive wall-clock, kernel decisions and
  /// cache hits, executor memo hits, governor checkpoints and result
  /// cardinality — plus pass-counter / kernel / governor footer lines.
  /// Stats settle exactly as in Evaluate.
  Result<std::string> ExplainAnalyze(const FormulaNode& query);

  /// Compiles and optimizes the query, lowers the optimized plan to
  /// register bytecode and returns the disassembled program — procedures,
  /// instructions with slot names and memo keys — without executing it
  /// (`lcdbq --explain-bytecode`). Fails with kInvalidArgument when
  /// Options::optimize is off, like evaluation under use_bytecode.
  Result<std::string> ExplainBytecode(const FormulaNode& query);

  const Stats& stats() const { return stats_; }
  const RegionExtension& extension() const { return ext_; }

  const Options& options() const { return options_; }

 private:
  using RegionEnv = std::map<std::string, size_t>;
  using Tuple = std::vector<size_t>;
  using TupleSet = std::set<Tuple>;
  /// A set-variable binding: the current stage's tuple set plus a version
  /// stamp that changes whenever the stage changes, so memoized results of
  /// set-dependent subformulas are keyed by stage (Options::memoize).
  struct TupleSetBinding {
    const TupleSet* tuples = nullptr;
    size_t version = 0;
  };
  using SetEnv = std::map<std::string, TupleSetBinding>;

  /// Shared engine of Evaluate and ExplainAnalyze: the full pipeline with
  /// optional per-plan-node profiling. When `plan_out` is non-null the
  /// compiled plan is copied out (it owns the nodes the profile's keys point
  /// at) and the plan pipeline runs regardless of Options::use_plan. A
  /// nonzero `resume_token` seeds execution with a saved checkpoint.
  Result<QueryAnswer> EvaluateImpl(const FormulaNode& query,
                                   PlanProfile* profile,
                                   CompiledPlan* plan_out,
                                   uint64_t resume_token = 0);

  /// The plan half of the compile pipeline that Evaluate, Explain and
  /// ExplainBytecode share: build, then optimize and cost (per
  /// Options::optimize), then verify (per Options::verify). Resets and
  /// refills stats_.plan, plan_cost and verify; a non-null `record` gets
  /// the plan_build and plan_optimize phases from the spans. Returns the
  /// plan verifier's verdict.
  Status CompilePlan(const FormulaNode& query, const TypeInfo& info,
                     CompiledPlan* plan, PlanCostReport* cost,
                     QueryRecord* record);

  /// The pipeline Explain and ExplainBytecode share: typecheck, tuple-space
  /// check, the mandatory analysis and CompilePlan, inside the window whose
  /// kernel and governor work settles into stats_; `render` turns the
  /// verified plan into the listing.
  using PlanRenderer = std::function<Result<std::string>(
      const CompiledPlan& plan, const PlanCostReport& cost)>;
  Result<std::string> CompileAndRender(const FormulaNode& query,
                                       const PlanRenderer& render);

  /// Settles ambient per-query telemetry into stats_: the kernel delta
  /// since `kernel_before` and the installed governor's counters. When
  /// `span` is non-null, the lemma-database share of the delta is emitted
  /// as counters on that span (the evaluate span in EvaluateImpl).
  void SettleAmbient(const KernelStats& kernel_before,
                     TraceSpan* span = nullptr);

  // Core symbolic recursion (evaluator.cc).
  DnfFormula Eval(const FormulaNode& node, RegionEnv& renv, SetEnv& senv);
  DnfFormula EvalUncached(const FormulaNode& node, RegionEnv& renv,
                          SetEnv& senv);
  /// Fast path for subformulas without free element variables.
  bool EvalBool(const FormulaNode& node, RegionEnv& renv, SetEnv& senv);
  bool EvalBoolUncached(const FormulaNode& node, RegionEnv& renv,
                        SetEnv& senv);

  /// Ground truth of atoms given a region environment.
  bool EvalRegionAtom(const FormulaNode& node, RegionEnv& renv,
                      SetEnv& senv);

  /// Column index of an element variable.
  size_t Column(const std::string& name) const;
  /// The affine substitution map turning a d-tuple of terms into columns.
  std::vector<AffineExpr> TermSubstitution(
      const std::vector<ElementTerm>& terms) const;
  /// Memo key: values of the node's free region variables, name-sorted.
  bool MemoKey(const FormulaNode& node, const RegionEnv& renv,
               const SetEnv& senv, Tuple* key) const;

  // Fixed points (fixpoint.cc).
  const TupleSet& FixpointSet(const FormulaNode& node);

  // Transitive closures (transitive_closure.cc).
  /// Reachability bitmap of the (deterministic) reflexive-transitive
  /// closure for a TC/DTC node; indexed [from][to] over tuple indices.
  const std::vector<std::vector<bool>>& ClosureMatrix(const FormulaNode& node);
  size_t TupleIndex(const Tuple& tuple) const;

  // rBIT (rbit.cc).
  bool EvalRbit(const FormulaNode& node, RegionEnv& renv, SetEnv& senv);

  const RegionExtension& ext_;
  Options options_;
  Stats stats_;
  std::string source_;  // query text for diagnostic rendering (may be empty)
  const TypeInfo* info_ = nullptr;  // valid during Evaluate
  size_t num_columns_ = 0;

  std::map<const FormulaNode*, std::map<Tuple, DnfFormula>> memo_;
  std::map<const FormulaNode*, std::map<Tuple, bool>> bool_memo_;
  std::map<const FormulaNode*, TupleSet> fixpoint_cache_;
  size_t set_version_counter_ = 0;
  std::map<const FormulaNode*, std::vector<std::vector<bool>>> closure_cache_;

  /// Checkpoints stashed by interrupted Evaluate calls, keyed by the token
  /// carried on the failure Status. `fingerprint` pins the query text and
  /// the site-numbering-relevant options, so a token cannot replay against
  /// a different query or backend. Bounded (oldest evicted) and single-use.
  struct StoredResumeState {
    uint64_t fingerprint = 0;
    ResumeState state;
  };
  static constexpr size_t kMaxStoredResumeStates = 4;
  uint64_t ResumeFingerprint(const FormulaNode& query) const;
  std::map<uint64_t, StoredResumeState> resume_states_;
  uint64_t next_resume_token_ = 0;
};

/// Convenience: parse + evaluate in one step (used by examples and tests).
Result<QueryAnswer> EvaluateQueryText(const RegionExtension& extension,
                                      std::string_view query_text,
                                      Evaluator::Options options = {});
Result<bool> EvaluateSentenceText(const RegionExtension& extension,
                                  std::string_view query_text,
                                  Evaluator::Options options = {});

}  // namespace lcdb

#endif  // LCDB_CORE_EVALUATOR_H_
