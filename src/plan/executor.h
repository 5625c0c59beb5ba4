#ifndef LCDB_PLAN_EXECUTOR_H_
#define LCDB_PLAN_EXECUTOR_H_

#include <memory>

#include "core/evaluator.h"
#include "db/region_extension.h"
#include "plan/plan_ir.h"
#include "plan/region_relations.h"
#include "plan/slot_env.h"

namespace lcdb {

/// Executes a compiled (and usually optimized) plan against a region
/// extension. The executor is the *only* layer of the pipeline that touches
/// DnfFormula algebra, quantifier elimination and the constraint kernel;
/// the planner and optimizer only build and rewrite the operator DAG.
///
/// Its recursion reproduces the legacy Evaluator's algebra step for step
/// (same short-circuits, same accumulation order), so a plan executed
/// without optimization yields byte-identical answer formulas. Region and set
/// variables live in a SlotEnv indexed by the planner's slots. Caching
/// follows each node's CachePolicy — assigned by the optimizer's
/// MarkCacheable pass — through the PlanMemo the bytecode VM also uses.
///
/// Fixpoint and closure members are bit tests against relations computed
/// set-at-a-time by a RegionRelationEngine (plan/region_relations.h), the
/// implementation the bytecode VM shares; the engine calls back into this
/// executor only for opaque leaves of their bodies.
///
/// The executor is single-query: construct, call Run() once, read the
/// updated stats. Expensive operators (QE, region expansion, hull,
/// fixpoints, closures, rBIT) open a trace span per uncached execution
/// (AccountingOf, plan/plan_ir.h); per-operator time comes from those.
class PlanExecutor : private RegionLeafEvaluator {
 public:
  PlanExecutor(const CompiledPlan& plan, const RegionExtension& ext,
               const Evaluator::Options& options, Evaluator::Stats* stats);

  /// Evaluates the plan root symbolically; the result ranges over the
  /// plan's num_columns element columns.
  DnfFormula Run();

  /// Turns on per-plan-node profiling (EXPLAIN ANALYZE): every node
  /// evaluation records its inclusive wall-clock, kernel decisions, memo
  /// hits, governor checkpoints and result cardinality into `profile`.
  /// Must be called before Run(); `profile` must outlive the executor.
  /// Profiling perturbs only timings, never results.
  void EnableProfiling(PlanProfile* profile) {
    profile_ = profile;
    memo_.EnableProfiling(profile);
  }

 private:
  DnfFormula Eval(const PlanNode& node);
  DnfFormula EvalUncached(const PlanNode& node);
  bool EvalBool(const PlanNode& node);
  bool EvalBoolUncached(const PlanNode& node);

  /// Wraps one uncached evaluation in a NodeProfileBracket (profiling mode
  /// only).
  template <typename Fn>
  auto Profiled(const PlanNode& node, Fn&& eval);

  /// The fixpoint/closure engine, constructed on the first member site.
  RegionRelationEngine& Relations();
  bool EvalOpaqueLeaf(const PlanNode& leaf) override;

  const CompiledPlan& plan_;
  const RegionExtension& ext_;
  const Evaluator::Options& options_;
  Evaluator::Stats* stats_;
  PlanProfile* profile_ = nullptr;  ///< EXPLAIN ANALYZE sink, usually null
  size_t num_columns_;

  SlotEnv env_;
  PlanMemo memo_;
  std::unique_ptr<RegionRelationEngine> relations_;
};

}  // namespace lcdb

#endif  // LCDB_PLAN_EXECUTOR_H_
