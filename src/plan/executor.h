#ifndef LCDB_PLAN_EXECUTOR_H_
#define LCDB_PLAN_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "db/region_extension.h"
#include "plan/plan_ir.h"
#include "plan/region_relations.h"

namespace lcdb {

/// Executes a compiled (and usually optimized) plan against a region
/// extension. The executor is the *only* layer of the pipeline that touches
/// DnfFormula algebra, quantifier elimination and the constraint kernel;
/// the planner and optimizer only build and rewrite the operator DAG.
///
/// Its recursion reproduces the legacy Evaluator's algebra step for step
/// (same short-circuits, same accumulation order), so a plan executed
/// without optimization yields byte-identical answer formulas. Caching
/// follows each node's CachePolicy — assigned by the optimizer's
/// MarkCacheable pass — keyed by the values of the node's free region
/// variables plus the stage versions of its free set variables.
///
/// Fixpoint and closure members are bit tests against relations computed
/// set-at-a-time by a RegionRelationEngine (plan/region_relations.h), the
/// implementation the bytecode VM shares; the engine calls back into this
/// executor only for opaque leaves of their bodies.
///
/// The executor is single-query: construct, call Run() once, read the
/// updated stats. Expensive operators (QE, region expansion, hull,
/// fixpoints, closures, rBIT) report wall-clock per-operator timings into
/// Stats::op_timings.
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
  void EnableProfiling(PlanProfile* profile) { profile_ = profile; }

 private:
  using RegionEnv = std::map<std::string, size_t>;
  using Tuple = std::vector<size_t>;
  /// A set variable bound to the engine's current fixpoint stage; the
  /// version stamps memo keys of set-dependent nodes per stage.
  struct SetBinding {
    const RegionRelation* relation = nullptr;
    size_t version = 0;
  };
  using SetEnv = std::map<std::string, SetBinding>;

  DnfFormula Eval(const PlanNode& node, RegionEnv& renv, SetEnv& senv);
  DnfFormula EvalUncached(const PlanNode& node, RegionEnv& renv,
                          SetEnv& senv);
  bool EvalBool(const PlanNode& node, RegionEnv& renv, SetEnv& senv);
  bool EvalBoolUncached(const PlanNode& node, RegionEnv& renv, SetEnv& senv);

  /// Wraps one uncached evaluation in a NodeProfileBracket (profiling mode
  /// only).
  template <typename Fn>
  auto Profiled(const PlanNode& node, Fn&& eval);

  /// The fixpoint/closure engine, constructed on the first member site.
  RegionRelationEngine& Relations();
  bool EvalOpaqueLeaf(const PlanNode& leaf, const std::vector<size_t>& values,
                      const RegionRelation* stage,
                      size_t stage_version) override;

  /// Cache key under the node's CachePolicy: free-region values
  /// (name-sorted) then free-set stage versions.
  bool CacheKey(const PlanNode& node, const RegionEnv& renv,
                const SetEnv& senv, Tuple* key) const;

  const CompiledPlan& plan_;
  const RegionExtension& ext_;
  const Evaluator::Options& options_;
  Evaluator::Stats* stats_;
  PlanProfile* profile_ = nullptr;  ///< EXPLAIN ANALYZE sink, usually null
  size_t num_columns_;

  std::map<const PlanNode*, std::map<Tuple, DnfFormula>> memo_;
  std::map<const PlanNode*, std::map<Tuple, bool>> bool_memo_;
  std::unique_ptr<RegionRelationEngine> relations_;
};

}  // namespace lcdb

#endif  // LCDB_PLAN_EXECUTOR_H_
