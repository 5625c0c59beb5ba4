#include "plan/executor.h"

#include <vector>

#include "engine/governor.h"
#include "geometry/convex_closure.h"
#include "plan/node_accounting.h"
#include "qe/fourier_motzkin.h"
#include "util/failpoint.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

PlanExecutor::PlanExecutor(const CompiledPlan& plan,
                           const RegionExtension& ext,
                           const Evaluator::Options& options,
                           Evaluator::Stats* stats)
    : plan_(plan), ext_(ext), options_(options), stats_(stats),
      num_columns_(plan.num_columns), env_(plan), memo_(options, stats) {}

template <typename Fn>
auto PlanExecutor::Profiled(const PlanNode& node, Fn&& eval) {
  const NodeProfileBracket bracket;
  auto result = eval();
  bracket.Record((*profile_)[&node]);
  return result;
}

DnfFormula PlanExecutor::Run() {
  // Named injection site for the whole-plan path (failpoint_test.cc): fires
  // after compilation/optimization but before the first operator runs.
  LCDB_FAILPOINT("plan.execute");
  try {
    return Eval(*plan_.root);
  } catch (...) {
    // This executor dies with the unwind, so completed fixpoint/closure
    // entries must be harvested into the ambient resume collector here —
    // the Evaluate boundary only sees the evaluator's own (legacy) caches.
    if (relations_ != nullptr) relations_->HarvestResumeState();
    throw;
  }
}

RegionRelationEngine& PlanExecutor::Relations() {
  if (relations_ == nullptr) {
    RegionLeafEvaluator* leaves = this;
    relations_ = std::make_unique<RegionRelationEngine>(
        ext_, options_, stats_, profile_, &env_, leaves);
  }
  return *relations_;
}

bool PlanExecutor::EvalOpaqueLeaf(const PlanNode& leaf) {
  return EvalBool(leaf);
}

DnfFormula PlanExecutor::Eval(const PlanNode& node) {
  // Cancellation point per plan node — in particular one per region-
  // quantifier expansion step, the executor's widest loops.
  GovernorCheckpoint();
  ++stats_->node_evaluations;
  if (profile_ != nullptr) ++(*profile_)[&node].calls;
  PlanMemo::Key key;
  const bool cacheable = memo_.KeyOf(node, env_, &key);
  if (cacheable) {
    if (const DnfFormula* hit = memo_.Find<DnfFormula>(node, key)) return *hit;
  }
  DnfFormula result = profile_ == nullptr
                          ? EvalUncached(node)
                          : Profiled(node, [&] { return EvalUncached(node); });
  if (profile_ != nullptr) {
    (*profile_)[&node].rows = result.disjuncts().size();
  }
  if (cacheable) memo_.Store(node, std::move(key), result);
  return result;
}

DnfFormula PlanExecutor::EvalUncached(const PlanNode& node) {
  TraceSpan span(AccountOp(node.op, stats_));
  const size_t m = num_columns_;
  switch (node.op) {
    case PlanOp::kConstFormula:
      return *node.const_formula;
    case PlanOp::kInRegion: {
      const Conjunction& region =
          ext_.RegionFormula(env_.regions[node.region_args[0]]);
      DnfFormula region_formula(region.num_vars(), {region});
      return region_formula.Substitute(node.subst, m);
    }
    case PlanOp::kLiftBool:
      return EvalBool(*node.children[0]) ? DnfFormula::True(m)
                                         : DnfFormula::False(m);
    case PlanOp::kNegateSym:
      return Eval(*node.children[0]).Negate();
    case PlanOp::kAndSym: {
      DnfFormula a = Eval(*node.children[0]);
      if (a.IsSyntacticallyFalse()) return a;
      return a.And(Eval(*node.children[1]));
    }
    case PlanOp::kOrSym: {
      DnfFormula a = Eval(*node.children[0]);
      if (a.IsSyntacticallyTrue()) return a;
      return a.Or(Eval(*node.children[1]));
    }
    case PlanOp::kImpliesSym: {
      DnfFormula a = Eval(*node.children[0]);
      if (a.IsSyntacticallyFalse()) return DnfFormula::True(m);
      return a.Negate().Or(Eval(*node.children[1]));
    }
    case PlanOp::kIffSym: {
      DnfFormula a = Eval(*node.children[0]);
      DnfFormula b = Eval(*node.children[1]);
      return a.And(b).Or(a.Negate().And(b.Negate()));
    }
    case PlanOp::kHull: {
      DnfFormula body = Eval(*node.children[0]);
      DnfFormula projected = body.Substitute(node.hull_project,
                                             node.hull_arity);
      Result<DnfFormula> hull = ConvexClosure(projected);
      LCDB_CHECK_MSG(hull.ok(), "convex closure failed");
      return hull->Substitute(node.subst, m);
    }
    case PlanOp::kExistsElim:
      return ExistsVariable(Eval(*node.children[0]), node.column);
    case PlanOp::kForallElim:
      return ForallVariable(Eval(*node.children[0]), node.column);
    case PlanOp::kExpandExists: {
      DnfFormula acc = DnfFormula::False(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        env_.regions[node.region_var] = r;
        acc = acc.Or(Eval(*node.children[0]));
        if (acc.IsSyntacticallyTrue()) break;
      }
      return acc;
    }
    case PlanOp::kExpandForall: {
      DnfFormula acc = DnfFormula::True(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        env_.regions[node.region_var] = r;
        acc = acc.And(Eval(*node.children[0]));
        if (acc.IsSyntacticallyFalse()) break;
      }
      return acc;
    }
    default:
      LCDB_CHECK_MSG(false, "boolean operator in symbolic context");
      return DnfFormula::False(m);
  }
}

bool PlanExecutor::EvalBool(const PlanNode& node) {
  GovernorCheckpoint();
  ++stats_->bool_evaluations;
  if (profile_ != nullptr) ++(*profile_)[&node].calls;
  PlanMemo::Key key;
  const bool cacheable = memo_.KeyOf(node, env_, &key);
  if (cacheable) {
    if (const bool* hit = memo_.Find<bool>(node, key)) return *hit;
  }
  const bool result =
      profile_ == nullptr
          ? EvalBoolUncached(node)
          : Profiled(node, [&] { return EvalBoolUncached(node); });
  if (profile_ != nullptr) {
    (*profile_)[&node].rows = result ? 1 : 0;
  }
  if (cacheable) memo_.Store(node, std::move(key), result);
  return result;
}

bool PlanExecutor::EvalBoolUncached(const PlanNode& node) {
  TraceSpan span(AccountOp(node.op, stats_));
  switch (node.op) {
    case PlanOp::kConstBool:
      return node.const_bool;
    case PlanOp::kNotBool:
      return !EvalBool(*node.children[0]);
    case PlanOp::kAndBool:
      return EvalBool(*node.children[0]) && EvalBool(*node.children[1]);
    case PlanOp::kOrBool:
      return EvalBool(*node.children[0]) || EvalBool(*node.children[1]);
    case PlanOp::kImpliesBool:
      return !EvalBool(*node.children[0]) || EvalBool(*node.children[1]);
    case PlanOp::kIffBool:
      return EvalBool(*node.children[0]) == EvalBool(*node.children[1]);
    case PlanOp::kAnyRegion: {
      bool found = false;
      for (size_t r = 0; r < ext_.num_regions() && !found; ++r) {
        env_.regions[node.region_var] = r;
        found = EvalBool(*node.children[0]);
      }
      return found;
    }
    case PlanOp::kAllRegion: {
      bool holds = true;
      for (size_t r = 0; r < ext_.num_regions() && holds; ++r) {
        env_.regions[node.region_var] = r;
        holds = EvalBool(*node.children[0]);
      }
      return holds;
    }
    case PlanOp::kRegionAtom:
      return DecideRegionAtom(
          ext_, node, env_.regions[node.region_args[0]],
          node.region_args.size() > 1 ? env_.regions[node.region_args[1]]
                                      : 0);
    case PlanOp::kSetMember:
    case PlanOp::kFixpointMember:
    case PlanOp::kClosureMember: {
      // Bit tests: the set's current stage, or a relation the engine
      // computes once per query.
      std::vector<size_t> tuple;
      for (uint32_t r : node.region_args) tuple.push_back(env_.regions[r]);
      for (uint32_t r : node.region_args2) tuple.push_back(env_.regions[r]);
      const RegionRelation& relation =
          node.op == PlanOp::kSetMember ? *env_.sets[node.set_var].relation
          : node.op == PlanOp::kFixpointMember ? Relations().Fixpoint(node)
                                               : Relations().Closure(node);
      return relation.Test(tuple.data());
    }
    case PlanOp::kRbitMember: {
      const DnfFormula body = Eval(*node.children[0]);
      return DecideRbit(ext_, node, body, num_columns_,
                        env_.regions[node.region_args[0]],
                        env_.regions[node.region_args[1]]);
    }
    case PlanOp::kNonEmpty:
      // Element-sort subtree in a boolean context: all element variables
      // inside are bound, so the child's formula is constant — test
      // emptiness, exactly as the legacy EvalBool fallthrough.
      return !Eval(*node.children[0]).IsEmpty();
    default:
      LCDB_CHECK_MSG(false, "symbolic operator in boolean context");
      return false;
  }
}

}  // namespace lcdb
