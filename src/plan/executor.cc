#include "plan/executor.h"

#include <string>

#include "engine/governor.h"
#include "geometry/convex_closure.h"
#include "plan/op_timer.h"
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
      num_columns_(plan.num_columns) {}

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
    RegionEnv renv;
    SetEnv senv;
    return Eval(*plan_.root, renv, senv);
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
    relations_ = std::make_unique<RegionRelationEngine>(ext_, options_, stats_,
                                                        profile_, leaves);
  }
  return *relations_;
}

bool PlanExecutor::EvalOpaqueLeaf(const PlanNode& leaf,
                                  const std::vector<size_t>& values,
                                  const RegionRelation* stage,
                                  size_t stage_version) {
  RegionEnv renv;
  for (size_t i = 0; i < values.size(); ++i) {
    renv.emplace(leaf.free_region[i], values[i]);
  }
  SetEnv senv;
  if (stage != nullptr) {
    senv.emplace(leaf.free_sets[0], SetBinding{stage, stage_version});
  }
  return EvalBool(leaf, renv, senv);
}

bool PlanExecutor::CacheKey(const PlanNode& node, const RegionEnv& renv,
                            const SetEnv& senv, Tuple* key) const {
  key->clear();
  for (const std::string& r : node.free_region) {  // name-sorted
    auto it = renv.find(r);
    LCDB_CHECK(it != renv.end());
    key->push_back(it->second);
  }
  // Set-dependent results are cached per fixpoint *stage* via the binding's
  // version stamp.
  for (const std::string& m : node.free_sets) {
    key->push_back(senv.at(m).version);
  }
  return true;
}

DnfFormula PlanExecutor::Eval(const PlanNode& node, RegionEnv& renv,
                              SetEnv& senv) {
  // Cancellation point per plan node — in particular one per region-
  // quantifier expansion step, the executor's widest loops.
  GovernorCheckpoint();
  ++stats_->node_evaluations;
  if (profile_ != nullptr) ++(*profile_)[&node].calls;
  Tuple key;
  const bool cacheable = options_.memoize &&
                         node.cache == CachePolicy::kByRegionKey &&
                         CacheKey(node, renv, senv, &key);
  if (cacheable) {
    auto& per_node = memo_[&node];
    auto it = per_node.find(key);
    if (it != per_node.end()) {
      ++stats_->memo_hits;
      if (profile_ != nullptr) ++(*profile_)[&node].memo_hits;
      if (IsTimedPlanOp(node.op)) {
        ++stats_->op_timings[PlanOpName(node.op)].memo_hits;
      }
      return it->second;
    }
  }
  DnfFormula result =
      profile_ == nullptr
          ? EvalUncached(node, renv, senv)
          : Profiled(node, [&] { return EvalUncached(node, renv, senv); });
  if (profile_ != nullptr) {
    (*profile_)[&node].rows = result.disjuncts().size();
  }
  if (cacheable) memo_[&node].emplace(std::move(key), result);
  return result;
}

DnfFormula PlanExecutor::EvalUncached(const PlanNode& node, RegionEnv& renv,
                                      SetEnv& senv) {
  const size_t m = num_columns_;
  switch (node.op) {
    case PlanOp::kConstFormula:
      return *node.const_formula;
    case PlanOp::kInRegion: {
      const Conjunction& region =
          ext_.RegionFormula(renv.at(node.region_args[0]));
      DnfFormula region_formula(region.num_vars(), {region});
      return region_formula.Substitute(node.subst, m);
    }
    case PlanOp::kLiftBool:
      return EvalBool(*node.children[0], renv, senv) ? DnfFormula::True(m)
                                                     : DnfFormula::False(m);
    case PlanOp::kNegateSym:
      return Eval(*node.children[0], renv, senv).Negate();
    case PlanOp::kAndSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyFalse()) return a;
      return a.And(Eval(*node.children[1], renv, senv));
    }
    case PlanOp::kOrSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyTrue()) return a;
      return a.Or(Eval(*node.children[1], renv, senv));
    }
    case PlanOp::kImpliesSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyFalse()) return DnfFormula::True(m);
      return a.Negate().Or(Eval(*node.children[1], renv, senv));
    }
    case PlanOp::kIffSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      DnfFormula b = Eval(*node.children[1], renv, senv);
      return a.And(b).Or(a.Negate().And(b.Negate()));
    }
    case PlanOp::kHull: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      DnfFormula body = Eval(*node.children[0], renv, senv);
      DnfFormula projected = body.Substitute(node.hull_project,
                                             node.hull_arity);
      Result<DnfFormula> hull = ConvexClosure(projected);
      LCDB_CHECK_MSG(hull.ok(), "convex closure failed");
      return hull->Substitute(node.subst, m);
    }
    case PlanOp::kExistsElim: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->qe_eliminations;
      return ExistsVariable(Eval(*node.children[0], renv, senv), node.column);
    }
    case PlanOp::kForallElim: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->qe_eliminations;
      return ForallVariable(Eval(*node.children[0], renv, senv), node.column);
    }
    case PlanOp::kExpandExists: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->region_expansions;
      DnfFormula acc = DnfFormula::False(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        renv[node.region_var] = r;
        acc = acc.Or(Eval(*node.children[0], renv, senv));
        if (acc.IsSyntacticallyTrue()) break;
      }
      renv.erase(node.region_var);
      return acc;
    }
    case PlanOp::kExpandForall: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->region_expansions;
      DnfFormula acc = DnfFormula::True(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        renv[node.region_var] = r;
        acc = acc.And(Eval(*node.children[0], renv, senv));
        if (acc.IsSyntacticallyFalse()) break;
      }
      renv.erase(node.region_var);
      return acc;
    }
    default:
      LCDB_CHECK_MSG(false, "boolean operator in symbolic context");
      return DnfFormula::False(m);
  }
}

bool PlanExecutor::EvalBool(const PlanNode& node, RegionEnv& renv,
                            SetEnv& senv) {
  GovernorCheckpoint();
  ++stats_->bool_evaluations;
  if (profile_ != nullptr) ++(*profile_)[&node].calls;
  Tuple key;
  const bool cacheable = options_.memoize &&
                         node.cache == CachePolicy::kByRegionKey &&
                         CacheKey(node, renv, senv, &key);
  if (cacheable) {
    auto& per_node = bool_memo_[&node];
    auto it = per_node.find(key);
    if (it != per_node.end()) {
      ++stats_->memo_hits;
      if (profile_ != nullptr) ++(*profile_)[&node].memo_hits;
      if (IsTimedPlanOp(node.op)) {
        ++stats_->op_timings[PlanOpName(node.op)].memo_hits;
      }
      return it->second;
    }
  }
  const bool result =
      profile_ == nullptr
          ? EvalBoolUncached(node, renv, senv)
          : Profiled(node, [&] { return EvalBoolUncached(node, renv, senv); });
  if (profile_ != nullptr) {
    (*profile_)[&node].rows = result ? 1 : 0;
  }
  if (cacheable) bool_memo_[&node].emplace(std::move(key), result);
  return result;
}

bool PlanExecutor::EvalBoolUncached(const PlanNode& node, RegionEnv& renv,
                                    SetEnv& senv) {
  switch (node.op) {
    case PlanOp::kConstBool:
      return node.const_bool;
    case PlanOp::kNotBool:
      return !EvalBool(*node.children[0], renv, senv);
    case PlanOp::kAndBool:
      return EvalBool(*node.children[0], renv, senv) &&
             EvalBool(*node.children[1], renv, senv);
    case PlanOp::kOrBool:
      return EvalBool(*node.children[0], renv, senv) ||
             EvalBool(*node.children[1], renv, senv);
    case PlanOp::kImpliesBool:
      return !EvalBool(*node.children[0], renv, senv) ||
             EvalBool(*node.children[1], renv, senv);
    case PlanOp::kIffBool:
      return EvalBool(*node.children[0], renv, senv) ==
             EvalBool(*node.children[1], renv, senv);
    case PlanOp::kAnyRegion: {
      ++stats_->region_expansions;
      bool found = false;
      for (size_t r = 0; r < ext_.num_regions() && !found; ++r) {
        renv[node.region_var] = r;
        found = EvalBool(*node.children[0], renv, senv);
      }
      renv.erase(node.region_var);
      return found;
    }
    case PlanOp::kAllRegion: {
      ++stats_->region_expansions;
      bool holds = true;
      for (size_t r = 0; r < ext_.num_regions() && holds; ++r) {
        renv[node.region_var] = r;
        holds = EvalBool(*node.children[0], renv, senv);
      }
      renv.erase(node.region_var);
      return holds;
    }
    case PlanOp::kRegionAtom:
      return DecideRegionAtom(
          ext_, node, renv.at(node.region_args[0]),
          node.region_args.size() > 1 ? renv.at(node.region_args[1]) : 0);
    case PlanOp::kSetMember:
    case PlanOp::kFixpointMember:
    case PlanOp::kClosureMember: {
      // Bit tests: the set's current stage, or a relation the engine
      // computes once per query.
      Tuple tuple;
      for (const std::string& r : node.region_args) tuple.push_back(renv.at(r));
      for (const std::string& r : node.region_args2) {
        tuple.push_back(renv.at(r));
      }
      const RegionRelation& relation =
          node.op == PlanOp::kSetMember ? *senv.at(node.set_var).relation
          : node.op == PlanOp::kFixpointMember ? Relations().Fixpoint(node)
                                               : Relations().Closure(node);
      return relation.Test(tuple.data());
    }
    case PlanOp::kRbitMember: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      const DnfFormula body = Eval(*node.children[0], renv, senv);
      return DecideRbit(ext_, node, body, num_columns_,
                        renv.at(node.region_args[0]),
                        renv.at(node.region_args[1]));
    }
    case PlanOp::kNonEmpty:
      // Element-sort subtree in a boolean context: all element variables
      // inside are bound, so the child's formula is constant — test
      // emptiness, exactly as the legacy EvalBool fallthrough.
      return !Eval(*node.children[0], renv, senv).IsEmpty();
    default:
      LCDB_CHECK_MSG(false, "symbolic operator in boolean context");
      return false;
  }
}

}  // namespace lcdb
