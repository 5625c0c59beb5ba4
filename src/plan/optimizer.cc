#include "plan/optimizer.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "analysis/const_analysis.h"
#include "analysis/plan_verify.h"
#include "engine/trace.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

namespace {

// Constant classification lives in analysis/const_analysis.h, shared with
// the static analyzer so dead-branch pruning and vacuity diagnostics answer
// from one kernel-backed analysis.

class Optimizer {
 public:
  Optimizer(const CompiledPlan& plan, PlanPassStats* stats)
      : plan_(plan), n_(plan.num_regions), m_(plan.num_columns),
        stats_(stats) {}

  PlanPtr Run(PlanPtr root) {
    // Each pass gets its own trace span so EXPLAIN-style traces show where
    // compile time goes (folding dominates: it asks the kernel questions).
    root = Pass("pass.fold", [&](PlanPtr r) { return Fold(std::move(r)); },
                std::move(root));
    root = Pass("pass.narrow", [&](PlanPtr r) { return Narrow(std::move(r)); },
                std::move(root));
    // Narrowing rewrites symbolic connectives over constant formulas into
    // boolean connectives over constant bools; fold again to collapse them
    // (every fold is byte-safe, so re-running is free).
    root = Pass("pass.fold", [&](PlanPtr r) { return Fold(std::move(r)); },
                std::move(root));
    root = Pass("pass.reorder_quantifiers",
                [&](PlanPtr r) { return ReorderQuantifiers(std::move(r)); },
                std::move(root));
    root = Pass("pass.hoist", [&](PlanPtr r) { return Hoist(std::move(r)); },
                std::move(root));
    root = Pass("pass.order_conjuncts",
                [&](PlanPtr r) { return OrderConjuncts(std::move(r)); },
                std::move(root));
    root = Pass("pass.cse", [&](PlanPtr r) { return Cse(std::move(r)); },
                std::move(root));
    {
      TraceSpan span("pass.mark_cacheable");
      MarkCacheable(root.get());
    }
    return root;
  }

 private:
  template <typename Fn>
  PlanPtr Pass(const char* name, Fn&& fn, PlanPtr root) {
    TraceSpan span(name);
    root = fn(std::move(root));
#ifndef NDEBUG
    // Debug builds re-verify the plan between every pass so an invariant
    // break is pinned to the pass that introduced it, not discovered at
    // the post-pipeline gate with seven suspects.
    if (root != nullptr) {
      CompiledPlan rewritten = plan_;  // the slot tables; the root is in flight
      rewritten.root = root;
      if (Status verified = VerifyPlan(rewritten, name); !verified.ok()) {
        throw QueryInterrupt(verified);
      }
    }
#endif
    return root;
  }

  // ---- Node constructors. ----

  PlanPtr Derived(PlanPtr node) {
    DeriveAnnotations(node.get(), n_);
    return node;
  }

  PlanPtr ConstFormula(DnfFormula f) {
    auto out = std::make_shared<PlanNode>();
    out->op = PlanOp::kConstFormula;
    out->const_formula = std::move(f);
    return Derived(std::move(out));
  }

  PlanPtr ConstBool(bool value) {
    auto out = std::make_shared<PlanNode>();
    out->op = PlanOp::kConstBool;
    out->const_bool = value;
    return Derived(std::move(out));
  }

  PlanPtr MakeUnary(PlanOp op, PlanPtr child) {
    auto out = std::make_shared<PlanNode>();
    out->op = op;
    out->children.push_back(std::move(child));
    return Derived(std::move(out));
  }

  PlanPtr MakeBinary(PlanOp op, PlanPtr a, PlanPtr b) {
    auto out = std::make_shared<PlanNode>();
    out->op = op;
    out->children.push_back(std::move(a));
    out->children.push_back(std::move(b));
    return Derived(std::move(out));
  }

  PlanPtr MakeQuantifier(PlanOp op, uint32_t var, PlanPtr body) {
    auto out = std::make_shared<PlanNode>();
    out->op = op;
    out->region_var = var;
    out->children.push_back(std::move(body));
    return Derived(std::move(out));
  }

  /// Right-nested and-chain (the executor short-circuits left to right).
  PlanPtr BuildAnd(std::vector<PlanPtr> items) {
    LCDB_CHECK(!items.empty());
    PlanPtr out = items.back();
    for (size_t i = items.size() - 1; i-- > 0;) {
      out = MakeBinary(PlanOp::kAndBool, items[i], std::move(out));
    }
    return out;
  }

  // ---- Pass 1: constant folding / dead-branch pruning. ----
  //
  // Folds use the exact algebra the executor (and the legacy walk) would
  // apply, so every fold is representation-identical, not merely
  // equivalent. DnfFormula::And/Or/Negate consult the kernel's feasibility
  // oracle internally — an infeasible branch folds to the canonical
  // False(m) here, at compile time, and its siblings are pruned.

  PlanPtr Fold(PlanPtr node) {
    for (PlanPtr& child : node->children) child = Fold(std::move(child));
    DeriveAnnotations(node.get(), n_);
    const auto& c = node->children;
    switch (node->op) {
      case PlanOp::kNegateSym:
        if (IsConstFormula(*c[0])) {
          return Folded(ConstFormula(c[0]->const_formula->Negate()));
        }
        break;
      case PlanOp::kAndSym:
        if (IsConstFalseFormula(*c[0])) return Pruned(c[0]);
        if (IsConstFormula(*c[0]) && IsConstFormula(*c[1])) {
          return Folded(ConstFormula(
              c[0]->const_formula->And(*c[1]->const_formula)));
        }
        // A syntactically false right operand annihilates: the pairwise
        // product has no disjuncts whatever the left side evaluates to.
        if (IsConstFalseFormula(*c[1])) {
          return Pruned(ConstFormula(DnfFormula::False(m_)));
        }
        break;
      case PlanOp::kOrSym:
        if (IsConstTrueFormula(*c[0])) return Pruned(c[0]);
        if (IsConstFormula(*c[0]) && IsConstFormula(*c[1])) {
          return Folded(ConstFormula(
              c[0]->const_formula->Or(*c[1]->const_formula)));
        }
        break;
      case PlanOp::kImpliesSym:
        if (IsConstFalseFormula(*c[0])) {
          return Pruned(ConstFormula(DnfFormula::True(m_)));
        }
        if (IsConstFormula(*c[0]) && IsConstFormula(*c[1])) {
          return Folded(ConstFormula(
              c[0]->const_formula->Negate().Or(*c[1]->const_formula)));
        }
        break;
      case PlanOp::kIffSym:
        if (IsConstFormula(*c[0]) && IsConstFormula(*c[1])) {
          const DnfFormula& a = *c[0]->const_formula;
          const DnfFormula& b = *c[1]->const_formula;
          return Folded(
              ConstFormula(a.And(b).Or(a.Negate().And(b.Negate()))));
        }
        break;
      case PlanOp::kLiftBool:
        if (IsConstBool(*c[0])) {
          return Folded(ConstFormula(c[0]->const_bool
                                         ? DnfFormula::True(m_)
                                         : DnfFormula::False(m_)));
        }
        break;
      case PlanOp::kExpandExists:
        if (IsConstTrueFormula(*c[0])) {
          return Folded(ConstFormula(n_ > 0 ? DnfFormula::True(m_)
                                            : DnfFormula::False(m_)));
        }
        if (IsConstFalseFormula(*c[0])) {
          return Folded(ConstFormula(DnfFormula::False(m_)));
        }
        break;
      case PlanOp::kExpandForall:
        if (IsConstFalseFormula(*c[0])) {
          return Folded(ConstFormula(n_ > 0 ? DnfFormula::False(m_)
                                            : DnfFormula::True(m_)));
        }
        if (IsConstTrueFormula(*c[0])) {
          return Folded(ConstFormula(DnfFormula::True(m_)));
        }
        break;
      case PlanOp::kNotBool:
        if (IsConstBool(*c[0])) return Folded(ConstBool(!c[0]->const_bool));
        break;
      case PlanOp::kAndBool:
        if ((IsConstBool(*c[0]) && !c[0]->const_bool) ||
            (IsConstBool(*c[1]) && !c[1]->const_bool)) {
          return Pruned(ConstBool(false));
        }
        if (IsConstBool(*c[0])) return Folded(c[1]);
        if (IsConstBool(*c[1])) return Folded(c[0]);
        break;
      case PlanOp::kOrBool:
        if ((IsConstBool(*c[0]) && c[0]->const_bool) ||
            (IsConstBool(*c[1]) && c[1]->const_bool)) {
          return Pruned(ConstBool(true));
        }
        if (IsConstBool(*c[0])) return Folded(c[1]);
        if (IsConstBool(*c[1])) return Folded(c[0]);
        break;
      case PlanOp::kImpliesBool:
        if (IsConstBool(*c[0])) {
          return c[0]->const_bool ? Folded(c[1]) : Pruned(ConstBool(true));
        }
        if (IsConstBool(*c[1])) {
          return c[1]->const_bool
                     ? Pruned(ConstBool(true))
                     : Folded(MakeUnary(PlanOp::kNotBool, c[0]));
        }
        break;
      case PlanOp::kIffBool:
        if (IsConstBool(*c[0]) && IsConstBool(*c[1])) {
          return Folded(ConstBool(c[0]->const_bool == c[1]->const_bool));
        }
        if (IsConstBool(*c[0])) {
          return Folded(c[0]->const_bool
                            ? c[1]
                            : MakeUnary(PlanOp::kNotBool, c[1]));
        }
        if (IsConstBool(*c[1])) {
          return Folded(c[1]->const_bool
                            ? c[0]
                            : MakeUnary(PlanOp::kNotBool, c[0]));
        }
        break;
      case PlanOp::kAnyRegion:
        if (IsConstBool(*c[0])) {
          return Folded(ConstBool(c[0]->const_bool && n_ > 0));
        }
        break;
      case PlanOp::kAllRegion:
        if (IsConstBool(*c[0])) {
          return Folded(ConstBool(c[0]->const_bool || n_ == 0));
        }
        break;
      case PlanOp::kNonEmpty:
        // Environment-independent emptiness, decided once by the shared
        // constant analysis (a cache hit when the analyzer already asked).
        if (IsConstFormula(*c[0])) {
          return Folded(
              ConstBool(!ConstFormulaProvablyEmpty(*c[0]->const_formula)));
        }
        break;
      default:
        break;
    }
    return node;
  }

  PlanPtr Folded(PlanPtr replacement) {
    ++stats_->folded_constants;
    return replacement;
  }

  PlanPtr Pruned(PlanPtr replacement) {
    ++stats_->pruned_branches;
    return replacement;
  }

  // ---- Pass 2: narrow region-pure symbolic subtrees to boolean mode. ----
  //
  // A region-pure symbolic subtree evaluates to exactly True(m)/False(m)
  // (region atoms produce the canonical constants and DnfFormula's algebra
  // is closed on them), so replacing it by a boolean lowering under one
  // lift_bool bridge leaves the answer formula unchanged while turning
  // symbolic Or/And accumulation into short-circuit loops.

  PlanPtr Narrow(PlanPtr node) {
    if (node->IsSymbolic() && node->region_pure &&
        node->op != PlanOp::kConstFormula && node->op != PlanOp::kLiftBool) {
      ++stats_->narrowed_subtrees;
      return Derived(MakeUnary(PlanOp::kLiftBool, ToBool(node)));
    }
    for (PlanPtr& child : node->children) child = Narrow(std::move(child));
    DeriveAnnotations(node.get(), n_);
    return node;
  }

  PlanPtr ToBool(const PlanPtr& node) {
    switch (node->op) {
      case PlanOp::kConstFormula:
        return ConstBool(node->const_formula->IsSyntacticallyTrue());
      case PlanOp::kLiftBool:
        return node->children[0];
      case PlanOp::kNegateSym:
        return MakeUnary(PlanOp::kNotBool, ToBool(node->children[0]));
      case PlanOp::kAndSym:
        return MakeBinary(PlanOp::kAndBool, ToBool(node->children[0]),
                          ToBool(node->children[1]));
      case PlanOp::kOrSym:
        return MakeBinary(PlanOp::kOrBool, ToBool(node->children[0]),
                          ToBool(node->children[1]));
      case PlanOp::kImpliesSym:
        return MakeBinary(PlanOp::kImpliesBool, ToBool(node->children[0]),
                          ToBool(node->children[1]));
      case PlanOp::kIffSym:
        return MakeBinary(PlanOp::kIffBool, ToBool(node->children[0]),
                          ToBool(node->children[1]));
      case PlanOp::kExpandExists:
      case PlanOp::kExpandForall:
        return MakeQuantifier(node->op == PlanOp::kExpandExists
                                  ? PlanOp::kAnyRegion
                                  : PlanOp::kAllRegion,
                              node->region_var, ToBool(node->children[0]));
      default:
        LCDB_CHECK_MSG(false, "non-pure operator in region-pure subtree");
        return nullptr;
    }
  }

  // ---- Pass 3: reorder same-polarity boolean region-quantifier chains. ----

  /// Flattens a right- or left-nested chain of `op` into operand order.
  static void FlattenChain(const PlanPtr& node, PlanOp op,
                           std::vector<PlanPtr>* out) {
    if (node->op == op) {
      FlattenChain(node->children[0], op, out);
      FlattenChain(node->children[1], op, out);
    } else {
      out->push_back(node);
    }
  }

  static void FlattenChainConst(const PlanNode& node, PlanOp op,
                                std::vector<const PlanNode*>* out) {
    if (node.op == op) {
      FlattenChainConst(*node.children[0], op, out);
      FlattenChainConst(*node.children[1], op, out);
    } else {
      out->push_back(&node);
    }
  }

  static int CostClass(const PlanNode& node) {
    switch (node.op) {
      case PlanOp::kConstBool:
        return 0;
      case PlanOp::kRegionAtom:
      case PlanOp::kSetMember:
        return 1;
      case PlanOp::kNotBool:
        return CostClass(*node.children[0]);
      case PlanOp::kAndBool:
      case PlanOp::kOrBool:
      case PlanOp::kImpliesBool:
      case PlanOp::kIffBool: {
        int worst = 0;
        for (const PlanPtr& c : node.children) {
          worst = std::max(worst, CostClass(*c));
        }
        return worst;
      }
      case PlanOp::kAnyRegion:
      case PlanOp::kAllRegion:
        return 4;
      case PlanOp::kNonEmpty:
        return 5;
      case PlanOp::kFixpointMember:
      case PlanOp::kClosureMember:
      case PlanOp::kRbitMember:
        return 6;
      default:
        return 5;  // symbolic operand reached through lift_bool etc.
    }
  }

  /// Single-variable cheap guards on `var` among the chain body's top-level
  /// conjuncts — the estimated-fan-out heuristic's selectivity signal: a
  /// guarded variable's effective fan-out is below |Reg|, so it loops
  /// outermost.
  static size_t GuardCount(const PlanNode& body, uint32_t var) {
    const PlanNode* scan = &body;
    if (scan->op == PlanOp::kImpliesBool) scan = scan->children[0].get();
    std::vector<const PlanNode*> conjuncts;
    if (scan->op == PlanOp::kAndBool) {
      FlattenChainConst(*scan, PlanOp::kAndBool, &conjuncts);
    } else {
      conjuncts.push_back(scan);
    }
    size_t count = 0;
    for (const PlanNode* conj : conjuncts) {
      if (CostClass(*conj) <= 1 && conj->free_region.size() == 1 &&
          conj->free_region[0] == var) {
        ++count;
      }
    }
    return count;
  }

  PlanPtr ReorderQuantifiers(PlanPtr node) {
    if ((node->op == PlanOp::kAnyRegion || node->op == PlanOp::kAllRegion) &&
        node->children[0]->op == node->op) {
      // Collect the directly-nested chain.
      std::vector<PlanNode*> chain;
      PlanNode* cursor = node.get();
      while (cursor->op == node->op) {
        chain.push_back(cursor);
        if (cursor->children[0]->op != node->op) break;
        cursor = cursor->children[0].get();
      }
      const PlanNode& body = *chain.back()->children[0];
      std::vector<uint32_t> vars;
      vars.reserve(chain.size());
      for (PlanNode* q : chain) vars.push_back(q->region_var);
      std::vector<uint32_t> ordered = vars;
      std::stable_sort(ordered.begin(), ordered.end(),
                       [&](uint32_t a, uint32_t b) {
                         return GuardCount(body, a) > GuardCount(body, b);
                       });
      if (ordered != vars) {
        ++stats_->reordered_quantifiers;
        for (size_t i = 0; i < chain.size(); ++i) {
          chain[i]->region_var = ordered[i];
        }
        // Free-variable sets of the links changed; rebuild inside out.
        for (size_t i = chain.size(); i-- > 0;) {
          DeriveAnnotations(chain[i], n_);
        }
      }
    }
    for (PlanPtr& child : node->children) {
      child = ReorderQuantifiers(std::move(child));
    }
    DeriveAnnotations(node.get(), n_);
    return node;
  }

  // ---- Pass 4: hoist loop-invariant conjuncts out of region loops. ----

  PlanPtr Hoist(PlanPtr node) {
    for (PlanPtr& child : node->children) child = Hoist(std::move(child));
    DeriveAnnotations(node.get(), n_);
    if (node->op != PlanOp::kAnyRegion && node->op != PlanOp::kAllRegion) {
      return node;
    }
    const uint32_t var = node->region_var;
    const PlanPtr& body = node->children[0];

    auto mentions = [&](const PlanPtr& c) {
      return std::binary_search(c->free_region.begin(), c->free_region.end(),
                                var);
    };

    // forall X (inv & dep -> rhs)  ==>  inv -> forall X (dep -> rhs).
    // Valid for every |Reg| (an empty loop makes both sides true).
    if (node->op == PlanOp::kAllRegion &&
        body->op == PlanOp::kImpliesBool) {
      std::vector<PlanPtr> guard, inv, dep;
      FlattenChain(body->children[0], PlanOp::kAndBool, &guard);
      for (const PlanPtr& conj : guard) {
        (mentions(conj) ? dep : inv).push_back(conj);
      }
      if (!inv.empty()) {
        stats_->hoisted_invariants += inv.size();
        PlanPtr rest =
            dep.empty() ? body->children[1]
                        : MakeBinary(PlanOp::kImpliesBool, BuildAnd(dep),
                                     body->children[1]);
        PlanPtr loop = MakeQuantifier(node->op, var, std::move(rest));
        return MakeBinary(PlanOp::kImpliesBool, BuildAnd(inv),
                          std::move(loop));
      }
      return node;
    }

    // exists X (inv & dep)  ==>  inv & exists X dep  (any |Reg|);
    // forall X (inv & dep)  ==>  inv & forall X dep  (needs |Reg| >= 1).
    if (body->op == PlanOp::kAndBool &&
        (node->op == PlanOp::kAnyRegion || n_ >= 1)) {
      std::vector<PlanPtr> conjuncts, inv, dep;
      FlattenChain(body, PlanOp::kAndBool, &conjuncts);
      for (const PlanPtr& conj : conjuncts) {
        (mentions(conj) ? dep : inv).push_back(conj);
      }
      if (!inv.empty()) {
        stats_->hoisted_invariants += inv.size();
        PlanPtr loop;
        if (dep.empty()) {
          loop = ConstBool(node->op == PlanOp::kAllRegion || n_ > 0);
        } else {
          loop = MakeQuantifier(node->op, var, BuildAnd(dep));
        }
        inv.push_back(std::move(loop));
        return BuildAnd(std::move(inv));
      }
    }
    return node;
  }

  // ---- Pass 5: cheapest-first ordering of boolean and/or chains. ----

  PlanPtr OrderConjuncts(PlanPtr node) {
    if (node->op == PlanOp::kAndBool || node->op == PlanOp::kOrBool) {
      std::vector<PlanPtr> items;
      FlattenChain(node, node->op, &items);
      for (PlanPtr& item : items) item = OrderConjuncts(std::move(item));
      std::vector<PlanPtr> ordered = items;
      std::stable_sort(ordered.begin(), ordered.end(),
                       [](const PlanPtr& a, const PlanPtr& b) {
                         return CostClass(*a) < CostClass(*b);
                       });
      if (!std::equal(ordered.begin(), ordered.end(), items.begin())) {
        ++stats_->reordered_conjuncts;
      }
      PlanPtr out = ordered.back();
      for (size_t i = ordered.size() - 1; i-- > 0;) {
        out = MakeBinary(node->op, ordered[i], std::move(out));
      }
      return out;
    }
    for (PlanPtr& child : node->children) {
      child = OrderConjuncts(std::move(child));
    }
    DeriveAnnotations(node.get(), n_);
    return node;
  }

  // ---- Pass 6: common-subplan elimination (hash-consing). ----

  PlanPtr Cse(PlanPtr node) {
    for (PlanPtr& child : node->children) child = Cse(std::move(child));
    const std::string key = Fingerprint(*node);
    auto [it, inserted] = cse_table_.try_emplace(key, node);
    if (!inserted) {
      if (it->second != node) ++stats_->cse_merged;
      return it->second;
    }
    cse_ids_.emplace(node.get(), cse_ids_.size());
    return node;
  }

  std::string Fingerprint(const PlanNode& node) {
    std::string key = std::to_string(static_cast<int>(node.op)) + "|" +
                      std::to_string(static_cast<int>(node.source_kind));
    key += "|" + std::string(node.const_bool ? "t" : "f");
    if (node.const_formula) key += "|" + node.const_formula->ToString();
    auto add_exprs = [&key](const std::vector<AffineExpr>& exprs) {
      for (const AffineExpr& e : exprs) {
        key += ";";
        for (const Rational& c : e.coeffs) key += c.ToString() + ",";
        key += "+" + e.constant.ToString();
      }
    };
    key += "|";
    add_exprs(node.subst);
    key += "|";
    add_exprs(node.hull_project);
    key += "|" + std::to_string(node.hull_arity);
    key += "|" + std::to_string(node.column);
    key += "|" + std::to_string(node.dim_value);
    key += "|" + std::to_string(node.set_var) + "|" +
           std::to_string(node.region_var);
    for (uint32_t r : node.region_args) key += "," + std::to_string(r);
    key += "|";
    for (uint32_t r : node.region_args2) key += "," + std::to_string(r);
    key += "|";
    for (uint32_t r : node.bound_vars) key += "," + std::to_string(r);
    for (const PlanPtr& child : node.children) {
      key += "|#" + std::to_string(cse_ids_.at(child.get()));
    }
    return key;
  }

  // ---- Pass 7: caching decisions (replaces the legacy memo check). ----

  void MarkCacheable(PlanNode* node) {
    if (!mark_seen_.insert(node).second) return;
    const bool narrow_key =
        node->free_sets.empty() || node->free_region.size() <= 1;
    if (node->worth_caching && narrow_key &&
        node->op != PlanOp::kConstFormula && node->op != PlanOp::kConstBool) {
      node->cache = CachePolicy::kByRegionKey;
      ++stats_->cacheable_marked;
    }
    for (const PlanPtr& child : node->children) MarkCacheable(child.get());
  }

  const CompiledPlan& plan_;
  size_t n_;
  size_t m_;
  PlanPassStats* stats_;
  std::map<std::string, PlanPtr> cse_table_;
  std::map<const PlanNode*, size_t> cse_ids_;
  std::set<const PlanNode*> mark_seen_;
};

}  // namespace

void OptimizePlan(CompiledPlan* plan, PlanPassStats* stats) {
  LCDB_CHECK(plan != nullptr && plan->root != nullptr);
  Optimizer optimizer(*plan, stats);
  plan->root = optimizer.Run(std::move(plan->root));
  stats->plan_nodes = CountPlanNodes(*plan->root);
}

}  // namespace lcdb
