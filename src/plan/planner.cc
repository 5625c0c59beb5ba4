#include "plan/planner.h"

#include <map>
#include <set>
#include <utility>

#include "util/status.h"

namespace lcdb {

namespace {

class Planner {
 public:
  Planner(const FormulaNode& query, const TypeInfo& info,
          const RegionExtension& ext)
      : info_(info), ext_(ext), num_columns_(info.all_element_vars.size()) {
    std::set<std::string> regions, sets;
    CollectVariables(query, &regions, &sets);
    Number(regions, &region_names_, &region_slots_);
    Number(sets, &set_names_, &set_slots_);
  }

  size_t num_columns() const { return num_columns_; }
  std::vector<std::string> TakeRegionNames() {
    return std::move(region_names_);
  }
  std::vector<std::string> TakeSetNames() { return std::move(set_names_); }

  /// Symbolic lowering: the node's value is a DnfFormula.
  PlanPtr Lower(const FormulaNode& node) {
    const size_t m = num_columns_;
    switch (node.kind) {
      case NodeKind::kTrue:
        return Constant(DnfFormula::True(m));
      case NodeKind::kFalse:
        return Constant(DnfFormula::False(m));
      case NodeKind::kCompare: {
        ElementTerm diff = node.lhs.Minus(node.rhs);
        Vec coeffs(m);
        for (const auto& [name, coeff] : diff.coeffs) {
          coeffs[Column(name)] = coeff;
        }
        return Constant(DnfFormula::FromAtom(
            LinearAtom(coeffs, node.rel, -diff.constant)));
      }
      case NodeKind::kRelationAtom:
        return Constant(ext_.database().representation().Substitute(
            TermSubstitution(node.terms), m));
      case NodeKind::kInRegion: {
        PlanPtr out = Make(PlanOp::kInRegion, node);
        out->region_args = RegionSlots(node.region_args);
        out->subst = TermSubstitution(node.terms);
        return Finish(std::move(out));
      }
      case NodeKind::kAdjacent:
      case NodeKind::kRegionEq:
      case NodeKind::kSubsetS:
      case NodeKind::kIntersectsS:
      case NodeKind::kDimAtom:
      case NodeKind::kBoundedAtom:
      case NodeKind::kSetAtom:
      case NodeKind::kLfp:
      case NodeKind::kIfp:
      case NodeKind::kPfp:
      case NodeKind::kTc:
      case NodeKind::kDtc:
      case NodeKind::kRbit: {
        PlanPtr out = Make(PlanOp::kLiftBool, node);
        out->children.push_back(LowerBool(node));
        return Finish(std::move(out));
      }
      case NodeKind::kNot:
        return Connective(PlanOp::kNegateSym, node);
      case NodeKind::kAnd:
        return Connective(PlanOp::kAndSym, node);
      case NodeKind::kOr:
        return Connective(PlanOp::kOrSym, node);
      case NodeKind::kImplies:
        return Connective(PlanOp::kImpliesSym, node);
      case NodeKind::kIff:
        return Connective(PlanOp::kIffSym, node);
      case NodeKind::kHull: {
        PlanPtr out = Make(PlanOp::kHull, node);
        out->children.push_back(Lower(*node.children[0]));
        const size_t k = node.bound_vars.size();
        out->hull_arity = k;
        std::vector<size_t> bound_columns;
        for (const std::string& v : node.bound_vars) {
          bound_columns.push_back(Column(v));
        }
        for (size_t col = 0; col < m; ++col) {
          size_t hull_index = k;
          for (size_t i = 0; i < k; ++i) {
            if (bound_columns[i] == col) {
              hull_index = i;
              break;
            }
          }
          out->hull_project.push_back(
              hull_index < k ? AffineExpr::Variable(k, hull_index)
                             : AffineExpr::Constant(k, Rational(0)));
        }
        out->subst = TermSubstitution(node.terms);
        return Finish(std::move(out));
      }
      case NodeKind::kExistsElem:
      case NodeKind::kForallElem: {
        PlanPtr out = Make(node.kind == NodeKind::kExistsElem
                               ? PlanOp::kExistsElim
                               : PlanOp::kForallElim,
                           node);
        out->column = Column(node.bound_vars[0]);
        out->children.push_back(Lower(*node.children[0]));
        return Finish(std::move(out));
      }
      case NodeKind::kExistsRegion:
      case NodeKind::kForallRegion: {
        PlanPtr out = Make(node.kind == NodeKind::kExistsRegion
                               ? PlanOp::kExpandExists
                               : PlanOp::kExpandForall,
                           node);
        out->region_var = RegionSlot(node.bound_vars[0]);
        out->children.push_back(Lower(*node.children[0]));
        return Finish(std::move(out));
      }
    }
    LCDB_CHECK(false);
    return nullptr;
  }

  /// Boolean lowering: the node's value is a truth value (fixpoint and
  /// closure bodies; after narrowing, any region-pure subtree).
  PlanPtr LowerBool(const FormulaNode& node) {
    switch (node.kind) {
      case NodeKind::kTrue:
      case NodeKind::kFalse: {
        PlanPtr out = Make(PlanOp::kConstBool, node);
        out->const_bool = node.kind == NodeKind::kTrue;
        return Finish(std::move(out));
      }
      case NodeKind::kNot:
        return BoolConnective(PlanOp::kNotBool, node);
      case NodeKind::kAnd:
        return BoolConnective(PlanOp::kAndBool, node);
      case NodeKind::kOr:
        return BoolConnective(PlanOp::kOrBool, node);
      case NodeKind::kImplies:
        return BoolConnective(PlanOp::kImpliesBool, node);
      case NodeKind::kIff:
        return BoolConnective(PlanOp::kIffBool, node);
      case NodeKind::kExistsRegion:
      case NodeKind::kForallRegion: {
        PlanPtr out = Make(node.kind == NodeKind::kExistsRegion
                               ? PlanOp::kAnyRegion
                               : PlanOp::kAllRegion,
                           node);
        out->region_var = RegionSlot(node.bound_vars[0]);
        out->children.push_back(LowerBool(*node.children[0]));
        return Finish(std::move(out));
      }
      case NodeKind::kAdjacent:
      case NodeKind::kRegionEq:
      case NodeKind::kSubsetS:
      case NodeKind::kIntersectsS:
      case NodeKind::kDimAtom:
      case NodeKind::kBoundedAtom: {
        PlanPtr out = Make(PlanOp::kRegionAtom, node);
        out->region_args = RegionSlots(node.region_args);
        out->dim_value = node.dim_value;
        return Finish(std::move(out));
      }
      case NodeKind::kSetAtom: {
        PlanPtr out = Make(PlanOp::kSetMember, node);
        out->set_var = set_slots_.at(node.set_var);
        out->region_args = RegionSlots(node.region_args);
        return Finish(std::move(out));
      }
      case NodeKind::kLfp:
      case NodeKind::kIfp:
      case NodeKind::kPfp: {
        PlanPtr out = Make(PlanOp::kFixpointMember, node);
        out->set_var = set_slots_.at(node.set_var);
        out->bound_vars = RegionSlots(node.bound_vars);
        out->region_args = RegionSlots(node.region_args);
        out->children.push_back(LowerBool(*node.children[0]));
        return Finish(std::move(out));
      }
      case NodeKind::kTc:
      case NodeKind::kDtc: {
        PlanPtr out = Make(PlanOp::kClosureMember, node);
        out->bound_vars = RegionSlots(node.bound_vars);
        out->region_args = RegionSlots(node.region_args);
        out->region_args2 = RegionSlots(node.region_args2);
        out->children.push_back(LowerBool(*node.children[0]));
        return Finish(std::move(out));
      }
      case NodeKind::kRbit: {
        PlanPtr out = Make(PlanOp::kRbitMember, node);
        out->column = Column(node.bound_vars[0]);
        out->region_args = RegionSlots(node.region_args);
        out->children.push_back(Lower(*node.children[0]));
        return Finish(std::move(out));
      }
      case NodeKind::kCompare:
      case NodeKind::kRelationAtom:
      case NodeKind::kInRegion:
      case NodeKind::kHull:
      case NodeKind::kExistsElem:
      case NodeKind::kForallElem: {
        // Element-sort subtree in a boolean context: evaluate symbolically
        // and test emptiness, exactly as the legacy EvalBool fallthrough.
        PlanPtr out = Make(PlanOp::kNonEmpty, node);
        out->children.push_back(Lower(node));
        return Finish(std::move(out));
      }
    }
    LCDB_CHECK(false);
    return nullptr;
  }

 private:
  /// Every region variable (quantified, fixpoint/closure-bound or applied)
  /// and every set variable of the query.
  static void CollectVariables(const FormulaNode& node,
                               std::set<std::string>* regions,
                               std::set<std::string>* sets) {
    regions->insert(node.region_args.begin(), node.region_args.end());
    regions->insert(node.region_args2.begin(), node.region_args2.end());
    switch (node.kind) {
      case NodeKind::kExistsRegion:
      case NodeKind::kForallRegion:
      case NodeKind::kTc:
      case NodeKind::kDtc:
        regions->insert(node.bound_vars.begin(), node.bound_vars.end());
        break;
      case NodeKind::kLfp:
      case NodeKind::kIfp:
      case NodeKind::kPfp:
        regions->insert(node.bound_vars.begin(), node.bound_vars.end());
        sets->insert(node.set_var);
        break;
      case NodeKind::kSetAtom:
        sets->insert(node.set_var);
        break;
      default:
        break;
    }
    for (const auto& child : node.children) {
      CollectVariables(*child, regions, sets);
    }
  }

  /// Slots in name order: ascending slots are ascending names.
  static void Number(const std::set<std::string>& names,
                     std::vector<std::string>* table,
                     std::map<std::string, uint32_t>* slots) {
    for (const std::string& name : names) {
      slots->emplace(name, static_cast<uint32_t>(table->size()));
      table->push_back(name);
    }
  }

  uint32_t RegionSlot(const std::string& name) const {
    return region_slots_.at(name);
  }

  std::vector<uint32_t> RegionSlots(
      const std::vector<std::string>& names) const {
    std::vector<uint32_t> out;
    out.reserve(names.size());
    for (const std::string& name : names) out.push_back(RegionSlot(name));
    return out;
  }

  PlanPtr Make(PlanOp op, const FormulaNode& node) {
    auto out = std::make_shared<PlanNode>();
    out->op = op;
    out->source_kind = node.kind;
    return out;
  }

  PlanPtr Finish(PlanPtr node) {
    DeriveAnnotations(node.get(), ext_.num_regions());
    return node;
  }

  PlanPtr Constant(DnfFormula formula) {
    auto out = std::make_shared<PlanNode>();
    out->op = PlanOp::kConstFormula;
    out->const_formula = std::move(formula);
    return Finish(std::move(out));
  }

  PlanPtr Connective(PlanOp op, const FormulaNode& node) {
    PlanPtr out = Make(op, node);
    for (const auto& child : node.children) {
      out->children.push_back(Lower(*child));
    }
    return Finish(std::move(out));
  }

  PlanPtr BoolConnective(PlanOp op, const FormulaNode& node) {
    PlanPtr out = Make(op, node);
    for (const auto& child : node.children) {
      out->children.push_back(LowerBool(*child));
    }
    return Finish(std::move(out));
  }

  size_t Column(const std::string& name) const {
    for (size_t i = 0; i < info_.all_element_vars.size(); ++i) {
      if (info_.all_element_vars[i] == name) return i;
    }
    LCDB_CHECK_MSG(false, "unknown element variable");
    return 0;
  }

  std::vector<AffineExpr> TermSubstitution(
      const std::vector<ElementTerm>& terms) const {
    std::vector<AffineExpr> map;
    map.reserve(terms.size());
    for (const ElementTerm& t : terms) {
      AffineExpr e;
      e.coeffs.assign(num_columns_, Rational(0));
      for (const auto& [name, coeff] : t.coeffs) {
        e.coeffs[Column(name)] = coeff;
      }
      e.constant = t.constant;
      map.push_back(std::move(e));
    }
    return map;
  }

  const TypeInfo& info_;
  const RegionExtension& ext_;
  size_t num_columns_;
  std::vector<std::string> region_names_;
  std::vector<std::string> set_names_;
  std::map<std::string, uint32_t> region_slots_;
  std::map<std::string, uint32_t> set_slots_;
};

}  // namespace

CompiledPlan BuildPlan(const FormulaNode& query, const TypeInfo& info,
                       const RegionExtension& ext) {
  Planner planner(query, info, ext);
  CompiledPlan plan;
  plan.root = planner.Lower(query);
  plan.num_columns = planner.num_columns();
  plan.num_regions = ext.num_regions();
  plan.region_names = planner.TakeRegionNames();
  plan.set_names = planner.TakeSetNames();
  return plan;
}

}  // namespace lcdb
