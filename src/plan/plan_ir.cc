#include "plan/plan_ir.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "util/status.h"

namespace lcdb {

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kConstFormula: return "const.formula";
    case PlanOp::kInRegion: return "in_region";
    case PlanOp::kLiftBool: return "lift_bool";
    case PlanOp::kNegateSym: return "not.sym";
    case PlanOp::kAndSym: return "and.sym";
    case PlanOp::kOrSym: return "or.sym";
    case PlanOp::kImpliesSym: return "implies.sym";
    case PlanOp::kIffSym: return "iff.sym";
    case PlanOp::kHull: return "hull";
    case PlanOp::kExistsElim: return "qe.exists";
    case PlanOp::kForallElim: return "qe.forall";
    case PlanOp::kExpandExists: return "expand.exists";
    case PlanOp::kExpandForall: return "expand.forall";
    case PlanOp::kConstBool: return "const.bool";
    case PlanOp::kNotBool: return "not.bool";
    case PlanOp::kAndBool: return "and.bool";
    case PlanOp::kOrBool: return "or.bool";
    case PlanOp::kImpliesBool: return "implies.bool";
    case PlanOp::kIffBool: return "iff.bool";
    case PlanOp::kAnyRegion: return "any_region";
    case PlanOp::kAllRegion: return "all_region";
    case PlanOp::kRegionAtom: return "region_atom";
    case PlanOp::kSetMember: return "set_member";
    case PlanOp::kFixpointMember: return "fixpoint";
    case PlanOp::kClosureMember: return "closure";
    case PlanOp::kRbitMember: return "rbit";
    case PlanOp::kNonEmpty: return "nonempty";
  }
  return "?";
}

std::string SlotName(uint32_t slot, const std::vector<std::string>& names) {
  return slot < names.size() ? names[slot] : "?" + std::to_string(slot);
}

std::string JoinSlotNames(const std::vector<uint32_t>& slots,
                          const std::vector<std::string>& names,
                          const char* separator) {
  std::string out;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) out += separator;
    out += SlotName(slots[i], names);
  }
  return out;
}

namespace {

/// n^k with saturation at SIZE_MAX (fan-out estimates only).
size_t SaturatingPow(size_t n, size_t k) {
  size_t out = 1;
  for (size_t i = 0; i < k; ++i) {
    if (n != 0 && out > SIZE_MAX / n) return SIZE_MAX;
    out *= n;
  }
  return out;
}

const char* RegionAtomName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kAdjacent: return "adj";
    case NodeKind::kRegionEq: return "eq";
    case NodeKind::kSubsetS: return "subset";
    case NodeKind::kIntersectsS: return "meets";
    case NodeKind::kDimAtom: return "dim";
    case NodeKind::kBoundedAtom: return "bounded";
    default: return "?";
  }
}

const char* FixpointName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kLfp: return "lfp";
    case NodeKind::kIfp: return "ifp";
    case NodeKind::kPfp: return "pfp";
    case NodeKind::kTc: return "tc";
    case NodeKind::kDtc: return "dtc";
    default: return "?";
  }
}

std::string FormatNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

}  // namespace

void DeriveAnnotations(PlanNode* node, size_t num_regions) {
  std::set<uint32_t> fr, fs;
  bool pure = true;
  bool worth = false;
  for (const PlanPtr& child : node->children) {
    fr.insert(child->free_region.begin(), child->free_region.end());
    fs.insert(child->free_sets.begin(), child->free_sets.end());
    pure &= child->region_pure;
    worth |= child->worth_caching;
  }
  node->est_fanout = 1;
  switch (node->op) {
    case PlanOp::kConstFormula:
      pure = node->const_formula->IsSyntacticallyTrue() ||
             node->const_formula->IsSyntacticallyFalse();
      // A non-trivial constant (compare / relation atom) is the lowering of
      // an element-sort atom — worth a cache slot, like the legacy walk's
      // WorthCaching marks for kCompare / kRelationAtom.
      worth = !pure;
      break;
    case PlanOp::kInRegion:
    case PlanOp::kHull:
      pure = false;
      worth = true;
      fr.insert(node->region_args.begin(), node->region_args.end());
      break;
    case PlanOp::kExistsElim:
    case PlanOp::kForallElim:
      pure = false;
      worth = true;
      break;
    case PlanOp::kExpandExists:
    case PlanOp::kExpandForall:
      worth = true;
      fr.erase(node->region_var);
      node->est_fanout = num_regions;
      break;
    case PlanOp::kAnyRegion:
    case PlanOp::kAllRegion:
      worth = true;
      fr.erase(node->region_var);
      node->est_fanout = num_regions;
      break;
    case PlanOp::kRegionAtom:
      fr.insert(node->region_args.begin(), node->region_args.end());
      break;
    case PlanOp::kSetMember:
      fr.insert(node->region_args.begin(), node->region_args.end());
      fs.insert(node->set_var);
      break;
    case PlanOp::kFixpointMember:
      // A member test is a bit test against a relation the set-at-a-time
      // engine computes once per query (plan/region_relations.h): cheaper
      // than a memo probe, so members never make a subtree worth caching.
      worth = false;
      for (uint32_t b : node->bound_vars) fr.erase(b);
      fs.erase(node->set_var);
      fr.insert(node->region_args.begin(), node->region_args.end());
      node->est_fanout = SaturatingPow(num_regions, node->bound_vars.size());
      break;
    case PlanOp::kClosureMember: {
      worth = false;  // a bit test, like kFixpointMember
      for (uint32_t b : node->bound_vars) fr.erase(b);
      fr.insert(node->region_args.begin(), node->region_args.end());
      fr.insert(node->region_args2.begin(), node->region_args2.end());
      const size_t space =
          SaturatingPow(num_regions, node->bound_vars.size() / 2);
      node->est_fanout = SaturatingPow(space, 2);
      break;
    }
    case PlanOp::kRbitMember:
      // The body's free region variables are the rBIT parameters P̄ and
      // stay free (Definition 5.1).
      worth = true;
      fr.insert(node->region_args.begin(), node->region_args.end());
      break;
    case PlanOp::kNonEmpty:
      worth = true;
      break;
    case PlanOp::kLiftBool:
      pure = true;
      break;
    default:
      break;
  }
  node->free_region.assign(fr.begin(), fr.end());
  node->free_sets.assign(fs.begin(), fs.end());
  node->region_pure = node->IsSymbolic() ? pure : true;
  node->worth_caching = worth;
}

namespace {

void CountNodesImpl(const PlanNode& node, std::set<const PlanNode*>* seen) {
  if (!seen->insert(&node).second) return;
  for (const PlanPtr& child : node.children) CountNodesImpl(*child, seen);
}

class PlanPrinter {
 public:
  PlanPrinter(const CompiledPlan& plan, const PlanProfile* profile,
              const PlanCostMap* costs)
      : plan_(plan), profile_(profile), costs_(costs) {}

  void Print(const PlanNode& node, size_t depth) {
    out_.append(2 * depth, ' ');
    auto it = ids_.find(&node);
    if (it != ids_.end()) {
      out_ += "#" + std::to_string(it->second) + " (shared, see above)\n";
      return;
    }
    const int id = next_id_++;
    ids_.emplace(&node, id);
    out_ += "#" + std::to_string(id) + " " + PlanOpName(node.op);
    const std::string detail = Detail(node);
    if (!detail.empty()) out_ += " " + detail;
    out_ += Annotations(node);
    if (costs_ != nullptr) out_ += Estimated(node);
    if (profile_ != nullptr) out_ += Measured(node);
    out_ += "\n";
    for (const PlanPtr& child : node.children) Print(*child, depth + 1);
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string Detail(const PlanNode& node) {
    switch (node.op) {
      case PlanOp::kConstFormula: {
        std::string f = node.const_formula->ToString();
        if (f.size() > 48) f = f.substr(0, 45) + "...";
        return "{" + f + "}";
      }
      case PlanOp::kConstBool:
        return node.const_bool ? "{true}" : "{false}";
      case PlanOp::kInRegion:
        return RegionNames(node.region_args);
      case PlanOp::kExpandExists:
      case PlanOp::kExpandForall:
      case PlanOp::kAnyRegion:
      case PlanOp::kAllRegion:
        return SlotName(node.region_var, plan_.region_names);
      case PlanOp::kExistsElim:
      case PlanOp::kForallElim:
        return "col" + std::to_string(node.column);
      case PlanOp::kRegionAtom:
        return std::string(RegionAtomName(node.source_kind)) + "(" +
               RegionNames(node.region_args) +
               (node.source_kind == NodeKind::kDimAtom
                    ? ")=" + std::to_string(node.dim_value)
                    : ")");
      case PlanOp::kSetMember:
        return SlotName(node.set_var, plan_.set_names) + "(" +
               RegionNames(node.region_args) + ")";
      case PlanOp::kFixpointMember:
        return std::string(FixpointName(node.source_kind)) + " " +
               SlotName(node.set_var, plan_.set_names) + " " +
               RegionNames(node.bound_vars) + " (" +
               RegionNames(node.region_args) + ")";
      case PlanOp::kClosureMember:
        return std::string(FixpointName(node.source_kind)) + " " +
               RegionNames(node.bound_vars) + " (" +
               RegionNames(node.region_args) + " ; " +
               RegionNames(node.region_args2) + ")";
      case PlanOp::kRbitMember:
        return "(" + RegionNames(node.region_args) + ")";
      default:
        return "";
    }
  }

  std::string Annotations(const PlanNode& node) {
    std::string out = "  [";
    out += "free={" + RegionNames(node.free_region) + "}";
    if (!node.free_sets.empty()) {
      out += " set-dep={" +
             JoinSlotNames(node.free_sets, plan_.set_names, ",") + "}";
    }
    out += node.cache == CachePolicy::kByRegionKey ? " cache=region-key"
                                                   : " cache=none";
    if (node.est_fanout > 1) {
      out += " fanout=" + std::to_string(node.est_fanout);
    }
    out += "]";
    return out;
  }

  /// Tier-2 cost column: the analyzer's predicted execution of the node.
  /// Quantities are estimates (deterministic, plan-shape-only), printed in
  /// compact %.3g form so huge tuple spaces stay readable.
  std::string Estimated(const PlanNode& node) {
    auto it = costs_->find(&node);
    if (it == costs_->end()) return "";
    const PlanCostEstimate& c = it->second;
    auto fmt = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3g", v);
      return std::string(buf);
    };
    std::string out = "  | est: calls=" + fmt(c.est_calls);
    out += " rows=" + fmt(c.est_rows);
    out += " bigint-ops=" + fmt(c.est_bigint_ops);
    if (c.dead_cache) out += " cache=dead";
    return out;
  }

  /// EXPLAIN ANALYZE column: measured execution of the node. Times are
  /// inclusive (parents contain children), so the root line is the query's
  /// wall-clock and each level shows where inside it the time went.
  std::string Measured(const PlanNode& node) {
    auto it = profile_->find(&node);
    if (it == profile_->end()) return "  | (not executed)";
    const PlanNodeProfile& p = it->second;
    std::string out = "  | calls=" + std::to_string(p.calls);
    if (p.memo_hits > 0) out += " memo=" + std::to_string(p.memo_hits);
    out += " time=" + FormatNs(p.total_ns);
    out += " kernel=" + std::to_string(p.kernel_queries);
    if (p.kernel_cache_hits > 0) {
      out += "(" + std::to_string(p.kernel_cache_hits) + " cached)";
    }
    if (p.governor_checkpoints > 0) {
      out += " gov=" + std::to_string(p.governor_checkpoints);
    }
    out += " rows=" + std::to_string(p.rows);
    if (p.stages > 0) {
      out += " stages=" + std::to_string(p.stages) + " deltas=[";
      for (size_t i = 0; i < p.stage_deltas.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(p.stage_deltas[i]);
      }
      out += "]";
    }
    return out;
  }

  std::string RegionNames(const std::vector<uint32_t>& slots) const {
    return JoinSlotNames(slots, plan_.region_names, ",");
  }

  const CompiledPlan& plan_;
  const PlanProfile* profile_;
  const PlanCostMap* costs_;
  std::string out_;
  std::map<const PlanNode*, int> ids_;
  int next_id_ = 0;
};

}  // namespace

size_t CountPlanNodes(const PlanNode& root) {
  std::set<const PlanNode*> seen;
  CountNodesImpl(root, &seen);
  return seen.size();
}

std::string PrintPlan(const CompiledPlan& plan, const PlanProfile* profile,
                      const PlanCostMap* costs) {
  LCDB_CHECK(plan.root != nullptr);
  PlanPrinter printer(plan, profile, costs);
  printer.Print(*plan.root, 0);
  return printer.Take();
}

}  // namespace lcdb
