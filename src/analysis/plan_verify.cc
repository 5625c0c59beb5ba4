#include "analysis/plan_verify.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace lcdb {

namespace {

/// Per-node DFS colour: absent = unvisited, false = on the current DFS
/// stack (grey), true = fully verified (black).
using ColourMap = std::unordered_map<const PlanNode*, bool>;

Status Fail(std::string_view context, const std::string& reason) {
  return Status::Internal("LCDB012: plan verification failed (" +
                          std::string(context) + "): " + reason);
}

/// Expected child count and child modes per operator. Child modes are
/// uniform per operator in this IR: symbolic operators consume symbolic
/// children except kLiftBool; boolean connectives consume boolean children
/// except the member operators, whose bodies are listed explicitly.
struct OpShape {
  size_t arity = 0;
  bool child_symbolic = false;
};

bool OpShapeFor(PlanOp op, OpShape* shape) {
  switch (op) {
    case PlanOp::kConstFormula:
    case PlanOp::kInRegion:
    case PlanOp::kConstBool:
    case PlanOp::kRegionAtom:
    case PlanOp::kSetMember:
      shape->arity = 0;
      return true;
    case PlanOp::kLiftBool:
      shape->arity = 1;
      shape->child_symbolic = false;
      return true;
    case PlanOp::kNegateSym:
    case PlanOp::kHull:
    case PlanOp::kExistsElim:
    case PlanOp::kForallElim:
    case PlanOp::kExpandExists:
    case PlanOp::kExpandForall:
    case PlanOp::kRbitMember:
    case PlanOp::kNonEmpty:
      shape->arity = 1;
      shape->child_symbolic = true;
      return true;
    case PlanOp::kAndSym:
    case PlanOp::kOrSym:
    case PlanOp::kImpliesSym:
    case PlanOp::kIffSym:
      shape->arity = 2;
      shape->child_symbolic = true;
      return true;
    case PlanOp::kNotBool:
    case PlanOp::kFixpointMember:
    case PlanOp::kClosureMember:
      shape->arity = 1;
      shape->child_symbolic = false;
      return true;
    case PlanOp::kAndBool:
    case PlanOp::kOrBool:
    case PlanOp::kImpliesBool:
    case PlanOp::kIffBool:
      shape->arity = 2;
      shape->child_symbolic = false;
      return true;
    case PlanOp::kAnyRegion:
    case PlanOp::kAllRegion:
      shape->arity = 1;
      shape->child_symbolic = false;
      return true;
  }
  return false;
}

/// Operator-specific payload checks (beyond arity/mode).
Status CheckPayload(const PlanNode& node, size_t num_columns,
                    std::string_view context) {
  const std::string name = PlanOpName(node.op);
  switch (node.op) {
    case PlanOp::kConstFormula:
      if (!node.const_formula.has_value()) {
        return Fail(context, "missing payload: " + name + " has no formula");
      }
      break;
    case PlanOp::kInRegion:
      if (node.region_args.size() != 1) {
        return Fail(context, "region argument count: " + name + " expects 1, has " +
                                 std::to_string(node.region_args.size()));
      }
      break;
    case PlanOp::kExistsElim:
    case PlanOp::kForallElim:
      if (node.column >= num_columns) {
        return Fail(context, "column out of range: " + name + " eliminates column " +
                                 std::to_string(node.column) + " of " +
                                 std::to_string(num_columns));
      }
      break;
    case PlanOp::kRegionAtom: {
      size_t want = 1;
      switch (node.source_kind) {
        case NodeKind::kAdjacent:
        case NodeKind::kRegionEq:
          want = 2;
          break;
        case NodeKind::kSubsetS:
        case NodeKind::kIntersectsS:
        case NodeKind::kDimAtom:
        case NodeKind::kBoundedAtom:
          want = 1;
          break;
        default:
          return Fail(context, "source kind: " + name +
                                   " does not name a region predicate");
      }
      if (node.region_args.size() != want) {
        return Fail(context, "region argument count: " + name + " expects " +
                                 std::to_string(want) + ", has " +
                                 std::to_string(node.region_args.size()));
      }
      break;
    }
    case PlanOp::kSetMember:
      if (node.region_args.empty()) {
        return Fail(context,
                    "region argument count: " + name + " applies an empty tuple");
      }
      break;
    case PlanOp::kFixpointMember:
      if (node.source_kind != NodeKind::kLfp &&
          node.source_kind != NodeKind::kIfp &&
          node.source_kind != NodeKind::kPfp) {
        return Fail(context,
                    "source kind: " + name + " is not lfp/ifp/pfp");
      }
      if (node.bound_vars.empty()) {
        return Fail(context,
                    "missing binder: " + name + " binds no region variables");
      }
      if (node.region_args.size() != node.bound_vars.size()) {
        return Fail(context, "fixpoint arity: " + name + " applies " +
                                 std::to_string(node.region_args.size()) +
                                 " arguments to " +
                                 std::to_string(node.bound_vars.size()) +
                                 " bound variables");
      }
      break;
    case PlanOp::kClosureMember:
      if (node.source_kind != NodeKind::kTc && node.source_kind != NodeKind::kDtc) {
        return Fail(context, "source kind: " + name + " is not tc/dtc");
      }
      if (node.region_args.empty() ||
          node.region_args.size() != node.region_args2.size()) {
        return Fail(context, "closure arity: " + name +
                                 " argument tuples have mismatched lengths");
      }
      if (node.bound_vars.size() !=
          node.region_args.size() + node.region_args2.size()) {
        return Fail(context, "closure arity: " + name + " binds " +
                                 std::to_string(node.bound_vars.size()) +
                                 " variables for " +
                                 std::to_string(node.region_args.size() +
                                                node.region_args2.size()) +
                                 " arguments");
      }
      break;
    case PlanOp::kRbitMember:
      if (node.region_args.size() != 2) {
        return Fail(context, "region argument count: " + name + " expects 2, has " +
                                 std::to_string(node.region_args.size()));
      }
      if (node.column >= num_columns) {
        return Fail(context, "column out of range: " + name + " tests column " +
                                 std::to_string(node.column) + " of " +
                                 std::to_string(num_columns));
      }
      break;
    default:
      break;
  }
  return Status::Ok();
}

/// Every slot the node stores lies inside the plan's name tables: the
/// executors index flat slot environments with them unchecked.
Status CheckSlots(const PlanNode& node, const CompiledPlan& plan,
                  std::string_view context) {
  const std::string name = PlanOpName(node.op);
  auto check = [&](const char* sort, uint32_t slot,
                   const std::vector<std::string>& table) {
    if (slot < table.size()) return Status::Ok();
    return Fail(context, std::string(sort) + " slot out of range: " + name +
                             " uses slot " + std::to_string(slot) + " of " +
                             std::to_string(table.size()));
  };
  std::vector<uint32_t> regions = node.free_region;
  regions.insert(regions.end(), node.region_args.begin(),
                 node.region_args.end());
  regions.insert(regions.end(), node.region_args2.begin(),
                 node.region_args2.end());
  regions.insert(regions.end(), node.bound_vars.begin(),
                 node.bound_vars.end());
  switch (node.op) {
    case PlanOp::kExpandExists:
    case PlanOp::kExpandForall:
    case PlanOp::kAnyRegion:
    case PlanOp::kAllRegion:
      regions.push_back(node.region_var);
      break;
    case PlanOp::kSetMember:
    case PlanOp::kFixpointMember:
      LCDB_RETURN_IF_ERROR(check("set", node.set_var, plan.set_names));
      break;
    default:
      break;
  }
  for (uint32_t slot : regions) {
    LCDB_RETURN_IF_ERROR(check("region", slot, plan.region_names));
  }
  for (uint32_t slot : node.free_sets) {
    LCDB_RETURN_IF_ERROR(check("set", slot, plan.set_names));
  }
  return Status::Ok();
}

/// Recomputes the derived annotations on a copy and compares. The copy
/// shares the children (shared_ptr), so `DeriveAnnotations` reads the
/// children's actual annotations — which the DFS has already verified.
Status CheckAnnotations(const PlanNode& node, const CompiledPlan& plan,
                        std::string_view context) {
  PlanNode copy = node;
  DeriveAnnotations(&copy, plan.num_regions);
  const std::string name = PlanOpName(node.op);
  auto regions = [&](const std::vector<uint32_t>& slots) {
    return JoinSlotNames(slots, plan.region_names, ", ");
  };
  auto sets = [&](const std::vector<uint32_t>& slots) {
    return JoinSlotNames(slots, plan.set_names, ", ");
  };
  if (copy.free_region != node.free_region) {
    return Fail(context, "annotation mismatch on " + name +
                             ": free_region is {" + regions(node.free_region) +
                             "}, derivation gives {" +
                             regions(copy.free_region) + "}");
  }
  if (copy.free_sets != node.free_sets) {
    return Fail(context, "annotation mismatch on " + name +
                             ": free_sets is {" + sets(node.free_sets) +
                             "}, derivation gives {" + sets(copy.free_sets) +
                             "}");
  }
  if (copy.region_pure != node.region_pure) {
    return Fail(context, "annotation mismatch on " + name + ": region_pure");
  }
  if (copy.worth_caching != node.worth_caching) {
    return Fail(context, "annotation mismatch on " + name + ": worth_caching");
  }
  if (copy.est_fanout != node.est_fanout) {
    return Fail(context, "annotation mismatch on " + name + ": est_fanout is " +
                             std::to_string(node.est_fanout) +
                             ", derivation gives " +
                             std::to_string(copy.est_fanout));
  }
  return Status::Ok();
}

/// The optimizer's MarkCacheable contract: kByRegionKey only on
/// worth-caching non-constant nodes with a narrow memo key.
Status CheckCachePolicy(const PlanNode& node, std::string_view context) {
  if (node.cache != CachePolicy::kByRegionKey) return Status::Ok();
  const std::string name = PlanOpName(node.op);
  if (node.op == PlanOp::kConstFormula || node.op == PlanOp::kConstBool) {
    return Fail(context, "cache key ill-formed: constant " + name +
                             " is cache-marked");
  }
  if (!node.worth_caching) {
    return Fail(context, "cache key ill-formed: " + name +
                             " is cache-marked but not worth caching");
  }
  if (!node.free_sets.empty() && node.free_region.size() > 1) {
    return Fail(context, "cache key ill-formed: " + name +
                             " is set-dependent with a wide region key (" +
                             std::to_string(node.free_region.size()) +
                             " free region variables)");
  }
  return Status::Ok();
}

Status VerifyNode(const PlanNode* node, const CompiledPlan& plan,
                  std::string_view context, ColourMap* colour,
                  size_t* nodes_verified) {
  auto [it, inserted] = colour->emplace(node, false);
  if (!inserted) {
    if (!it->second) {
      return Fail(context, std::string("plan DAG contains a cycle through ") +
                               PlanOpName(node->op));
    }
    return Status::Ok();  // shared node, already verified
  }

  OpShape shape;
  if (!OpShapeFor(node->op, &shape)) {
    return Fail(context, "unknown plan operator");
  }
  if (node->children.size() != shape.arity) {
    return Fail(context, std::string("operator arity: ") +
                             PlanOpName(node->op) + " expects " +
                             std::to_string(shape.arity) +
                             " children, has " +
                             std::to_string(node->children.size()));
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const PlanPtr& child = node->children[i];
    if (child == nullptr) {
      return Fail(context, "null child " + std::to_string(i) + " under " +
                               PlanOpName(node->op));
    }
    if (child->IsSymbolic() != shape.child_symbolic) {
      return Fail(context,
                  "mode confusion: child " + std::to_string(i) + " of " +
                      PlanOpName(node->op) + " must be " +
                      (shape.child_symbolic ? "symbolic" : "boolean") +
                      ", is " + PlanOpName(child->op));
    }
    Status s = VerifyNode(child.get(), plan, context, colour, nodes_verified);
    if (!s.ok()) return s;
  }

  Status s = CheckPayload(*node, plan.num_columns, context);
  if (!s.ok()) return s;
  s = CheckSlots(*node, plan, context);
  if (!s.ok()) return s;
  s = CheckAnnotations(*node, plan, context);
  if (!s.ok()) return s;
  s = CheckCachePolicy(*node, context);
  if (!s.ok()) return s;

  it = colour->find(node);
  it->second = true;
  ++*nodes_verified;
  return Status::Ok();
}

}  // namespace

Status VerifyPlan(const CompiledPlan& plan, std::string_view context,
                  VerifyStats* stats) {
  if (plan.root == nullptr) {
    if (stats != nullptr) {
      ++stats->plans_verified;
      ++stats->violations;
    }
    return Fail(context, "plan has no root");
  }
  const PlanNode& root = *plan.root;
  ColourMap colour;
  size_t nodes_verified = 0;
  Status s = VerifyNode(&root, plan, context, &colour, &nodes_verified);
  if (stats != nullptr) {
    ++stats->plans_verified;
    stats->plan_nodes_verified += nodes_verified;
  }
  if (s.ok() && !root.free_region.empty()) {
    s = Fail(context, "plan not closed: free region variables remain at root ({" +
                          JoinSlotNames(root.free_region, plan.region_names,
                                        ", ") +
                          "})");
  }
  if (s.ok() && !root.free_sets.empty()) {
    s = Fail(context, "plan not closed: free set variables remain at root ({" +
                          JoinSlotNames(root.free_sets, plan.set_names, ", ") +
                          "})");
  }
  if (!s.ok() && stats != nullptr) ++stats->violations;
  return s;
}

}  // namespace lcdb
