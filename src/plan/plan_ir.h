#ifndef LCDB_PLAN_PLAN_IR_H_
#define LCDB_PLAN_PLAN_IR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "constraint/dnf_formula.h"
#include "core/ast.h"
#include "plan/plan_stats.h"

namespace lcdb {

/// Operators of the query plan IR — the explicit middle layer between the
/// typechecked AST and the symbolic execution engine. The IR makes the two
/// evaluation modes of Theorem 4.3's algorithm first-class:
///
///  * *symbolic* operators produce a quantifier-free DnfFormula over the
///    query's element columns (the closure property of Section 2);
///  * *boolean* operators produce a truth value under a region/set
///    environment — the mode fixed-point and closure bodies run in.
///
/// The legacy tree-walk evaluator chose between these modes dynamically at
/// every node; the planner decides once, at compile time, and the optimizer
/// then rewrites the typed tree (plan/optimizer.h) before the executor
/// (plan/executor.h) ever touches a DnfFormula.
enum class PlanOp {
  // ---- Symbolic operators (result: DnfFormula over num_columns vars).
  kConstFormula,   ///< precomputed formula: true/false/compare/relation atoms
  kInRegion,       ///< substitute env(R)'s region formula through `subst`
  kLiftBool,       ///< evaluate the boolean child; True(m) / False(m)
  kNegateSym,
  kAndSym,
  kOrSym,
  kImpliesSym,
  kIffSym,
  kHull,           ///< Section 8 convex-closure operator
  kExistsElim,     ///< Fourier-Motzkin exists-elimination of `column`
  kForallElim,     ///< dual forall-elimination of `column`
  kExpandExists,   ///< symbolic union over the region sort
  kExpandForall,   ///< symbolic intersection over the region sort
  // ---- Boolean operators (result: bool).
  kConstBool,
  kNotBool,
  kAndBool,
  kOrBool,
  kImpliesBool,
  kIffBool,
  kAnyRegion,      ///< short-circuit exists-loop over the region sort
  kAllRegion,      ///< short-circuit forall-loop over the region sort
  kRegionAtom,     ///< adj / = / subset / meets / dim / bounded (source_kind)
  kSetMember,      ///< M(R1..Rk) against the current fixpoint stage
  kFixpointMember, ///< [lfp/ifp/pfp ...](args) membership (source_kind)
  kClosureMember,  ///< [tc/dtc ...](args; args2) reachability (source_kind)
  kRbitMember,     ///< rBIT bit test (symbolic body child)
  kNonEmpty,       ///< emptiness test of the symbolic child's formula
};

/// Executor caching policy for a node, assigned by the optimizer's hoisting
/// pass (raw plans carry kNone everywhere — disabling the pass disables all
/// subformula caching, the ablation the acceptance experiment measures).
enum class CachePolicy {
  kNone,
  /// Cache results keyed by the values of the node's free region variables
  /// (plus the stage version of each free set variable). A node that is
  /// set-variable independent is thereby hoisted out of fixpoint iteration:
  /// it is computed once per region assignment instead of once per stage.
  kByRegionKey,
};

/// One node of the plan DAG. Nodes are immutable after optimization and may
/// be shared (common-subplan elimination), so the executor keys its caches
/// by node identity.
struct PlanNode {
  PlanOp op = PlanOp::kConstBool;
  /// Originating AST kind for operators whose behaviour depends on it
  /// (region-atom predicate, lfp/ifp/pfp flavour, tc/dtc flavour).
  NodeKind source_kind = NodeKind::kTrue;
  std::vector<std::shared_ptr<PlanNode>> children;

  // ---- Compile-time payloads.
  std::optional<DnfFormula> const_formula;  ///< kConstFormula
  bool const_bool = false;                  ///< kConstBool
  /// Affine substitution precomputed from the applied terms (kInRegion:
  /// region formula -> columns; kHull: hull result -> columns).
  std::vector<AffineExpr> subst;
  std::vector<AffineExpr> hull_project;  ///< kHull: columns -> hull space
  size_t hull_arity = 0;                 ///< kHull: number of hull variables
  size_t column = 0;          ///< kExistsElim/kForallElim/kRbitMember column
  int dim_value = 0;          ///< kRegionAtom for dim(R) = k
  // Variables are slots (CompiledPlan::region_names / set_names), not
  // names: the planner numbers them once per query.
  uint32_t set_var = 0;       ///< kSetMember / kFixpointMember
  uint32_t region_var = 0;    ///< bound variable of region quantifier ops
  std::vector<uint32_t> region_args;   ///< applied region variables
  std::vector<uint32_t> region_args2;  ///< second tuple of kClosureMember
  std::vector<uint32_t> bound_vars;    ///< fixpoint / closure bound tuple

  // ---- Annotations (planner-derived, optimizer-maintained).
  /// Free region slots, ascending — which is name order, and the memo key
  /// order of both executors.
  std::vector<uint32_t> free_region;
  /// Free set slots, ascending.
  std::vector<uint32_t> free_sets;
  /// Subtree evaluates to exactly True(m)/False(m): no element-sort payload
  /// outside member-operator bodies. Such subtrees may be narrowed to
  /// boolean mode without changing the answer formula byte-for-byte.
  bool region_pure = false;
  /// Subtree does enough work (quantifier, element atom, operator) to repay
  /// a cache lookup — the planner's copy of the legacy WorthCaching bit.
  bool worth_caching = false;
  CachePolicy cache = CachePolicy::kNone;
  /// Estimated region-sort fan-out: iterations this node's loop performs
  /// (|Reg| for quantifiers, |Reg|^k for fixpoints, |Reg|^2m for closures).
  size_t est_fanout = 1;

  bool IsSymbolic() const { return op <= PlanOp::kExpandForall; }
};

using PlanPtr = std::shared_ptr<PlanNode>;

/// A fully compiled query: the plan root plus the symbolic variable space
/// it was lowered against.
struct CompiledPlan {
  PlanPtr root;
  /// Total number of element columns (bound ones included), matching the
  /// TypeInfo the query was checked with.
  size_t num_columns = 0;
  /// Regions of the extension the plan was compiled for.
  size_t num_regions = 0;
  /// Slot -> name of every region and every set variable of the query.
  /// The planner numbers each sort in name order, so ascending slots are
  /// ascending names. The type checker rejects rebinding a name along a
  /// path, so one slot per name is one slot per live binding: executors
  /// index flat environments by slot.
  std::vector<std::string> region_names;
  std::vector<std::string> set_names;
};

/// Human-readable operator name (explain output, span names).
const char* PlanOpName(PlanOp op);

/// The name of `slot` in a CompiledPlan name table; "?N" when the slot is
/// outside it (verifier messages about malformed plans).
std::string SlotName(uint32_t slot, const std::vector<std::string>& names);
/// The names of `slots`, joined by `separator`.
std::string JoinSlotNames(const std::vector<uint32_t>& slots,
                          const std::vector<std::string>& names,
                          const char* separator);

/// Node-level accounting of one uncached execution of an operator, the same
/// on the tree walk and the VM: whether it opens a trace span named
/// PlanOpName(op), and which Evaluator::Stats counter it bumps.
struct OpAccounting {
  bool span = false;
  bool qe_elimination = false;    ///< ++qe_eliminations
  bool region_expansion = false;  ///< ++region_expansions
};

/// The expensive operators (hull, QE, symbolic region expansion, rBIT) open
/// a span; the region engine opens the fixpoint and closure spans itself.
/// QE counts an elimination, and every region loop, symbolic or boolean,
/// counts an expansion.
inline OpAccounting AccountingOf(PlanOp op) {
  switch (op) {
    case PlanOp::kHull:
    case PlanOp::kRbitMember:
      return {true, false, false};
    case PlanOp::kExistsElim:
    case PlanOp::kForallElim:
      return {true, true, false};
    case PlanOp::kExpandExists:
    case PlanOp::kExpandForall:
      return {true, false, true};
    case PlanOp::kAnyRegion:
    case PlanOp::kAllRegion:
      return {false, false, true};
    default:
      return {};
  }
}

/// Recomputes the derived annotations of `node` from its payload and its
/// children's (already correct) annotations. Optimizer passes call this
/// after every structural rewrite; the planner uses it bottom-up.
void DeriveAnnotations(PlanNode* node, size_t num_regions);

/// Number of distinct nodes in the (possibly shared) plan DAG.
size_t CountPlanNodes(const PlanNode& root);

/// Pretty-prints the plan as an indented tree with per-operator
/// annotations: free region variables, set-dependence, caching decision and
/// estimated region fan-out. Shared subplans are printed once and
/// referenced by id afterwards (`lcdbq --explain`).
///
/// With a `profile` (EXPLAIN ANALYZE) each node line additionally carries
/// its measured execution: calls, inclusive wall-clock, kernel decisions
/// (with cache hits), executor memo hits, governor checkpoints and result
/// cardinality; nodes the execution never reached are marked as such.
///
/// With `costs` (the tier-2 analyzer's estimates, analysis/plan_cost.h)
/// each node line carries the predicted execution: estimated evaluations,
/// result rows and node-local BigInt operations, with dead cache marks.
std::string PrintPlan(const CompiledPlan& plan,
                      const PlanProfile* profile = nullptr,
                      const PlanCostMap* costs = nullptr);

}  // namespace lcdb

#endif  // LCDB_PLAN_PLAN_IR_H_
