#ifndef LCDB_ANALYSIS_CONST_ANALYSIS_H_
#define LCDB_ANALYSIS_CONST_ANALYSIS_H_

#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis_stats.h"
#include "constraint/dnf_formula.h"
#include "core/ast.h"
#include "plan/plan_ir.h"

namespace lcdb {

// Compile-time constant analysis shared by the optimizer's dead-branch
// pruning (plan/optimizer.cc) and the analyzer's vacuity diagnostics
// (analysis/analyzer.cc). Both layers ask the same questions of the same
// ambient kernel; its lemma database memoizes the underlying oracle
// decisions, so a guard the analyzer classified costs the optimizer a cache
// hit, never a second LP solve.

// ---- Syntactic classification of plan nodes (no oracle). The folding
// pass uses exactly these so every fold stays representation-identical. ----

inline bool IsConstFormula(const PlanNode& n) {
  return n.op == PlanOp::kConstFormula;
}
inline bool IsConstTrueFormula(const PlanNode& n) {
  return IsConstFormula(n) && n.const_formula->IsSyntacticallyTrue();
}
inline bool IsConstFalseFormula(const PlanNode& n) {
  return IsConstFormula(n) && n.const_formula->IsSyntacticallyFalse();
}
inline bool IsConstBool(const PlanNode& n) {
  return n.op == PlanOp::kConstBool;
}

/// Kernel-backed emptiness of an environment-independent formula: the one
/// semantic truth question both the kNonEmpty fold and the analyzer's
/// vacuous-subquery diagnostic reduce to.
bool ConstFormulaProvablyEmpty(const DnfFormula& formula);

// ---- AST-level guard classification. ----

/// Compile-time truth value of a guard.
enum class GuardTruth {
  kUnknown,
  kAlwaysTrue,
  kAlwaysFalse,
};

struct GuardClassifyOptions {
  /// Guards whose lowered formula exceeds this atom count are left
  /// unclassified — tautology checking negates the formula, which is
  /// exponential in the worst case.
  size_t max_atoms = 64;
};

/// Lowers an element-pure subtree — true/false/compares combined with
/// not/and/or/implies/iff, no region atoms, no quantifiers, no database
/// relation — to a quantifier-free DNF over `columns` (the evaluator's
/// element-variable space), mirroring the planner's kCompare lowering
/// atom for atom. Returns nullopt for subtrees that are not element-pure.
std::optional<DnfFormula> LowerElementPure(
    const FormulaNode& node, const std::vector<std::string>& columns);

/// Classifies an element-pure guard as provably unsatisfiable, provably
/// tautological, or unknown, consulting the ambient kernel through the DNF
/// algebra. Counts its work into `stats` when non-null.
GuardTruth ClassifyGuard(const FormulaNode& node,
                         const std::vector<std::string>& columns,
                         const GuardClassifyOptions& options,
                         AnalysisStats* stats);

}  // namespace lcdb

#endif  // LCDB_ANALYSIS_CONST_ANALYSIS_H_
