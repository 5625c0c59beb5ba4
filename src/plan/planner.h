#ifndef LCDB_PLAN_PLANNER_H_
#define LCDB_PLAN_PLANNER_H_

#include "core/ast.h"
#include "core/typecheck.h"
#include "db/region_extension.h"
#include "plan/plan_ir.h"

namespace lcdb {

/// Lowers a typechecked query AST into a raw plan (plan/plan_ir.h).
///
/// The lowering is a faithful, mode-annotated image of the legacy
/// evaluator's recursion: the root and every element-sort subformula become
/// symbolic operators, fixed-point / closure bodies become boolean
/// operators, and each atom is compiled as far as it can be without a
/// region environment — comparison and relation atoms fold to constant
/// formulas, in(...)/hull terms fold to affine substitution maps, element
/// quantifiers to column indices. A raw plan executed without optimization
/// therefore reproduces the legacy walk's answers byte for byte.
///
/// The planner also numbers the query's region variables and its set
/// variables, each sort in name order (CompiledPlan::region_names /
/// set_names), and every node stores these slots instead of names — the
/// one place where a variable name becomes an environment position.
CompiledPlan BuildPlan(const FormulaNode& query, const TypeInfo& info,
                       const RegionExtension& ext);

}  // namespace lcdb

#endif  // LCDB_PLAN_PLANNER_H_
