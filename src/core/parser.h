#ifndef LCDB_CORE_PARSER_H_
#define LCDB_CORE_PARSER_H_

#include <string>
#include <string_view>

#include "constraint/parser.h"
#include "core/ast.h"
#include "util/status.h"

namespace lcdb {

/// Parses a query of the region logics into an AST.
///
/// Syntax (precedence `<->` < `->` < `|` < `&` < `!`):
///
///   phi := phi <-> phi | phi -> phi | phi | phi | phi & phi | !phi
///        | (phi) | exists v1 v2... . phi | forall v1 v2... . phi
///        | atom | fixpoint
///
///   atom := true | false
///         | term REL term                REL in { < <= = >= > != }
///         | NAME(t1, ..., td)            relation atom (NAME = relation)
///         | M(R1, ..., Rk)               set atom (M bound by a fixpoint)
///         | in(t1, ..., td; R)           point-in-region (Def. 4.1's ∈)
///         | adj(R1, R2) | R1 = R2
///         | subset(R) | meets(R) | dim(R) = k | bounded(R)
///
///   fixpoint := [lfp M X1 ... Xk : phi](R1, ..., Rk)      (Def. 5.1)
///             | [ifp M X1 ... Xk : phi](R1, ..., Rk)
///             | [pfp M X1 ... Xk : phi](R1, ..., Rk)
///             | [tc X1..Xm ; Y1..Ym : phi](A1..Am ; B1..Bm)   (Def. 7.2)
///             | [dtc ... : phi](... ; ...)
///             | [rbit x : phi](Rn, Rd)                     (Def. 5.1)
///
/// Variable sorts follow the paper's convention: identifiers beginning with
/// a lowercase letter are element variables (range over R), identifiers
/// beginning with an uppercase letter are region variables (range over Reg)
/// or set variables (when bound by a fixpoint / applied to a tuple).
/// Terms are affine: rational literals (`3`, `5/2`), element variables,
/// `+`, `-` and scalar multiplication (`2x`, `1/2 * y`).
///
/// `relation_name` identifies the database relation S for relation atoms;
/// arity and variable-sort errors are caught later by TypeCheck.
///
/// Nesting is bounded by kMaxQueryNesting (constraint/parser.h), so no
/// input can exhaust the stack of the parser or of the recursive passes
/// after it: both the parser's recursion (each `(`, `!`, quantifier body,
/// bracket operator and unary minus opens a level) and the depth of the
/// resulting AST must stay within it, or ParseQuery fails with a ParseError
/// naming the limit.
Result<FormulaPtr> ParseQuery(std::string_view text,
                              const std::string& relation_name);

}  // namespace lcdb

#endif  // LCDB_CORE_PARSER_H_
