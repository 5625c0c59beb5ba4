#ifndef LCDB_CONSTRAINT_PARSER_H_
#define LCDB_CONSTRAINT_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "constraint/dnf_formula.h"
#include "util/status.h"

namespace lcdb {

/// Nesting limit shared by the constraint parser below and the query parser
/// (core/parser.h): deeper input is a ParseError naming the limit, so no
/// input can exhaust the stack. The value leaves headroom for sanitizer
/// builds, whose query-parser frames exhaust an 8 MB stack between 400 and
/// 700 levels.
inline constexpr size_t kMaxQueryNesting = 256;

/// Parses a quantifier-free boolean combination of linear (in)equalities
/// over the named variables into DNF.
///
/// Grammar (usual precedence, `&` over `|`):
///   formula := conj ('|' conj)* ; conj := unary ('&' unary)*
///   unary   := '!' unary | '(' formula ')' | atom
///   atom    := linexpr (< | <= | = | >= | > | !=) linexpr
///   linexpr := ['-'] term (('+'|'-') term)*
///   term    := rational ['*' var | var] | var      e.g. "2x", "3/2*y", "5"
///
/// `!=` desugars to a disjunction of `<` and `>`; `!` is compiled away by
/// DNF negation, matching the paper's negation-free representations.
/// Each `(` and `!` opens a nesting level; more than kMaxQueryNesting open
/// levels is a ParseError.
Result<DnfFormula> ParseDnf(std::string_view text,
                            const std::vector<std::string>& var_names);

/// Parses a single linear atom (no boolean connectives).
Result<LinearAtom> ParseAtom(std::string_view text,
                             const std::vector<std::string>& var_names);

}  // namespace lcdb

#endif  // LCDB_CONSTRAINT_PARSER_H_
