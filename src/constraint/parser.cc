#include "constraint/parser.h"

#include <cctype>
#include <optional>

namespace lcdb {
namespace {

/// Hand-written recursive-descent parser over a character cursor. The
/// constraint grammar is small enough that no separate token stream is
/// needed; the core query language has its own, richer parser.
class ConstraintParser {
 public:
  ConstraintParser(std::string_view text,
                   const std::vector<std::string>& var_names)
      : text_(text), var_names_(var_names) {}

  Result<DnfFormula> ParseFormula() {
    LCDB_ASSIGN_OR_RETURN(DnfFormula f, ParseDisjunction());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("unexpected trailing input");
    }
    return f;
  }

  Result<LinearAtom> ParseSingleAtom() {
    LCDB_ASSIGN_OR_RETURN(LinearAtom atom, ParseAtomInner());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("unexpected trailing input");
    }
    return atom;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " + std::to_string(pos_) +
                              " in \"" + std::string(text_) + "\"");
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Result<DnfFormula> ParseDisjunction() {
    LCDB_ASSIGN_OR_RETURN(DnfFormula f, ParseConjunction());
    while (Consume("|")) {
      LCDB_ASSIGN_OR_RETURN(DnfFormula g, ParseConjunction());
      f = f.Or(g);
    }
    return f;
  }

  Result<DnfFormula> ParseConjunction() {
    LCDB_ASSIGN_OR_RETURN(DnfFormula f, ParseUnary());
    while (Consume("&")) {
      LCDB_ASSIGN_OR_RETURN(DnfFormula g, ParseUnary());
      f = f.And(g);
    }
    return f;
  }

  /// Opens one nesting level (`!` or `(`). The error returns below leave
  /// depth_ raised, which is harmless: the parse is over.
  Status Nest() {
    if (++depth_ <= kMaxQueryNesting) return Status::Ok();
    return Error("formula nesting exceeds the limit of " +
                 std::to_string(kMaxQueryNesting) + " levels");
  }

  Result<DnfFormula> ParseUnary() {
    if (Consume("!")) {
      LCDB_RETURN_IF_ERROR(Nest());
      LCDB_ASSIGN_OR_RETURN(DnfFormula f, ParseUnary());
      --depth_;
      return f.Negate();
    }
    // A '(' may open either a subformula or never occurs inside linexpr, so
    // it is unambiguous here.
    if (Peek() == '(') {
      Consume("(");
      LCDB_RETURN_IF_ERROR(Nest());
      LCDB_ASSIGN_OR_RETURN(DnfFormula f, ParseDisjunction());
      --depth_;
      if (!Consume(")")) return Error("expected ')'");
      return f;
    }
    SkipSpace();
    size_t atom_start = pos_;
    // "true" / "false" literals.
    if (ConsumeWord("true")) return DnfFormula::True(var_names_.size());
    if (ConsumeWord("false")) return DnfFormula::False(var_names_.size());
    pos_ = atom_start;
    // != desugars to two atoms.
    LCDB_ASSIGN_OR_RETURN(Vec lhs, ParseLinExpr());
    LCDB_ASSIGN_OR_RETURN(Rational lhs_const, TakeConstant());
    SkipSpace();
    std::optional<RelOp> rel = ParseRelOp();
    if (!rel.has_value() && !not_equal_) return Error("expected relation");
    bool neq = not_equal_;
    not_equal_ = false;
    LCDB_ASSIGN_OR_RETURN(Vec rhs, ParseLinExpr());
    LCDB_ASSIGN_OR_RETURN(Rational rhs_const, TakeConstant());
    // Move variables left, constants right:  (lhs - rhs).x REL rc - lc.
    Vec coeffs = VecSub(lhs, rhs);
    Rational constant = rhs_const - lhs_const;
    if (neq) {
      DnfFormula lt = DnfFormula::FromAtom(LinearAtom(coeffs, RelOp::kLt, constant));
      DnfFormula gt = DnfFormula::FromAtom(LinearAtom(coeffs, RelOp::kGt, constant));
      return lt.Or(gt);
    }
    return DnfFormula::FromAtom(LinearAtom(coeffs, *rel, constant));
  }

  Result<LinearAtom> ParseAtomInner() {
    LCDB_ASSIGN_OR_RETURN(Vec lhs, ParseLinExpr());
    LCDB_ASSIGN_OR_RETURN(Rational lhs_const, TakeConstant());
    std::optional<RelOp> rel = ParseRelOp();
    if (!rel.has_value()) return Error("expected relation");
    LCDB_ASSIGN_OR_RETURN(Vec rhs, ParseLinExpr());
    LCDB_ASSIGN_OR_RETURN(Rational rhs_const, TakeConstant());
    return LinearAtom(VecSub(lhs, rhs), *rel, rhs_const - lhs_const);
  }

  bool ConsumeWord(std::string_view word) {
    SkipSpace();
    if (text_.substr(pos_, word.size()) != word) return false;
    size_t end = pos_ + word.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) ||
         text_[end] == '_')) {
      return false;
    }
    pos_ = end;
    return true;
  }

  std::optional<RelOp> ParseRelOp() {
    if (Consume("<=")) return RelOp::kLe;
    if (Consume(">=")) return RelOp::kGe;
    if (Consume("!=")) {
      not_equal_ = true;
      return std::nullopt;
    }
    if (Consume("<")) return RelOp::kLt;
    if (Consume(">")) return RelOp::kGt;
    if (Consume("=")) return RelOp::kEq;
    return std::nullopt;
  }

  /// Parses a linear expression; variable coefficients go into the returned
  /// vector and the accumulated constant is stored for `TakeConstant`.
  Result<Vec> ParseLinExpr() {
    Vec coeffs(var_names_.size());
    constant_ = Rational(0);
    bool negative = Consume("-");
    LCDB_RETURN_IF_ERROR(ParseTerm(&coeffs, negative));
    while (true) {
      SkipSpace();
      if (Consume("+")) {
        LCDB_RETURN_IF_ERROR(ParseTerm(&coeffs, false));
      } else if (Consume("-")) {
        LCDB_RETURN_IF_ERROR(ParseTerm(&coeffs, true));
      } else {
        break;
      }
    }
    return coeffs;
  }

  Result<Rational> TakeConstant() { return constant_; }

  Status ParseTerm(Vec* coeffs, bool negative) {
    SkipSpace();
    Rational coeff(1);
    bool saw_number = false;
    if (pos_ < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      LCDB_ASSIGN_OR_RETURN(coeff, ParseRational());
      saw_number = true;
    }
    Consume("*");
    SkipSpace();
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
         text_[pos_] == '_')) {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      std::string name(text_.substr(start, pos_ - start));
      size_t index = var_names_.size();
      for (size_t i = 0; i < var_names_.size(); ++i) {
        if (var_names_[i] == name) {
          index = i;
          break;
        }
      }
      if (index == var_names_.size()) {
        return Status::ParseError("unknown variable '" + name + "'");
      }
      (*coeffs)[index] += negative ? -coeff : coeff;
      return Status::Ok();
    }
    if (!saw_number) return Error("expected term");
    constant_ += negative ? -coeff : coeff;
    return Status::Ok();
  }

  Result<Rational> ParseRational() {
    LCDB_ASSIGN_OR_RETURN(BigInt numerator, ParseInteger());
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '/') {
      ++pos_;
      SkipSpace();
      LCDB_ASSIGN_OR_RETURN(BigInt denominator, ParseInteger());
      if (denominator.IsZero()) return Error("zero denominator");
      return Rational(std::move(numerator), std::move(denominator));
    }
    return Rational(std::move(numerator));
  }

  Result<BigInt> ParseInteger() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected integer");
    return BigInt::FromString(text_.substr(start, pos_ - start));
  }

  std::string_view text_;
  const std::vector<std::string>& var_names_;
  size_t pos_ = 0;
  size_t depth_ = 0;  ///< open `!` / `(` levels
  Rational constant_;
  bool not_equal_ = false;
};

}  // namespace

Result<DnfFormula> ParseDnf(std::string_view text,
                            const std::vector<std::string>& var_names) {
  ConstraintParser parser(text, var_names);
  return parser.ParseFormula();
}

Result<LinearAtom> ParseAtom(std::string_view text,
                             const std::vector<std::string>& var_names) {
  ConstraintParser parser(text, var_names);
  return parser.ParseSingleAtom();
}

}  // namespace lcdb
