#include "core/parser.h"

#include <cctype>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace lcdb {
namespace {

enum class TokenKind {
  kIdent,
  kNumber,
  kSymbol,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  size_t offset = 0;
};

/// Splits the input into identifiers, integer literals and operator symbols.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t pos = 0;
    auto symbol = [&](std::string s) {
      out.push_back({TokenKind::kSymbol, std::move(s), pos});
    };
    while (pos < text_.size()) {
      const char c = text_[pos];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos;
        while (pos < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos])) ||
                text_[pos] == '_' || text_[pos] == '\'')) {
          ++pos;
        }
        out.push_back({TokenKind::kIdent,
                       std::string(text_.substr(start, pos - start)), start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t start = pos;
        while (pos < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos]))) {
          ++pos;
        }
        out.push_back({TokenKind::kNumber,
                       std::string(text_.substr(start, pos - start)), start});
        continue;
      }
      // Multi-character operators first.
      auto two = text_.substr(pos, 2);
      auto three = text_.substr(pos, 3);
      if (three == "<->") {
        symbol("<->");
        pos += 3;
      } else if (two == "->" || two == "<=" || two == ">=" || two == "!=") {
        symbol(std::string(two));
        pos += 2;
      } else if (std::string("()[],;:.&|!<>=+-*/").find(c) !=
                 std::string::npos) {
        symbol(std::string(1, c));
        pos += 1;
      } else {
        return Status::ParseError("unexpected character '" +
                                  std::string(1, c) + "' at offset " +
                                  std::to_string(pos));
      }
    }
    out.push_back({TokenKind::kEnd, "", text_.size()});
    return out;
  }

 private:
  std::string_view text_;
};

bool IsRegionName(const std::string& name) {
  return !name.empty() && std::isupper(static_cast<unsigned char>(name[0]));
}

bool IsElementName(const std::string& name) {
  return !name.empty() && std::islower(static_cast<unsigned char>(name[0]));
}

const char* const kKeywords[] = {"exists", "forall", "in",  "adj",  "subset",
                                 "meets",  "dim",    "bounded", "true", "false",
                                 "lfp",    "ifp",    "pfp", "tc",   "dtc",
                                 "rbit",   "hull"};

bool IsKeyword(const std::string& name) {
  for (const char* kw : kKeywords) {
    if (name == kw) return true;
  }
  return false;
}

class QueryParser {
 public:
  QueryParser(std::vector<Token> tokens, std::string relation_name)
      : tokens_(std::move(tokens)), relation_(std::move(relation_name)) {}

  Result<FormulaPtr> Parse() {
    LCDB_ASSIGN_OR_RETURN(FormulaPtr f, ParseIff());
    if (!AtEnd()) return Error("unexpected trailing input");
    // Left-associative chains (a & b & ...) nest the AST without nesting
    // the parser's recursion, so the tree is measured too — iteratively.
    std::vector<std::pair<const FormulaNode*, size_t>> stack = {{f.get(), 1}};
    while (!stack.empty()) {
      auto [node, depth] = stack.back();
      stack.pop_back();
      if (depth > kMaxQueryNesting) return NestingError();
      for (const auto& child : node->children) {
        if (child != nullptr) stack.emplace_back(child.get(), depth + 1);
      }
    }
    return f;
  }

 private:
  /// One level of parser recursion; `ok()` is false past the limit.
  class NestingLevel {
   public:
    explicit NestingLevel(size_t* depth) : depth_(depth) { ++*depth_; }
    ~NestingLevel() { --*depth_; }
    NestingLevel(const NestingLevel&) = delete;
    NestingLevel& operator=(const NestingLevel&) = delete;
    bool ok() const { return *depth_ <= kMaxQueryNesting; }

   private:
    size_t* depth_;
  };

  Status NestingError() const {
    return Status::ParseError("query nesting exceeds the limit of " +
                              std::to_string(kMaxQueryNesting) +
                              " levels near offset " +
                              std::to_string(Cur().offset));
  }

  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Ahead(size_t k) const {
    return tokens_[std::min(pos_ + k, tokens_.size() - 1)];
  }
  bool AtEnd() const { return Cur().kind == TokenKind::kEnd; }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " near offset " +
                              std::to_string(Cur().offset) + " ('" +
                              Cur().text + "')");
  }

  /// Offset where the formula whose parse is about to begin starts.
  size_t StartOffset() const { return Cur().offset; }

  /// One past the end of the most recently consumed token.
  size_t EndOffset() const {
    const Token& prev = tokens_[pos_ == 0 ? 0 : pos_ - 1];
    return prev.offset + prev.text.size();
  }

  /// Stamps `node` with the source range [begin, EndOffset()). Applied on
  /// every production exit, so each AST node points at the tokens it came
  /// from; desugared nodes (e.g. the two compares of `!=`) share the range
  /// of the surface syntax they expand.
  FormulaPtr Span(FormulaPtr node, size_t begin) {
    node->span.begin = begin;
    node->span.end = EndOffset();
    return node;
  }

  bool ConsumeSymbol(const std::string& s) {
    if (Cur().kind == TokenKind::kSymbol && Cur().text == s) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeIdent(const std::string& s) {
    if (Cur().kind == TokenKind::kIdent && Cur().text == s) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ExpectIdent(const std::string& what) {
    if (Cur().kind != TokenKind::kIdent) return Error("expected " + what);
    std::string name = Cur().text;
    ++pos_;
    return name;
  }

  Status ExpectSymbol(const std::string& s) {
    if (!ConsumeSymbol(s)) return Error("expected '" + s + "'");
    return Status::Ok();
  }

  Result<FormulaPtr> ParseIff() {
    const size_t begin = StartOffset();
    LCDB_ASSIGN_OR_RETURN(FormulaPtr f, ParseImplies());
    while (ConsumeSymbol("<->")) {
      LCDB_ASSIGN_OR_RETURN(FormulaPtr g, ParseImplies());
      f = Span(MakeIff(std::move(f), std::move(g)), begin);
    }
    return f;
  }

  Result<FormulaPtr> ParseImplies() {
    const size_t begin = StartOffset();
    LCDB_ASSIGN_OR_RETURN(FormulaPtr f, ParseOr());
    if (ConsumeSymbol("->")) {
      NestingLevel level(&depth_);  // right-associative: recurses per arrow
      if (!level.ok()) return NestingError();
      LCDB_ASSIGN_OR_RETURN(FormulaPtr g, ParseImplies());  // right assoc
      return Span(MakeImplies(std::move(f), std::move(g)), begin);
    }
    return f;
  }

  Result<FormulaPtr> ParseOr() {
    const size_t begin = StartOffset();
    LCDB_ASSIGN_OR_RETURN(FormulaPtr f, ParseAnd());
    while (ConsumeSymbol("|")) {
      LCDB_ASSIGN_OR_RETURN(FormulaPtr g, ParseAnd());
      f = Span(MakeOr(std::move(f), std::move(g)), begin);
    }
    return f;
  }

  Result<FormulaPtr> ParseAnd() {
    const size_t begin = StartOffset();
    LCDB_ASSIGN_OR_RETURN(FormulaPtr f, ParseUnary());
    while (ConsumeSymbol("&")) {
      LCDB_ASSIGN_OR_RETURN(FormulaPtr g, ParseUnary());
      f = Span(MakeAnd(std::move(f), std::move(g)), begin);
    }
    return f;
  }

  Result<FormulaPtr> ParseUnary() {
    NestingLevel level(&depth_);
    if (!level.ok()) return NestingError();
    const size_t begin = StartOffset();
    if (ConsumeSymbol("!")) {
      LCDB_ASSIGN_OR_RETURN(FormulaPtr f, ParseUnary());
      return Span(MakeNot(std::move(f)), begin);
    }
    if (Cur().kind == TokenKind::kIdent &&
        (Cur().text == "exists" || Cur().text == "forall")) {
      return ParseQuantifier();
    }
    if (Cur().kind == TokenKind::kSymbol && Cur().text == "[") {
      return ParseFixpoint();
    }
    if (ConsumeSymbol("(")) {
      LCDB_ASSIGN_OR_RETURN(FormulaPtr f, ParseIff());
      LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return f;
    }
    return ParseAtom();
  }

  Result<FormulaPtr> ParseQuantifier() {
    const size_t begin = StartOffset();
    const bool universal = Cur().text == "forall";
    ++pos_;
    std::vector<std::string> vars;
    while (Cur().kind == TokenKind::kIdent && !IsKeyword(Cur().text)) {
      vars.push_back(Cur().text);
      ++pos_;
      ConsumeSymbol(",");
    }
    if (vars.empty()) return Error("expected quantified variable");
    const bool dotted = ConsumeSymbol(".");
    const bool body_start =
        (Cur().kind == TokenKind::kSymbol &&
         (Cur().text == "(" || Cur().text == "[" || Cur().text == "!")) ||
        (Cur().kind == TokenKind::kIdent && IsKeyword(Cur().text));
    if (!dotted && !body_start) {
      return Error("expected '.' or a parenthesized body after quantified "
                   "variables");
    }
    LCDB_ASSIGN_OR_RETURN(FormulaPtr body, ParseUnary());
    for (size_t i = vars.size(); i-- > 0;) {
      const std::string& v = vars[i];
      if (IsElementName(v)) {
        body = universal ? MakeForallElem(v, std::move(body))
                         : MakeExistsElem(v, std::move(body));
      } else if (IsRegionName(v)) {
        body = universal ? MakeForallRegion(v, std::move(body))
                         : MakeExistsRegion(v, std::move(body));
      } else {
        return Error("cannot determine sort of variable '" + v + "'");
      }
      body = Span(std::move(body), begin);
    }
    return body;
  }

  Result<FormulaPtr> ParseFixpoint() {
    const size_t begin = StartOffset();
    LCDB_RETURN_IF_ERROR(ExpectSymbol("["));
    Result<FormulaPtr> f = [&]() -> Result<FormulaPtr> {
      if (ConsumeIdent("lfp")) return ParseLfpLike(NodeKind::kLfp);
      if (ConsumeIdent("ifp")) return ParseLfpLike(NodeKind::kIfp);
      if (ConsumeIdent("pfp")) return ParseLfpLike(NodeKind::kPfp);
      if (ConsumeIdent("tc")) return ParseTcLike(NodeKind::kTc);
      if (ConsumeIdent("dtc")) return ParseTcLike(NodeKind::kDtc);
      if (ConsumeIdent("rbit")) return ParseRbit();
      if (ConsumeIdent("hull")) return ParseHull();
      return Error("expected lfp/ifp/pfp/tc/dtc/rbit/hull after '['");
    }();
    if (!f.ok()) return f.status();
    return Span(std::move(*f), begin);
  }

  Result<FormulaPtr> ParseLfpLike(NodeKind op) {
    LCDB_ASSIGN_OR_RETURN(std::string set_var, ExpectIdent("set variable"));
    if (!IsRegionName(set_var)) {
      return Error("set variable must start uppercase: " + set_var);
    }
    ConsumeSymbol(",");
    std::vector<std::string> bound;
    while (Cur().kind == TokenKind::kIdent) {
      bound.push_back(Cur().text);
      ++pos_;
      ConsumeSymbol(",");
    }
    if (bound.empty()) return Error("fixed point needs bound region vars");
    LCDB_RETURN_IF_ERROR(ExpectSymbol(":"));
    LCDB_ASSIGN_OR_RETURN(FormulaPtr body, ParseIff());
    LCDB_RETURN_IF_ERROR(ExpectSymbol("]"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<std::string> args;
    LCDB_RETURN_IF_ERROR(ParseRegionList(&args, ")"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return MakeFixpoint(op, std::move(set_var), std::move(bound),
                        std::move(body), std::move(args));
  }

  Result<FormulaPtr> ParseTcLike(NodeKind op) {
    std::vector<std::string> first, second;
    LCDB_RETURN_IF_ERROR(ParseRegionList(&first, ";"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(";"));
    LCDB_RETURN_IF_ERROR(ParseRegionList(&second, ":"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(":"));
    if (first.size() != second.size() || first.empty()) {
      return Error("TC needs equal-length nonempty variable tuples");
    }
    LCDB_ASSIGN_OR_RETURN(FormulaPtr body, ParseIff());
    LCDB_RETURN_IF_ERROR(ExpectSymbol("]"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<std::string> args, args2;
    LCDB_RETURN_IF_ERROR(ParseRegionList(&args, ";"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(";"));
    LCDB_RETURN_IF_ERROR(ParseRegionList(&args2, ")"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    std::vector<std::string> bound = std::move(first);
    bound.insert(bound.end(), second.begin(), second.end());
    return MakeTransitiveClosure(op, std::move(bound), std::move(body),
                                 std::move(args), std::move(args2));
  }

  Result<FormulaPtr> ParseRbit() {
    LCDB_ASSIGN_OR_RETURN(std::string var, ExpectIdent("element variable"));
    if (!IsElementName(var)) {
      return Error("rbit variable must be element-sorted: " + var);
    }
    LCDB_RETURN_IF_ERROR(ExpectSymbol(":"));
    LCDB_ASSIGN_OR_RETURN(FormulaPtr body, ParseIff());
    LCDB_RETURN_IF_ERROR(ExpectSymbol("]"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol("("));
    LCDB_ASSIGN_OR_RETURN(std::string rn, ExpectIdent("region variable"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(","));
    LCDB_ASSIGN_OR_RETURN(std::string rd, ExpectIdent("region variable"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return MakeRbit(std::move(var), std::move(body), std::move(rn),
                    std::move(rd));
  }

  Result<FormulaPtr> ParseHull() {
    std::vector<std::string> vars;
    while (Cur().kind == TokenKind::kIdent && !IsKeyword(Cur().text)) {
      if (!IsElementName(Cur().text)) {
        return Error("hull variables must be element-sorted");
      }
      vars.push_back(Cur().text);
      ++pos_;
      ConsumeSymbol(",");
    }
    if (vars.empty()) return Error("hull needs bound element variables");
    LCDB_RETURN_IF_ERROR(ExpectSymbol(":"));
    LCDB_ASSIGN_OR_RETURN(FormulaPtr body, ParseIff());
    LCDB_RETURN_IF_ERROR(ExpectSymbol("]"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<ElementTerm> terms;
    LCDB_RETURN_IF_ERROR(ParseTermList(&terms, ")"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    if (terms.size() != vars.size()) {
      return Error("hull applied to wrong-length term tuple");
    }
    return MakeHull(std::move(vars), std::move(body), std::move(terms));
  }

  /// Parses region names separated by ',' until `terminator` is seen
  /// (not consumed).
  Status ParseRegionList(std::vector<std::string>* out,
                         const std::string& terminator) {
    while (true) {
      if (Cur().kind == TokenKind::kSymbol && Cur().text == terminator) {
        return Status::Ok();
      }
      LCDB_ASSIGN_OR_RETURN(std::string name, ExpectIdent("region variable"));
      if (!IsRegionName(name)) {
        return Error("expected region variable, got '" + name + "'");
      }
      out->push_back(std::move(name));
      if (!ConsumeSymbol(",")) {
        if (Cur().kind == TokenKind::kSymbol && Cur().text == terminator) {
          return Status::Ok();
        }
        return Error("expected ',' or '" + terminator + "'");
      }
    }
  }

  Result<FormulaPtr> ParseAtom() {
    const size_t begin = StartOffset();
    // Stamps the atom (however deep its helper parser recursed) with the
    // tokens consumed since `begin`.
    auto spanned = [&](Result<FormulaPtr> r) -> Result<FormulaPtr> {
      if (!r.ok()) return r.status();
      return Span(std::move(*r), begin);
    };
    if (ConsumeIdent("true")) return Span(MakeTrue(), begin);
    if (ConsumeIdent("false")) return Span(MakeFalse(), begin);
    if (ConsumeIdent("in")) return spanned(ParseInAtom());
    if (ConsumeIdent("adj")) return spanned(ParseTwoRegionAtom(&MakeAdjacent));
    if (ConsumeIdent("subset")) {
      return spanned(ParseOneRegionAtom(&MakeSubsetS));
    }
    if (ConsumeIdent("meets")) {
      return spanned(ParseOneRegionAtom(&MakeIntersectsS));
    }
    if (ConsumeIdent("bounded")) {
      return spanned(ParseOneRegionAtom(&MakeBoundedAtom));
    }
    if (ConsumeIdent("dim")) return spanned(ParseDimAtom());

    // NAME(...): relation atom or set atom.
    if (Cur().kind == TokenKind::kIdent && Ahead(1).kind == TokenKind::kSymbol &&
        Ahead(1).text == "(" && !IsKeyword(Cur().text)) {
      std::string name = Cur().text;
      if (name == relation_) {
        pos_ += 2;
        std::vector<ElementTerm> terms;
        LCDB_RETURN_IF_ERROR(ParseTermList(&terms, ")"));
        LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
        return Span(MakeRelationAtom(std::move(name), std::move(terms)),
                    begin);
      }
      if (IsRegionName(name)) {
        pos_ += 2;
        std::vector<std::string> args;
        LCDB_RETURN_IF_ERROR(ParseRegionList(&args, ")"));
        LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
        return Span(MakeSetAtom(std::move(name), std::move(args)), begin);
      }
      return Error("unknown predicate '" + name + "'");
    }

    // Region equality R1 = R2.
    if (Cur().kind == TokenKind::kIdent && IsRegionName(Cur().text)) {
      std::string r1 = Cur().text;
      ++pos_;
      if (ConsumeSymbol("=")) {
        LCDB_ASSIGN_OR_RETURN(std::string r2, ExpectIdent("region variable"));
        if (!IsRegionName(r2)) {
          return Error("region compared with non-region '" + r2 + "'");
        }
        return Span(MakeRegionEq(std::move(r1), std::move(r2)), begin);
      }
      if (ConsumeSymbol("!=")) {
        LCDB_ASSIGN_OR_RETURN(std::string r2, ExpectIdent("region variable"));
        if (!IsRegionName(r2)) {
          return Error("region compared with non-region '" + r2 + "'");
        }
        return Span(
            MakeNot(Span(MakeRegionEq(std::move(r1), std::move(r2)), begin)),
            begin);
      }
      return Error("region variable in element-term position");
    }

    // Element comparison.
    LCDB_ASSIGN_OR_RETURN(ElementTerm lhs, ParseTerm());
    std::optional<RelOp> rel;
    bool neq = false;
    if (ConsumeSymbol("<=")) {
      rel = RelOp::kLe;
    } else if (ConsumeSymbol(">=")) {
      rel = RelOp::kGe;
    } else if (ConsumeSymbol("!=")) {
      neq = true;
    } else if (ConsumeSymbol("<")) {
      rel = RelOp::kLt;
    } else if (ConsumeSymbol(">")) {
      rel = RelOp::kGt;
    } else if (ConsumeSymbol("=")) {
      rel = RelOp::kEq;
    } else {
      return Error("expected comparison operator");
    }
    LCDB_ASSIGN_OR_RETURN(ElementTerm rhs, ParseTerm());
    if (neq) {
      return Span(MakeOr(Span(MakeCompare(lhs, RelOp::kLt, rhs), begin),
                         Span(MakeCompare(lhs, RelOp::kGt, rhs), begin)),
                  begin);
    }
    return Span(MakeCompare(std::move(lhs), *rel, std::move(rhs)), begin);
  }

  Result<FormulaPtr> ParseInAtom() {
    LCDB_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<ElementTerm> terms;
    LCDB_RETURN_IF_ERROR(ParseTermList(&terms, ";"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(";"));
    LCDB_ASSIGN_OR_RETURN(std::string region, ExpectIdent("region variable"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return MakeInRegion(std::move(terms), std::move(region));
  }

  Result<FormulaPtr> ParseOneRegionAtom(FormulaPtr (*make)(std::string)) {
    LCDB_RETURN_IF_ERROR(ExpectSymbol("("));
    LCDB_ASSIGN_OR_RETURN(std::string r, ExpectIdent("region variable"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return make(std::move(r));
  }

  Result<FormulaPtr> ParseTwoRegionAtom(
      FormulaPtr (*make)(std::string, std::string)) {
    LCDB_RETURN_IF_ERROR(ExpectSymbol("("));
    LCDB_ASSIGN_OR_RETURN(std::string r1, ExpectIdent("region variable"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(","));
    LCDB_ASSIGN_OR_RETURN(std::string r2, ExpectIdent("region variable"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return make(std::move(r1), std::move(r2));
  }

  Result<FormulaPtr> ParseDimAtom() {
    LCDB_RETURN_IF_ERROR(ExpectSymbol("("));
    LCDB_ASSIGN_OR_RETURN(std::string r, ExpectIdent("region variable"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    LCDB_RETURN_IF_ERROR(ExpectSymbol("="));
    if (Cur().kind != TokenKind::kNumber) return Error("expected dimension");
    int dim = std::stoi(Cur().text);
    ++pos_;
    return MakeDimAtom(std::move(r), dim);
  }

  Status ParseTermList(std::vector<ElementTerm>* out,
                       const std::string& terminator) {
    while (true) {
      LCDB_ASSIGN_OR_RETURN(ElementTerm t, ParseTerm());
      out->push_back(std::move(t));
      if (!ConsumeSymbol(",")) {
        if (Cur().kind == TokenKind::kSymbol && Cur().text == terminator) {
          return Status::Ok();
        }
        return Error("expected ',' or '" + terminator + "'");
      }
    }
  }

  Result<ElementTerm> ParseTerm() {
    LCDB_ASSIGN_OR_RETURN(ElementTerm t, ParseTermFactor(false));
    while (true) {
      if (ConsumeSymbol("+")) {
        LCDB_ASSIGN_OR_RETURN(ElementTerm u, ParseTermFactor(false));
        t = t.Plus(u);
      } else if (ConsumeSymbol("-")) {
        LCDB_ASSIGN_OR_RETURN(ElementTerm u, ParseTermFactor(false));
        t = t.Minus(u);
      } else {
        break;
      }
    }
    return t;
  }

  Result<ElementTerm> ParseTermFactor(bool negated) {
    if (ConsumeSymbol("-")) {
      NestingLevel level(&depth_);
      if (!level.ok()) return NestingError();
      return ParseTermFactor(!negated);
    }
    Rational coeff(1);
    bool saw_number = false;
    if (Cur().kind == TokenKind::kNumber) {
      LCDB_ASSIGN_OR_RETURN(coeff, ParseRationalLiteral());
      saw_number = true;
      ConsumeSymbol("*");
    }
    if (Cur().kind == TokenKind::kIdent && !IsKeyword(Cur().text)) {
      if (!IsElementName(Cur().text)) {
        return Error("region variable '" + Cur().text +
                     "' used as element term");
      }
      ElementTerm t = ElementTerm::Variable(Cur().text);
      ++pos_;
      t = t.Scaled(negated ? -coeff : coeff);
      return t;
    }
    if (!saw_number) return Error("expected term");
    return ElementTerm::Constant(negated ? -coeff : coeff);
  }

  Result<Rational> ParseRationalLiteral() {
    LCDB_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(Cur().text));
    ++pos_;
    if (Cur().kind == TokenKind::kSymbol && Cur().text == "/" &&
        Ahead(1).kind == TokenKind::kNumber) {
      ++pos_;
      LCDB_ASSIGN_OR_RETURN(BigInt den, BigInt::FromString(Cur().text));
      ++pos_;
      if (den.IsZero()) return Error("zero denominator");
      return Rational(std::move(num), std::move(den));
    }
    return Rational(std::move(num));
  }

  std::vector<Token> tokens_;
  std::string relation_;
  size_t pos_ = 0;
  size_t depth_ = 0;  ///< current parser recursion (NestingLevel)
};

}  // namespace

Result<FormulaPtr> ParseQuery(std::string_view text,
                              const std::string& relation_name) {
  Lexer lexer(text);
  LCDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  QueryParser parser(std::move(tokens), relation_name);
  return parser.Parse();
}

}  // namespace lcdb
