// Robustness of the two text parsers: malformed, truncated and shuffled
// inputs must produce ParseError statuses — never crashes — and valid
// inputs survive mutation-based round trips.

#include <random>
#include <string>

#include <gtest/gtest.h>

#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "db/workloads.h"

namespace lcdb {
namespace {

const std::vector<std::string> kXY = {"x", "y"};

TEST(ParserRobustnessTest, TruncationsNeverCrash) {
  const std::string query =
      "forall x1 x2 y1 y2 . (S(x1, x2) & S(y1, y2) -> exists Rx Ry . ("
      "in(x1, x2; Rx) & in(y1, y2; Ry) & [lfp M R R' : (R = R' & subset(R)) "
      "| (exists Z . (M(R, Z) & adj(Z, R') & subset(R')))](Rx, Ry)))";
  for (size_t cut = 0; cut <= query.size(); ++cut) {
    auto r = ParseQuery(query.substr(0, cut), "S");
    if (cut == query.size()) {
      EXPECT_TRUE(r.ok());
    }
    // Every prefix either parses or reports a ParseError; no other outcome.
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kParseError) << cut;
    }
  }
}

TEST(ParserRobustnessTest, RandomCharacterMutationsNeverCrash) {
  const std::string base = "(x >= 0 & y >= 0 & x + y <= 4) | x = y";
  const char kNoise[] = "()[]<>=!&|+-*/;:,.xyzRS0123456789 ";
  std::mt19937_64 rng(321);
  std::uniform_int_distribution<size_t> pos(0, base.size() - 1);
  std::uniform_int_distribution<size_t> noise(0, sizeof(kNoise) - 2);
  for (int iter = 0; iter < 300; ++iter) {
    std::string mutated = base;
    for (int hits = 0; hits < 3; ++hits) {
      mutated[pos(rng)] = kNoise[noise(rng)];
    }
    auto formula = ParseDnf(mutated, kXY);
    auto query = ParseQuery(mutated, "S");
    if (!formula.ok()) {
      EXPECT_EQ(formula.status().code(), StatusCode::kParseError);
    }
    // Queries that parse must also print and reparse.
    if (query.ok()) {
      auto again = ParseQuery((*query)->ToString(), "S");
      EXPECT_TRUE(again.ok()) << mutated << " => " << (*query)->ToString();
    }
  }
}

TEST(ParserRobustnessTest, RandomTokenSoupNeverCrashes) {
  const char* kTokens[] = {"exists", "forall", "lfp",  "[",  "]", "(", ")",
                           "x",      "R",      "M",    "&",  "|", "!", "<",
                           "=",      "+",      "1",    "/",  ";", ":", ".",
                           "in",     "adj",    "hull", "tc", ","};
  std::mt19937_64 rng(654);
  std::uniform_int_distribution<size_t> pick(0, std::size(kTokens) - 1);
  std::uniform_int_distribution<int> len(1, 25);
  for (int iter = 0; iter < 400; ++iter) {
    std::string soup;
    const int n = len(rng);
    for (int i = 0; i < n; ++i) {
      soup += kTokens[pick(rng)];
      soup += " ";
    }
    auto r = ParseQuery(soup, "S");
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kParseError) << soup;
    }
  }
}

TEST(ParserRobustnessTest, DatabaseFilesMalformed) {
  const char* kBad[] = {
      "relation S(x)\nformula x < ",
      "relation S(x\nformula x < 1",
      "relation (x)\nformula x < 1",
      "relation S()\nformula x < 1",
      "relation S(x) extra\nformula x < 1",
      "formula x < 1\nrelation S(x)",
      "relation S(x)\nrelation T(y)\nformula x < 1",
      // Header variables are distinct identifiers, as ParseDnf lexes them:
      // a repeat would bind every occurrence to its first column, and a
      // numeral would read as a constant in the formula.
      "relation S(x, x)\nformula x > 0",
      "relation S(2)\nformula 2 > 0",
  };
  for (const char* text : kBad) {
    auto r = LoadDatabaseFromString(text);
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << text;
  }
  // The duplicate-relation case: last header wins or error — either way no
  // crash; currently the second header replaces... verify defined error.
}

TEST(ParserRobustnessTest, DeeplyNestedParensParse) {
  std::string deep = "x < 1";
  for (int i = 0; i < 200; ++i) deep = "(" + deep + ")";
  auto f = ParseDnf(deep, kXY);
  ASSERT_TRUE(f.ok());
  auto q = ParseQuery(deep, "S");
  EXPECT_TRUE(q.ok());
  std::string unbalanced = "(" + deep;
  EXPECT_FALSE(ParseDnf(unbalanced, kXY).ok());
  EXPECT_FALSE(ParseQuery(unbalanced, "S").ok());
}

TEST(ParserRobustnessTest, NestingPastTheLimitIsAParseError) {
  // 10,000 levels used to overflow the parser's stack (exit 139), for a
  // malformed and for a well-formed query alike.
  const std::string inputs[] = {
      std::string(10000, '('),
      std::string(10000, '!') + "exists x y . S(x, y)",
      std::string(10000, '(') + "S(x, y)" + std::string(10000, ')'),
      "S(" + std::string(10000, '-') + "x, y)",
      [] {  // right-associative implications recurse per arrow
        std::string chain = "true";
        for (int i = 0; i < 10000; ++i) chain += " -> true";
        return chain;
      }(),
      [] {  // left-associative conjunctions nest only the AST
        std::string chain = "true";
        for (int i = 0; i < 10000; ++i) chain += " & true";
        return chain;
      }(),
  };
  for (const std::string& text : inputs) {
    auto q = ParseQuery(text, "S");
    ASSERT_FALSE(q.ok()) << text.substr(0, 40);
    EXPECT_EQ(q.status().code(), StatusCode::kParseError);
    EXPECT_NE(q.status().message().find(
                  "limit of " + std::to_string(kMaxQueryNesting)),
              std::string::npos)
        << q.status().ToString();
  }
}

TEST(ParserRobustnessTest, DatabaseFormulaNestingIsCapped) {
  // A `.lcdb` formula line 100,000 deep used to overflow the constraint
  // parser's stack (lcdbq exit 139) for `(` and `!` alike.
  const std::string header = "relation S(x)\nformula ";
  for (const std::string& formula :
       {std::string(10000, '(') + "x < 1" + std::string(10000, ')'),
        std::string(10000, '!') + "x < 1"}) {
    auto db = LoadDatabaseFromString(header + formula);
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kParseError);
    EXPECT_NE(db.status().message().find(
                  "limit of " + std::to_string(kMaxQueryNesting)),
              std::string::npos);
  }
  // Exactly at the limit the formula loads; one level more does not.
  const std::string parens = std::string(kMaxQueryNesting, '(') + "x < 1" +
                             std::string(kMaxQueryNesting, ')');
  auto at_limit = LoadDatabaseFromString(header + parens);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_FALSE(LoadDatabaseFromString(header + "(" + parens + ")").ok());
  const std::string negations = std::string(kMaxQueryNesting, '!') + "x < 1";
  auto negated = LoadDatabaseFromString(header + negations);
  ASSERT_TRUE(negated.ok()) << negated.status().ToString();
  EXPECT_EQ(negated->representation().ToString(),
            ParseDnf("x < 1", {"x"})->ToString());  // an even count
  EXPECT_FALSE(LoadDatabaseFromString(header + "!" + negations).ok());
}

TEST(ParserRobustnessTest, QueryAtTheNestingLimitEvaluates) {
  // AST depth exactly kMaxQueryNesting: the negations, two quantifier nodes
  // and the relation atom. Typecheck, analysis, planning, verification and
  // evaluation all recurse over it; none may crash, on any backend.
  const size_t negations = kMaxQueryNesting - 3;
  const std::string text =
      std::string(negations, '!') + "exists x y . S(x, y)";
  ASSERT_TRUE(ParseQuery(text, "S").ok());
  ASSERT_FALSE(ParseQuery("!" + text, "S").ok());
  ConstraintDatabase db = MakeComb(1, true);
  auto ext = MakeArrangementExtension(db);
  for (int backend = 0; backend < 3; ++backend) {
    SCOPED_TRACE(backend);
    Evaluator::Options options;
    options.use_plan = backend != 0;
    options.use_bytecode = backend == 2;
    auto truth = EvaluateSentenceText(*ext, text, options);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_EQ(*truth, negations % 2 == 0);  // S is nonempty
  }
}

TEST(ParserRobustnessTest, HugeNumbersParseExactly) {
  const std::string big =
      "x <= 123456789012345678901234567890123456789/"
      "98765432109876543210987654321";
  auto f = ParseDnf(big, kXY);
  ASSERT_TRUE(f.ok());
  // Exactness: the atom survives the round trip unchanged semantically.
  auto again = ParseDnf(f->ToString(kXY), kXY);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(f->ToString(kXY), again->ToString(kXY));
}

}  // namespace
}  // namespace lcdb
