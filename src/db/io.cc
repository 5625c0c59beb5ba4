#include "db/io.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>

#include "constraint/parser.h"
#include "util/strings.h"

namespace lcdb {

namespace {

/// The variable names ParseDnf lexes: [A-Za-z_][A-Za-z0-9_]*.
bool IsIdentifier(std::string_view s) {
  if (s.empty() ||
      !(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

Status ParseHeader(std::string_view line, std::string* name,
                   std::vector<std::string>* vars) {
  // relation NAME(v1, v2, ...)
  std::string_view rest = StripWhitespace(line.substr(strlen("relation")));
  size_t open = rest.find('(');
  size_t close = rest.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return Status::ParseError("malformed relation header: " +
                              std::string(line));
  }
  *name = std::string(StripWhitespace(rest.substr(0, open)));
  if (name->empty()) return Status::ParseError("relation needs a name");
  if (!StripWhitespace(rest.substr(close + 1)).empty()) {
    return Status::ParseError("trailing input after relation header: " +
                              std::string(line));
  }
  for (const std::string& v :
       Split(rest.substr(open + 1, close - open - 1), ',')) {
    std::string trimmed(StripWhitespace(v));
    if (trimmed.empty()) {
      return Status::ParseError("empty variable name in header");
    }
    if (!IsIdentifier(trimmed)) {
      return Status::ParseError("variable name '" + trimmed +
                                "' in header is not an identifier");
    }
    if (std::find(vars->begin(), vars->end(), trimmed) != vars->end()) {
      return Status::ParseError("variable '" + trimmed +
                                "' repeats in header");
    }
    vars->push_back(std::move(trimmed));
  }
  if (vars->empty()) return Status::ParseError("relation needs variables");
  return Status::Ok();
}

}  // namespace

Result<ConstraintDatabase> LoadDatabaseFromString(std::string_view text) {
  std::string name;
  std::vector<std::string> vars;
  std::string formula_text;
  bool in_formula = false;
  bool saw_relation = false;
  for (const std::string& raw : Split(text, '\n')) {
    std::string_view line = StripWhitespace(raw);
    if (in_formula) {
      formula_text += " ";
      formula_text += line;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    if (StartsWith(line, "relation")) {
      if (saw_relation) {
        // One spatial relation per database (the paper's Section 2
        // restriction, which this format follows).
        return Status::ParseError("duplicate relation header");
      }
      LCDB_RETURN_IF_ERROR(ParseHeader(line, &name, &vars));
      saw_relation = true;
    } else if (StartsWith(line, "formula")) {
      if (!saw_relation) {
        return Status::ParseError("formula before relation header");
      }
      formula_text = std::string(StripWhitespace(line.substr(strlen("formula"))));
      in_formula = true;
    } else {
      return Status::ParseError("unexpected line: " + std::string(line));
    }
  }
  if (!saw_relation) return Status::ParseError("missing relation header");
  if (!in_formula) return Status::ParseError("missing formula");
  LCDB_ASSIGN_OR_RETURN(DnfFormula formula, ParseDnf(formula_text, vars));
  return ConstraintDatabase(std::move(name), std::move(formula),
                            std::move(vars));
}

Result<ConstraintDatabase> LoadDatabaseFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return LoadDatabaseFromString(buffer.str());
}

std::string SaveDatabaseToString(const ConstraintDatabase& db) {
  std::string out = "# lcdb constraint database\nrelation ";
  out += db.relation_name() + "(";
  for (size_t i = 0; i < db.var_names().size(); ++i) {
    if (i > 0) out += ", ";
    out += db.var_names()[i];
  }
  out += ")\nformula ";
  out += db.representation().ToString(db.var_names());
  out += "\n";
  return out;
}

Status SaveDatabaseToFile(const ConstraintDatabase& db,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << SaveDatabaseToString(db);
  return Status::Ok();
}

}  // namespace lcdb
