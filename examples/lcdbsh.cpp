// lcdbsh — a tiny interactive shell for linear constraint databases.
//
// Commands (one per line, also usable via piped stdin):
//   db <relation-header-formula>   e.g.  db S(x, y) : x >= 0 & y >= 0
//   load <path>                    load a database file (db/io.h format)
//   regions [arr|dec]              list the regions of the chosen extension
//   encode                         print the Theorem 6.4 encoding
//   query <text>                   evaluate a query (boolean or symbolic)
//   lint <text>                    statically analyze a query: LCDB###
//                                  diagnostics with caret spans, no
//                                  evaluation (works without an extension)
//   explain <text>                 print the optimized plan (not executed)
//   explain analyze <text>         execute and print the plan annotated
//                                  with per-node timings, kernel hits, and
//                                  governor consumption
//   explain bytecode <text>        print the register-bytecode disassembly
//                                  of the optimized plan (not executed)
//   use arr|dec                    switch region extension
//   \set timeout <ms>              per-query wall-clock deadline (0 = off)
//   \set budget <name> <n>         per-query resource budget; <name> is one
//                                  of the GovernorLimits fields, <n> a count
//                                  or 'unlimited'
//   \set retries <n>               QuerySession retry budget per query
//   \set werror on|off             lint: promote analyzer warnings to
//                                  errors (CI-style gating)
//   \set sample <n>                continuous profiler: trace every nth
//                                  query (0 disables), folding sampled spans
//                                  into the profile.op.* histograms
//   \set failpoint SITE [skip]     arm a fault-injection site (util/
//                                  failpoint.h names); 'off' as SITE (or as
//                                  the argument) disarms
//   \show limits                   print the budgets in effect
//   \show cache                    print the kernel's lemma-database
//                                  occupancy, tier breakdown and hit rates
//   \show session                  print the QuerySession's resilience
//                                  telemetry: retry/resume/escalation and
//                                  quarantine counters, the last failure
//                                  class
//   \show recent                   print the flight recorder's tail: one
//                                  line per recent query (backend, outcome,
//                                  per-phase time, retries)
//   \show profile                  print the continuous profiler's state:
//                                  sample counts and per-op latency
//                                  percentiles from the sampled traces
//   help, quit
//
// Every query runs through a persistent QuerySession (engine/session.h):
// budgets reset per attempt, resource trips retry with escalated budgets
// resuming from fixpoint checkpoints, and engine faults return at once. A
// failure of any kind (parse error, type error, tripped budget, injected
// fault) prints a one-line diagnostic — naming the tripped budget when
// there is one — and the shell keeps going.
//
// Example session:
//   db S(x) : (x > 0 & x < 1) | x = 5
//   regions
//   query exists x . (S(x) & x > 2)
//   query [lfp M R R' : (R = R' & subset(R)) | (exists Z . (M(R, Z) &
//         adj(Z, R') & subset(R')))](A, A)   -- needs bound A, use Conn

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/analyzer.h"
#include "capture/encoding.h"
#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/obslog.h"
#include "engine/profiler.h"
#include "engine/session.h"
#include "util/failpoint.h"
#include "util/interrupt.h"
#include "util/strings.h"

namespace {

struct Session {
  std::optional<lcdb::ConstraintDatabase> db;
  std::unique_ptr<lcdb::RegionExtension> ext;
  bool use_decomposition = false;
  lcdb::GovernorLimits limits;  // applied to every query via ScopedGovernor
  size_t retries = 2;           // QuerySession retry budget per query
  size_t sample_every = 0;      // profiler sampling period (0 = off)
  bool werror = false;          // lint: promote warnings to errors
  // Flight recorder behind `\show recent`; installed process-wide in main()
  // so it survives extension resets and QuerySession rebuilds.
  lcdb::QueryFlightRecorder recorder;
  // The persistent retry/resume/quarantine engine. Holds a reference to
  // *ext, so every path that resets the extension resets it first.
  std::unique_ptr<lcdb::QuerySession> qsession;

  void ResetExtension() {
    qsession.reset();
    ext.reset();
  }

  bool RebuildExtension() {
    if (!db.has_value()) {
      std::printf("no database loaded; use 'db' or 'load'\n");
      return false;
    }
    if (ext == nullptr) {
      // The Build* API turns a construction-time budget trip into a Status
      // (naming the tripped budget) instead of an escaping exception, so a
      // governed rebuild inside CmdQuery/CmdExplain fails cleanly.
      auto built = use_decomposition ? lcdb::BuildDecompositionExtension(*db)
                                     : lcdb::BuildArrangementExtension(*db);
      if (!built.ok()) {
        std::printf("!! extension build failed: %s\n",
                    built.status().ToString().c_str());
        return false;
      }
      ext = std::move(built).value();
      std::printf("[%s extension: %zu regions]\n", ext->kind().c_str(),
                  ext->num_regions());
    }
    return true;
  }

  /// The shell's QuerySession, built lazily against the current extension.
  /// Stats and quarantine accumulate across queries until the extension
  /// (or the retry budget) changes.
  lcdb::QuerySession* QueryEngine() {
    if (!RebuildExtension()) return nullptr;
    if (qsession == nullptr) {
      lcdb::SessionOptions options;
      options.limits = limits;
      options.max_retries = retries;
      options.profile.sample_every = sample_every;
      qsession = std::make_unique<lcdb::QuerySession>(*ext, options);
    }
    qsession->set_limits(limits);
    return qsession.get();
  }
};

void CmdDb(Session& session, const std::string& args) {
  // Syntax: NAME(v1, v2, ...) : formula
  size_t colon = args.find(':');
  if (colon == std::string::npos) {
    std::printf("usage: db S(x, y) : <formula>\n");
    return;
  }
  auto loaded = lcdb::LoadDatabaseFromString(
      "relation " + args.substr(0, colon) + "\nformula " +
      args.substr(colon + 1));
  if (!loaded.ok()) {
    std::printf("%s\n", loaded.status().ToString().c_str());
    return;
  }
  session.db = *loaded;
  session.ResetExtension();
  std::printf("ok: %s\n", session.db->ToString().c_str());
}

void CmdLoad(Session& session, const std::string& path) {
  auto loaded = lcdb::LoadDatabaseFromFile(std::string(
      lcdb::StripWhitespace(path)));
  if (!loaded.ok()) {
    std::printf("%s\n", loaded.status().ToString().c_str());
    return;
  }
  session.db = *loaded;
  session.ResetExtension();
  std::printf("ok: %s\n", session.db->ToString().c_str());
}

void CmdRegions(Session& session) {
  if (!session.RebuildExtension()) return;
  const lcdb::RegionExtension& ext = *session.ext;
  for (size_t r = 0; r < ext.num_regions(); ++r) {
    std::printf("  R%-3zu dim=%d %s%s  witness=%s  %s\n", r, ext.RegionDim(r),
                ext.RegionBounded(r) ? "bounded  " : "unbounded",
                ext.RegionSubsetOfS(r) ? " in-S " : "      ",
                lcdb::VecToString(ext.RegionWitness(r)).c_str(),
                ext.RegionFormula(r)
                    .ToString(ext.database().var_names())
                    .c_str());
  }
}

void CmdQuery(Session& session, const std::string& text) {
  // The extension build still runs under an outer governor (the session's
  // per-attempt governors only cover evaluation); budgets reset each query
  // so a tripped build does not poison the next one.
  lcdb::QueryGovernor governor(session.limits);
  lcdb::ScopedGovernor scoped(governor);
  lcdb::QuerySession* engine = session.QueryEngine();
  if (engine == nullptr) return;
  auto answer = engine->Evaluate(text);
  if (!answer.ok()) {
    const lcdb::MetricsSnapshot metrics = engine->Metrics();
    auto tripped = metrics.labels.find("governor.tripped_budget");
    if (answer.status().IsResourceFailure() &&
        tripped != metrics.labels.end()) {
      std::printf("!! query stopped [%s] %s\n", tripped->second.c_str(),
                  answer.status().ToString().c_str());
    } else {
      std::printf("!! %s\n", answer.status().ToString().c_str());
    }
    return;
  }
  if (answer->free_vars.empty()) {
    std::printf("=> %s\n", answer->formula.IsEmpty() ? "false" : "true");
  } else {
    std::printf("=> %s\n", answer->ToString().c_str());
  }
}

void CmdLint(Session& session, const std::string& text) {
  if (!session.db.has_value()) {
    std::printf("no database loaded; use 'db' or 'load'\n");
    return;
  }
  // Lint only needs the schema; when an extension is already built its
  // region count sharpens the tuple-space check (LCDB004).
  lcdb::AnalyzerOptions options;
  if (session.ext != nullptr) options.num_regions = session.ext->num_regions();
  lcdb::LintReport report = lcdb::LintQueryText(text, *session.db, options);
  if (session.werror) {
    // Mirror lcdbq --werror: the rendered severity and the summary line
    // agree with how a CI gate would exit.
    for (lcdb::Diagnostic& d : report.diagnostics) {
      if (d.severity == lcdb::DiagSeverity::kWarning) {
        d.severity = lcdb::DiagSeverity::kError;
        --report.stats.warnings;
        ++report.stats.errors;
      }
    }
  }
  std::printf("%s", lcdb::RenderDiagnostics(report.diagnostics, text).c_str());
  std::printf("lint: %s\n", report.stats.ToString().c_str());
}

/// explain <query> | explain analyze <query> | explain bytecode <query>
void CmdExplain(Session& session, const std::string& args) {
  std::string_view rest = lcdb::StripWhitespace(args);
  bool analyze = false;
  bool bytecode = false;
  if (rest.substr(0, 7) == "analyze" &&
      (rest.size() == 7 || rest[7] == ' ')) {
    analyze = true;
    rest = lcdb::StripWhitespace(rest.substr(7));
  } else if (rest.substr(0, 8) == "bytecode" &&
             (rest.size() == 8 || rest[8] == ' ')) {
    bytecode = true;
    rest = lcdb::StripWhitespace(rest.substr(8));
  }
  if (rest.empty()) {
    std::printf("usage: explain [analyze|bytecode] <query>\n");
    return;
  }
  // Same per-query governor discipline as CmdQuery: EXPLAIN ANALYZE runs
  // the query for real, so it consumes (and reports) real budgets.
  lcdb::QueryGovernor governor(session.limits);
  lcdb::ScopedGovernor scoped(governor);
  if (!session.RebuildExtension()) return;
  auto parsed =
      lcdb::ParseQuery(std::string(rest), session.db->relation_name());
  if (!parsed.ok()) {
    std::printf("!! %s\n", parsed.status().ToString().c_str());
    return;
  }
  lcdb::Evaluator evaluator(*session.ext);
  auto text = bytecode  ? evaluator.ExplainBytecode(**parsed)
              : analyze ? evaluator.ExplainAnalyze(**parsed)
                        : evaluator.Explain(**parsed);
  if (!text.ok()) {
    const lcdb::GovernorStats gstats = governor.stats();
    if (text.status().IsResourceFailure() && !gstats.tripped_budget.empty()) {
      std::printf("!! query stopped [%s] %s\n", gstats.tripped_budget.c_str(),
                  text.status().ToString().c_str());
    } else {
      std::printf("!! %s\n", text.status().ToString().c_str());
    }
    return;
  }
  std::printf("%s", text->c_str());
}

void CmdShowSession(const Session& session) {
  if (session.qsession == nullptr) {
    std::printf("  no session yet — run a query first\n");
    return;
  }
  const lcdb::QuerySession& qs = *session.qsession;
  std::printf("  stats      %s\n", qs.stats().ToString().c_str());
  std::printf("  retries    %zu per query\n", session.retries);
  const lcdb::MetricsSnapshot metrics = qs.Metrics();
  auto last = metrics.labels.find("session.last_failure_class");
  std::printf("  last class %s\n",
              last != metrics.labels.end() ? last->second.c_str() : "none");
}

void CmdShowRecent(const Session& session) {
  if (session.recorder.appended() == 0) {
    std::printf("  flight recorder empty — run a query first\n");
    return;
  }
  std::printf("  seq   backend  outcome    status              total(us)"
              "  retries  sampled\n");
  for (const lcdb::QueryRecord& r : session.recorder.Tail(10)) {
    std::printf("  %-5llu %-8s %-10s %-19s %9llu  %-7llu %s\n",
                static_cast<unsigned long long>(r.sequence),
                r.backend.c_str(), r.outcome.c_str(), r.status_code.c_str(),
                static_cast<unsigned long long>(r.total_ns / 1000),
                static_cast<unsigned long long>(r.retries),
                r.sampled ? "yes" : "no");
  }
  std::printf("  [%llu appended, %llu dropped by the ring bound]\n",
              static_cast<unsigned long long>(session.recorder.appended()),
              static_cast<unsigned long long>(session.recorder.dropped()));
}

void CmdShowProfile(const Session& session) {
  const lcdb::ContinuousProfiler* prof =
      session.qsession ? session.qsession->profiler() : nullptr;
  if (prof == nullptr) {
    std::printf("  sampling off — enable with \\set sample <n>\n");
    return;
  }
  std::printf("  queries %llu   sampled %llu   traces retained %zu\n",
              static_cast<unsigned long long>(prof->queries_seen()),
              static_cast<unsigned long long>(prof->queries_sampled()),
              prof->retained().size());
  const lcdb::MetricsSnapshot metrics = prof->Metrics();
  for (const auto& [name, hist] : metrics.histograms) {
    if (hist.count == 0) continue;
    std::printf("  %-32s n=%-6llu p50=%lluus p90=%lluus p99=%lluus\n",
                name.c_str(), static_cast<unsigned long long>(hist.count),
                static_cast<unsigned long long>(hist.Percentile(0.5) / 1000),
                static_cast<unsigned long long>(hist.Percentile(0.9) / 1000),
                static_cast<unsigned long long>(hist.Percentile(0.99) / 1000));
  }
}

/// \set timeout <ms> | \set budget <name> <n|unlimited> |
/// \set retries <n> | \set sample <n> |
/// \set failpoint SITE [skip_hits|off] | \set failpoint off
void CmdSet(Session& session, const std::string& args) {
  std::istringstream in(args);
  std::string what;
  in >> what;
  auto parse_count = [&](uint64_t* out) {
    std::string value;
    if (!(in >> value)) return false;
    if (value == "unlimited" || value == "off") {
      *out = lcdb::GovernorLimits::kUnlimited;
      return true;
    }
    *out = std::strtoull(value.c_str(), nullptr, 10);
    return true;
  };
  if (what == "timeout") {
    uint64_t ms = 0;
    if (!parse_count(&ms)) {
      std::printf("usage: \\set timeout <ms>   (0 or 'off' disables)\n");
      return;
    }
    session.limits.wall_clock_ms =
        ms == 0 ? lcdb::GovernorLimits::kUnlimited : ms;
    std::printf("ok\n");
    return;
  }
  if (what == "werror") {
    std::string value;
    if (!(in >> value) || (value != "on" && value != "off")) {
      std::printf("usage: \\set werror on|off\n");
      return;
    }
    session.werror = value == "on";
    std::printf("ok\n");
    return;
  }
  if (what == "retries") {
    uint64_t n = 0;
    if (!parse_count(&n)) {
      std::printf("usage: \\set retries <n>\n");
      return;
    }
    session.retries = static_cast<size_t>(n);
    // The retry budget is baked into the QuerySession at construction;
    // rebuild it (stats reset too).
    session.qsession.reset();
    std::printf("ok\n");
    return;
  }
  if (what == "sample") {
    uint64_t n = 0;
    if (!parse_count(&n)) {
      std::printf("usage: \\set sample <n>   (0 or 'off' disables)\n");
      return;
    }
    session.sample_every =
        n == lcdb::GovernorLimits::kUnlimited ? 0 : static_cast<size_t>(n);
    // Like retries, the sampling policy is baked in at construction.
    session.qsession.reset();
    std::printf("ok\n");
    return;
  }
  if (what == "failpoint") {
    std::string site;
    if (!(in >> site)) {
      std::printf(
          "usage: \\set failpoint SITE [skip_hits] | \\set failpoint off\n"
          "  sites: kernel.decide qe.project arrangement.split "
          "fixpoint.stage closure.build plan.execute\n");
      return;
    }
    if (site == "off") {
      lcdb::DisarmAllFailpoints();
      std::printf("ok: all failpoints disarmed\n");
      return;
    }
    std::string arg;
    if (in >> arg && arg == "off") {
      lcdb::DisarmFailpoint(site);
      std::printf("ok: %s disarmed\n", site.c_str());
      return;
    }
    const uint64_t skip =
        arg.empty() ? 0 : std::strtoull(arg.c_str(), nullptr, 10);
    lcdb::ArmFailpoint(site, lcdb::StatusCode::kResourceExhausted,
                       "injected failure (\\set failpoint " + site + ")",
                       skip);
    std::printf("ok: %s armed (skip %llu hits)\n", site.c_str(),
                static_cast<unsigned long long>(skip));
    return;
  }
  if (what == "budget") {
    std::string name;
    uint64_t value = 0;
    if (!(in >> name) || !parse_count(&value)) {
      std::printf("usage: \\set budget <name> <n|unlimited>\n");
      return;
    }
    lcdb::GovernorLimits& l = session.limits;
    if (name == "max_feasibility_queries") {
      l.max_feasibility_queries = value;
    } else if (name == "max_simplex_pivots") {
      l.max_simplex_pivots = value;
    } else if (name == "max_fixpoint_iterations") {
      l.max_fixpoint_iterations = value;
    } else if (name == "max_tuple_space") {
      l.max_tuple_space = value;
    } else if (name == "max_dnf_disjuncts") {
      l.max_dnf_disjuncts = value;
    } else if (name == "max_bigint_bits") {
      l.max_bigint_bits = value;
    } else {
      std::printf(
          "unknown budget '%s'; one of: max_feasibility_queries, "
          "max_simplex_pivots, max_fixpoint_iterations, max_tuple_space, "
          "max_dnf_disjuncts, max_bigint_bits\n",
          name.c_str());
      return;
    }
    std::printf("ok\n");
    return;
  }
  std::printf("usage: \\set timeout <ms> | \\set budget <name> <n>\n");
}

void CmdShowLimits(const Session& session) {
  const lcdb::GovernorLimits& l = session.limits;
  auto show = [](const char* name, uint64_t v) {
    if (v == lcdb::GovernorLimits::kUnlimited) {
      std::printf("  %-24s unlimited\n", name);
    } else {
      std::printf("  %-24s %llu\n", name, static_cast<unsigned long long>(v));
    }
  };
  show("timeout (ms)", l.wall_clock_ms);
  show("max_feasibility_queries", l.max_feasibility_queries);
  show("max_simplex_pivots", l.max_simplex_pivots);
  show("max_fixpoint_iterations", l.max_fixpoint_iterations);
  show("max_tuple_space", l.max_tuple_space);
  show("max_dnf_disjuncts", l.max_dnf_disjuncts);
  show("max_bigint_bits", l.max_bigint_bits);
}

void CmdShowCache() {
  lcdb::ConstraintKernel& kernel = lcdb::CurrentKernel();
  const std::shared_ptr<lcdb::LemmaDatabase>& db = kernel.lemma_db();
  if (db == nullptr) {
    std::printf("  lemma db                 off (memoize-off)\n");
    return;
  }
  const std::array<size_t, 3> tiers = db->TierCounts();
  const lcdb::KernelStats s = kernel.stats();
  std::printf("  lemma db                 %llu / %llu entries\n",
              static_cast<unsigned long long>(db->size()),
              static_cast<unsigned long long>(db->capacity()));
  std::printf("  tiers (core/freq/trans)  %llu / %llu / %llu\n",
              static_cast<unsigned long long>(tiers[0]),
              static_cast<unsigned long long>(tiers[1]),
              static_cast<unsigned long long>(tiers[2]));
  auto rate = [](uint64_t hits, uint64_t misses) {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(total);
  };
  std::printf("  feasibility hit rate     %.1f%% (%llu/%llu)\n",
              rate(s.cache_hits, s.cache_misses),
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.cache_hits + s.cache_misses));
  std::printf("  implication hit rate     %.1f%% (%llu/%llu)\n",
              rate(s.implication_cache_hits, s.implication_cache_misses),
              static_cast<unsigned long long>(s.implication_cache_hits),
              static_cast<unsigned long long>(s.implication_cache_hits +
                                              s.implication_cache_misses));
  std::printf(
      "  evictions (c/f/t)        %llu / %llu / %llu   invalidations %llu\n",
      static_cast<unsigned long long>(s.lemma_evictions_core),
      static_cast<unsigned long long>(s.lemma_evictions_frequent),
      static_cast<unsigned long long>(s.lemma_evictions_transient),
      static_cast<unsigned long long>(s.lemma_invalidations));
}

}  // namespace

int main() {
  Session session;
  // Process-wide flight recorder: every Evaluate through the QuerySession
  // appends here, so `\show recent` works across extension resets.
  lcdb::ScopedFlightRecorder scoped_recorder(session.recorder);
  std::printf("lcdb shell — 'help' for commands\n");
  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::string_view stripped = lcdb::StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    std::string cmd(stripped.substr(0, stripped.find(' ')));
    std::string rest(stripped.size() > cmd.size()
                         ? stripped.substr(cmd.size() + 1)
                         : std::string_view{});
    if (cmd == "quit" || cmd == "exit") break;
    // Last-resort net: no command may take the shell down. CmdQuery handles
    // its own failures with budget attribution; anything escaping another
    // command (e.g. an interrupt during an ungoverned extension build)
    // lands here as a one-line diagnostic.
    try {
      if (cmd == "help") {
        std::printf(
            "  db S(x, y) : <formula>  define a database inline\n"
            "  load <path>             load a database file\n"
            "  use arr|dec             choose arrangement/decomposition\n"
            "  regions                 list regions of the extension\n"
            "  encode                  print the Theorem 6.4 word encoding\n"
            "  conn                    run the region connectivity query\n"
            "  query <text>            evaluate a query\n"
            "  lint <text>             static analysis only (LCDB### codes)\n"
            "  explain <text>          print the optimized plan\n"
            "  explain analyze <text>  run the query, print measured plan\n"
            "  explain bytecode <text> print the plan's VM disassembly\n"
            "  \\set timeout <ms>       per-query deadline (0/'off' disables)\n"
            "  \\set budget <name> <n>  per-query resource budget\n"
            "  \\set retries <n>        session retry budget per query\n"
            "  \\set werror on|off      lint: promote warnings to errors\n"
            "  \\set sample <n>         profile every nth query (0 disables)\n"
            "  \\set failpoint SITE [k] arm fault injection (skip k hits);\n"
            "                          '\\set failpoint off' disarms all\n"
            "  \\show limits            print the budgets in effect\n"
            "  \\show cache             lemma-db occupancy, tiers, hit rates\n"
            "  \\show session           retry/resume/quarantine telemetry\n"
            "  \\show recent            flight-recorder tail, one line/query\n"
            "  \\show profile           sampled per-op latency percentiles\n"
            "  quit\n");
      } else if (cmd == "db") {
        CmdDb(session, rest);
      } else if (cmd == "load") {
        CmdLoad(session, rest);
      } else if (cmd == "use") {
        session.use_decomposition = lcdb::StripWhitespace(rest) == "dec";
        session.ResetExtension();
        std::printf("using %s extension\n",
                    session.use_decomposition ? "decomposition"
                                              : "arrangement");
      } else if (cmd == "regions") {
        CmdRegions(session);
      } else if (cmd == "encode") {
        if (session.RebuildExtension()) {
          std::printf("%s\n", lcdb::EncodeDatabase(*session.ext).c_str());
        }
      } else if (cmd == "conn") {
        CmdQuery(session, lcdb::RegionConnQueryText());
      } else if (cmd == "query") {
        CmdQuery(session, rest);
      } else if (cmd == "lint") {
        CmdLint(session, rest);
      } else if (cmd == "explain") {
        CmdExplain(session, rest);
      } else if (cmd == "\\set") {
        CmdSet(session, rest);
      } else if (cmd == "\\show") {
        if (lcdb::StripWhitespace(rest) == "cache") {
          CmdShowCache();
        } else if (lcdb::StripWhitespace(rest) == "session") {
          CmdShowSession(session);
        } else if (lcdb::StripWhitespace(rest) == "recent") {
          CmdShowRecent(session);
        } else if (lcdb::StripWhitespace(rest) == "profile") {
          CmdShowProfile(session);
        } else {
          CmdShowLimits(session);
        }
      } else {
        std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
      }
    } catch (const lcdb::QueryInterrupt& interrupt) {
      std::printf("!! %s\n", interrupt.status().ToString().c_str());
    }
  }
  std::printf("\n");
  return 0;
}
