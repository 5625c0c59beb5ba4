#include "perfbench/src/replay.h"

#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/bytecode_verify.h"
#include "analysis/plan_cost.h"
#include "analysis/plan_verify.h"
#include "core/parser.h"
#include "core/resume.h"
#include "core/typecheck.h"
#include "engine/kernel.h"
#include "plan/bytecode.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "plan/vm.h"
#include "qe/fourier_motzkin.h"
#include "util/interrupt.h"

namespace lcdb::perfbench {

namespace {

constexpr double kUsPerMs = 1000.0;

/// Reads the unsigned decimal number starting at `pos`.
uint64_t ReadUint(const std::string& s, size_t pos) {
  return std::strtoull(s.c_str() + pos, nullptr, 10);
}

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  double dur_us = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// Parses QueryTracer::ToChromeTraceJson(): one "X" event per completed
/// span, whose args carry the span id, its parent's id and its counters.
std::vector<SpanRecord> ParseSpans(const std::string& json) {
  std::vector<SpanRecord> spans;
  const std::string name_key = "{\"name\":\"";
  for (size_t pos = json.find(name_key); pos != std::string::npos;
       pos = json.find(name_key, pos)) {
    SpanRecord span;
    const size_t name_start = pos + name_key.size();
    const size_t name_end = json.find('"', name_start);
    span.name = json.substr(name_start, name_end - name_start);
    const size_t dur = json.find("\"dur\":", name_end);
    span.dur_us = std::strtod(json.c_str() + dur + 6, nullptr);
    const size_t id = json.find("\"args\":{\"id\":", dur);
    span.id = ReadUint(json, id + 13);
    const size_t parent = json.find("\"parent\":", id);
    span.parent = ReadUint(json, parent + 9);
    size_t at = json.find_first_of(",}", parent);
    while (json[at] == ',') {
      const size_t key_start = at + 2;
      const size_t key_end = json.find('"', key_start);
      span.counters.emplace_back(json.substr(key_start, key_end - key_start),
                                 ReadUint(json, key_end + 2));
      at = json.find_first_of(",}", key_end + 2);
    }
    spans.push_back(std::move(span));
    pos = at;
  }
  return spans;
}

double SelfUs(const SpanSummary& s, const char* name) {
  auto it = s.find(name);
  return it == s.end() ? 0 : it->second.self_us;
}

double InclusiveUs(const SpanSummary& s, const char* name) {
  auto it = s.find(name);
  return it == s.end() ? 0 : it->second.inclusive_us;
}

uint64_t CounterSum(const SpanSummary& s, const char* name,
                    const char* counter) {
  auto it = s.find(name);
  if (it == s.end()) return 0;
  auto c = it->second.counters.find(counter);
  return c == it->second.counters.end() ? 0 : c->second;
}

/// The parsed, typechecked, analyzed, planned, optimized, costed and
/// verified query, as the Evaluator holds it before execution.
struct FrontEnd {
  FormulaPtr query;
  TypeInfo info;
  CompiledPlan plan;
  size_t nodes_built = 0;
  size_t nodes_optimized = 0;
};

/// The Evaluator's options: the default tree backend, tracing aside.
const Evaluator::Options& DefaultOptions() {
  static const Evaluator::Options options;
  return options;
}

Result<FrontEnd> RunFrontEnd(const RegionExtension& ext,
                             std::string_view text) {
  const Evaluator::Options& options = DefaultOptions();
  FrontEnd fe;
  {
    TraceSpan span("bench.parse");
    LCDB_ASSIGN_OR_RETURN(fe.query,
                          ParseQuery(text, ext.database().relation_name()));
  }
  {
    TraceSpan span("bench.typecheck");
    LCDB_ASSIGN_OR_RETURN(fe.info, TypeCheck(*fe.query, ext.database()));
  }
  CurrentKernel().BindLemmaOccurrences(ext.database().representation());
  {
    TraceSpan span("bench.analyze");
    AnalyzerOptions analyzer_options;
    analyzer_options.num_regions = ext.num_regions();
    analyzer_options.max_tuple_space = options.max_tuple_space;
    AnalysisResult analysis =
        AnalyzeQuery(*fe.query, fe.info, analyzer_options);
    if (analysis.has_errors()) {
      return AnalysisErrorStatus(analysis, std::string(text));
    }
  }
  {
    TraceSpan span("bench.plan_build");
    fe.plan = BuildPlan(*fe.query, fe.info, ext);
  }
  fe.nodes_built = CountPlanNodes(*fe.plan.root);
  {
    TraceSpan span("bench.plan_optimize");
    PlanPassStats pass_stats;
    OptimizePlan(&fe.plan, &pass_stats);
  }
  fe.nodes_optimized = CountPlanNodes(*fe.plan.root);
  {
    TraceSpan span("bench.plan_cost");
    PlanCostOptions cost_options;
    cost_options.max_tuple_space = options.max_tuple_space;
    AnalyzePlanCost(fe.plan, cost_options);
  }
  {
    TraceSpan span("bench.plan_verify");
    LCDB_RETURN_IF_ERROR(VerifyPlan(fe.plan, "after plan.optimize"));
  }
  return fe;
}

/// Drops the eliminated columns, as the Evaluator does after execution.
Result<QueryAnswer> FinishAnswer(DnfFormula result, const TypeInfo& info) {
  std::set<std::string> free(info.free_element_order.begin(),
                             info.free_element_order.end());
  for (size_t col = info.all_element_vars.size(); col-- > 0;) {
    if (free.count(info.all_element_vars[col])) continue;
    if (VariableOccurs(result, col)) {
      return Status::Internal("bound variable survived elimination");
    }
    result = DropVariable(result, col);
  }
  return QueryAnswer{std::move(result), info.free_element_order};
}

/// Runs `body`, which returns the query's answer, under a fresh tracer and
/// the Evaluator's resume collector, inside one span named `root`.
template <typename Body>
ReplayResult Traced(const char* root, Body&& body, SpanSummary* summary) {
  QueryTracer::Options tracer_options;
  tracer_options.capacity = kTracerCapacity;
  QueryTracer tracer(tracer_options);
  ReplayResult out;
  {
    ScopedTracer scoped_tracer(tracer);
    ResumeCollector collector;
    ScopedResumeCollector scoped_collector(collector);
    TraceSpan span(root);
    try {
      Result<QueryAnswer> answer = body(collector);
      if (answer.ok()) {
        out.answer = answer->ToString();
      } else {
        out.status = answer.status();
      }
    } catch (const QueryInterrupt& interrupt) {
      out.status = interrupt.status();
    }
  }
  out.spans_dropped = tracer.spans_dropped();
  *summary = Summarize(tracer);
  return out;
}

}  // namespace

SpanSummary Summarize(const QueryTracer& tracer) {
  const std::vector<SpanRecord> spans = ParseSpans(tracer.ToChromeTraceJson());
  std::map<uint64_t, double> child_us;
  for (const SpanRecord& span : spans) child_us[span.parent] += span.dur_us;
  SpanSummary summary;
  for (const SpanRecord& span : spans) {
    SpanTotals& totals = summary[span.name];
    totals.inclusive_us += span.dur_us;
    totals.self_us += span.dur_us - child_us[span.id];
    for (const auto& [name, value] : span.counters) {
      totals.counters[name] += value;
    }
  }
  return summary;
}

ReplayResult ReplayTree(const RegionExtension& ext, std::string_view text,
                        Tally& tally) {
  const KernelStats kernel_before = CurrentKernel().stats();
  Evaluator::Stats stats;
  size_t nodes_built = 0;
  size_t nodes_optimized = 0;
  SpanSummary s;
  ReplayResult out = Traced(
      "bench.query",
      [&](ResumeCollector& collector) -> Result<QueryAnswer> {
        LCDB_ASSIGN_OR_RETURN(FrontEnd fe, RunFrontEnd(ext, text));
        nodes_built = fe.nodes_built;
        nodes_optimized = fe.nodes_optimized;
        RegisterResumeSites(*fe.plan.root, collector);
        DnfFormula result = DnfFormula::False(fe.plan.num_columns);
        {
          TraceSpan span("bench.execute");
          result = ExecutePlan(fe.plan, ext, DefaultOptions(), &stats, nullptr);
        }
        return FinishAnswer(std::move(result), fe.info);
      },
      &s);
  const KernelStats k = CurrentKernel().stats() - kernel_before;

  tally["query_us"] += InclusiveUs(s, "bench.query");
  tally["core.parse_us"] += InclusiveUs(s, "bench.parse");
  tally["core.typecheck_us"] += InclusiveUs(s, "bench.typecheck");
  tally["analysis.analyze_us"] += InclusiveUs(s, "bench.analyze");
  tally["analysis.plan_verify_us"] += InclusiveUs(s, "bench.plan_verify");
  tally["analysis.cost_us"] += InclusiveUs(s, "bench.plan_cost");
  tally["plan.build_us"] += InclusiveUs(s, "bench.plan_build");
  tally["plan.optimize_us"] += InclusiveUs(s, "bench.plan_optimize");
  tally["plan.execute_ms"] += InclusiveUs(s, "bench.execute") / kUsPerMs;
  tally["plan.fixpoint_self_ms"] +=
      (SelfUs(s, "fixpoint") + SelfUs(s, "fixpoint.stage")) / kUsPerMs;
  tally["plan.closure_self_ms"] += SelfUs(s, "closure") / kUsPerMs;
  tally["plan.expand_self_ms"] +=
      (SelfUs(s, "expand.exists") + SelfUs(s, "expand.forall")) / kUsPerMs;
  tally["qe.self_ms"] += (SelfUs(s, "qe.exists") + SelfUs(s, "qe.forall") +
                          SelfUs(s, "qe.project")) /
                         kUsPerMs;
  tally["lp.solve_self_ms"] += SelfUs(s, "lp.solve") / kUsPerMs;

  tally["plan.nodes"] += nodes_built;
  tally["plan.nodes_optimized"] += nodes_optimized;
  tally["plan.fixpoint_stages"] += stats.fixpoint_iterations;
  tally["plan.bool_evals"] += stats.bool_evaluations;
  tally["plan.node_evals"] += stats.node_evaluations;
  tally["plan.memo_hits"] += stats.memo_hits;
  tally["plan.region_expansions"] += stats.region_expansions;
  tally["qe.eliminations"] += stats.qe_eliminations;
  tally["qe.disjuncts_in"] += CounterSum(s, "qe.project", "disjuncts_in");
  tally["qe.disjuncts_out"] += CounterSum(s, "qe.project", "disjuncts_out");

  tally["engine.oracle_calls"] += k.oracle_calls;
  tally["engine.feasibility_queries"] += k.feasibility_queries;
  tally["engine.implication_queries"] += k.implication_queries;
  tally["engine.cache_hits"] += k.cache_hits + k.implication_cache_hits;
  tally["engine.cache_lookups"] += k.cache_hits + k.cache_misses +
                                   k.implication_cache_hits +
                                   k.implication_cache_misses;
  tally["engine.lemma_hits"] += k.lemma_hits;
  tally["engine.lemma_lookups"] += k.lemma_hits + k.lemma_misses;
  tally["lp.simplex_calls"] += k.simplex_invocations;
  tally["lp.pivots"] += k.simplex_pivots;
  tally["trace.spans_dropped"] += out.spans_dropped;
  return out;
}

ReplayResult ReplayVm(const RegionExtension& ext, std::string_view text,
                      Tally& tally) {
  Evaluator::Options vm_options = DefaultOptions();
  vm_options.use_bytecode = true;
  Evaluator::Stats stats;
  size_t instructions = 0;
  SpanSummary s;
  ReplayResult out = Traced(
      "bench.query_vm",
      [&](ResumeCollector& collector) -> Result<QueryAnswer> {
        LCDB_ASSIGN_OR_RETURN(FrontEnd fe, RunFrontEnd(ext, text));
        RegisterResumeSites(*fe.plan.root, collector);
        BytecodeProgram program;
        {
          TraceSpan span("bench.lower");
          program = CompileToBytecode(fe.plan);
        }
        instructions = program.TotalInstructions();
        {
          TraceSpan span("bench.bytecode_verify");
          BytecodeVerifyResult verdict = VerifyBytecode(program);
          if (!verdict.status.ok()) return verdict.status;
        }
        DnfFormula result = DnfFormula::False(fe.plan.num_columns);
        {
          TraceSpan span("bench.execute_vm");
          result = ExecutePlan(fe.plan, ext, vm_options, &stats, nullptr);
        }
        return FinishAnswer(std::move(result), fe.info);
      },
      &s);
  tally["plan.lower_us"] += InclusiveUs(s, "bench.lower");
  tally["analysis.bytecode_verify_us"] +=
      InclusiveUs(s, "bench.bytecode_verify");
  // ExecutePlan lowers and verifies again before running the VM; both
  // appear as its child spans and are excluded.
  tally["plan.execute_vm_ms"] +=
      (InclusiveUs(s, "bench.execute_vm") - InclusiveUs(s, "plan.lower") -
       InclusiveUs(s, "bytecode.verify")) /
      kUsPerMs;
  tally["plan.bytecode_instructions"] += instructions;
  tally["trace.spans_dropped"] += out.spans_dropped;
  return out;
}

}  // namespace lcdb::perfbench
