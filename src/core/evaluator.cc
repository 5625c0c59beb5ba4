#include "core/evaluator.h"

#include <algorithm>
#include <optional>

#include "analysis/analyzer.h"
#include "analysis/bytecode_verify.h"
#include "analysis/plan_verify.h"
#include "constraint/canonical.h"
#include "analysis/plan_cost.h"
#include "core/parser.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/obslog.h"
#include "engine/trace.h"
#include "geometry/convex_closure.h"
#include "plan/bytecode.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "plan/vm.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

Evaluator::Evaluator(const RegionExtension& extension)
    : Evaluator(extension, Options()) {}

Evaluator::Evaluator(const RegionExtension& extension, Options options)
    : ext_(extension), options_(options) {}

namespace {

/// Pre-checks that every fixed-point and TC operator's region-tuple space
/// n^k stays within the configured cap, so evaluation cannot run away on
/// adversarial arities (returned as a Status instead of aborting later).
Status CheckTupleSpaces(const FormulaNode& node, size_t num_regions,
                        size_t max_tuple_space) {
  size_t k = 0;
  switch (node.kind) {
    case NodeKind::kLfp:
    case NodeKind::kIfp:
    case NodeKind::kPfp:
      k = node.bound_vars.size();
      break;
    case NodeKind::kTc:
    case NodeKind::kDtc:
      // The closure matrix is quadratic in the m-tuple space.
      k = node.bound_vars.size();
      break;
    default:
      break;
  }
  if (k > 0 && num_regions > 1) {
    size_t space = 1;
    for (size_t i = 0; i < k; ++i) {
      if (space > max_tuple_space / num_regions) {
        return Status::ResourceExhausted(
            "operator tuple space exceeds max_tuple_space (" +
            std::to_string(max_tuple_space) + ") in: " +
            node.ToString().substr(0, 120));
      }
      space *= num_regions;
    }
  }
  for (const auto& child : node.children) {
    LCDB_RETURN_IF_ERROR(
        CheckTupleSpaces(*child, num_regions, max_tuple_space));
  }
  return Status::Ok();
}

/// Rejection shared by Evaluate and ExplainBytecode: bytecode lowering is
/// defined over *optimized* plans only (register allocation and the memo
/// descriptors assume the optimizer's annotations), so the combination is
/// an argument error, never a silent fallback to the tree walk.
Status BytecodeNeedsOptimizer() {
  return Status::InvalidArgument(
      "use_bytecode requires an optimized plan: bytecode lowering is "
      "defined over optimized plans only — drop --no-optimize or --vm");
}

}  // namespace

void Evaluator::SettleAmbient(const KernelStats& kernel_before,
                              TraceSpan* span) {
  const KernelStats delta = CurrentKernel().stats() - kernel_before;
  stats_.kernel += delta;
  if (span != nullptr) {
    // Lemma-database share of this query's kernel work; zero counters are
    // suppressed so the memoize-off configuration keeps its span shapes
    // unchanged.
    if (delta.lemma_hits > 0) span->Counter("lemma.hits", delta.lemma_hits);
    const uint64_t lemma_evictions = delta.lemma_evictions_core +
                                     delta.lemma_evictions_frequent +
                                     delta.lemma_evictions_transient;
    if (lemma_evictions > 0) span->Counter("lemma.evictions", lemma_evictions);
    if (delta.lemma_invalidations > 0) {
      span->Counter("lemma.invalidations", delta.lemma_invalidations);
    }
  }
  if (QueryGovernor* g = CurrentGovernorOrNull()) stats_.governor = g->stats();
}

Result<QueryAnswer> Evaluator::Evaluate(const FormulaNode& query) {
  return EvaluateImpl(query, nullptr, nullptr);
}

Result<QueryAnswer> Evaluator::Evaluate(const FormulaNode& query,
                                        uint64_t resume_token) {
  return EvaluateImpl(query, nullptr, nullptr, resume_token);
}

uint64_t Evaluator::ResumeFingerprint(const FormulaNode& query) const {
  // Site ordinals are pre-order positions in the executed artifact, which
  // is determined by the query text plus the backend-selection options:
  // plan vs legacy walk (use_bytecode forces the plan path) and optimized
  // vs raw plan. memoize and the tree-vs-VM choice do not move sites — both
  // plan backends execute the same plan nodes and share its numbering.
  std::string key = query.ToString();
  key += (options_.use_plan || options_.use_bytecode) ? "|plan" : "|walk";
  key += options_.optimize ? "|opt" : "|raw";
  return StableHash64(key);
}

Result<QueryAnswer> Evaluator::EvaluateImpl(const FormulaNode& query,
                                            PlanProfile* profile,
                                            CompiledPlan* plan_out,
                                            uint64_t resume_token) {
  if (options_.use_bytecode && !options_.optimize) {
    return BytecodeNeedsOptimizer();
  }
  // Flight-recorder instrumentation (engine/obslog.h): the phase columns
  // are sinks on the phase spans, passed only when a recorder is installed,
  // so the uninstrumented path keeps the one-relaxed-load contract of the
  // tracer/failpoint sites. The total keeps its own bracket: the record is
  // appended before the evaluate span closes.
  QueryFlightRecorder* recorder = ActiveFlightRecorderOrNull();
  QueryRecord record;
  auto phase = [&](uint64_t& column) {
    return recorder != nullptr ? &column : nullptr;
  };
  const uint64_t record_start_ns = recorder != nullptr ? ObsNowNs() : 0;
  QueryTracer* ambient_tracer = ActiveTracerOrNull();
  const uint64_t tracer_dropped_before =
      ambient_tracer != nullptr ? ambient_tracer->spans_dropped() : 0;
  if (recorder != nullptr) {
    record.query_hash =
        StableHash64(source_.empty() ? query.ToString() : source_);
    record.backend =
        options_.use_bytecode
            ? "vm"
            : ((options_.use_plan || plan_out != nullptr) ? "tree"
                                                          : "legacy");
  }
  // Rejections before the kernel window carry no kernel/governor data.
  auto append_early_failure = [&](const Status& status) {
    if (recorder == nullptr) return;
    record.total_ns = ObsNowNs() - record_start_ns;
    record.outcome = FailureClassName(ClassifyFailure(status));
    record.status_code = StatusCodeName(status.code());
    recorder->Append(std::move(record));
  };
  TraceSpan evaluate_span("evaluate");
  Result<TypeInfo> checked = [&] {
    TraceSpan typecheck_span("typecheck", phase(record.typecheck_ns));
    return TypeCheck(query, ext_.database());
  }();
  if (!checked.ok()) {
    append_early_failure(checked.status());
    return checked.status();
  }
  TypeInfo info = std::move(checked).value();
  if (Status tuple_spaces = CheckTupleSpaces(query, ext_.num_regions(),
                                             options_.max_tuple_space);
      !tuple_spaces.ok()) {
    append_early_failure(tuple_spaces);
    return tuple_spaces;
  }
  info_ = &info;
  num_columns_ = info.all_element_vars.size();
  // Per-query caches depend on node identity; clear between queries.
  memo_.clear();
  bool_memo_.clear();
  fixpoint_cache_.clear();
  closure_cache_.clear();
  stats_.vm = VmStats();
  stats_.verify = VerifyStats();
  stats_.plan_cost = PlanCostStats();

  // Checkpoint/resume plumbing (core/resume.h). A nonzero token re-installs
  // the ResumeState a prior interrupted run stashed; the collector is
  // published thread-locally so all three fixpoint engines reach it without
  // signature changes. Tokens are single-use: the stored state is consumed
  // here whether or not the continuation succeeds.
  std::optional<ResumeCollector> resume_collector;
  std::optional<ScopedResumeCollector> scoped_resume;
  if (options_.capture_resume) {
    ResumeState resume_seed;
    if (resume_token != 0) {
      auto stored = resume_states_.find(resume_token);
      if (stored == resume_states_.end()) {
        Status unknown =
            Status::InvalidArgument("unknown or expired resume token");
        append_early_failure(unknown);
        return unknown;
      }
      const bool matches =
          stored->second.fingerprint == ResumeFingerprint(query);
      if (matches) resume_seed = std::move(stored->second.state);
      resume_states_.erase(stored);
      if (!matches) {
        Status mismatch = Status::InvalidArgument(
            "resume token does not match this query/backend");
        append_early_failure(mismatch);
        return mismatch;
      }
    }
    resume_collector.emplace(std::move(resume_seed));
    scoped_resume.emplace(*resume_collector);
  } else if (resume_token != 0) {
    Status uncapturable = Status::InvalidArgument(
        "resume token passed but Options::capture_resume is off");
    append_early_failure(uncapturable);
    return uncapturable;
  }

  // Attribute the kernel's oracle work to this evaluation: everything the
  // pipeline spends (DNF algebra, constant folding, QE, region tests) lands
  // between these two snapshots of the ambient kernel. Plan compilation
  // happens inside the window because the optimizer's folding pass issues
  // feasibility queries of its own.
  // Bind the lemma store's occurrence index to this extension's database
  // representation (cheap no-op when it is already bound or memoization
  // is off), so lemmas learned below carry per-disjunct
  // occurrence lists for targeted invalidation.
  CurrentKernel().BindLemmaOccurrences(ext_.database().representation());
  const KernelStats kernel_before = CurrentKernel().stats();
  stats_.governor = GovernorStats();
  // Bookkeeping shared by the success and interrupt exits. Every cache the
  // unwind can cross inserts complete entries only, and the per-query memos
  // above are cleared on entry, so a tripped query leaves the evaluator
  // ready for the next one with no residue.
  auto settle = [&] {
    SettleAmbient(kernel_before, &evaluate_span);
    if (ambient_tracer != nullptr) {
      // Ring evictions during this query: span-level attribution is now
      // incomplete, which the trace.spans_dropped counter makes visible.
      stats_.trace_spans_dropped +=
          ambient_tracer->spans_dropped() - tracer_dropped_before;
    }
    info_ = nullptr;
  };
  // Settled-exit counterpart of append_early_failure: fills the governor
  // and kernel columns from the attempt's final stats and appends. Called
  // with Status::Ok() on the success path.
  auto finish_record = [&](const Status& status) {
    if (recorder == nullptr) return;
    record.total_ns = ObsNowNs() - record_start_ns;
    record.governor_checkpoints = stats_.governor.checkpoints;
    record.governor_budget_trips = stats_.governor.budget_trips;
    record.tripped_budget = stats_.governor.tripped_budget;
    const KernelStats kernel_delta = CurrentKernel().stats() - kernel_before;
    record.kernel_cache_hits =
        kernel_delta.cache_hits + kernel_delta.implication_cache_hits;
    record.kernel_cache_misses =
        kernel_delta.cache_misses + kernel_delta.implication_cache_misses;
    record.lemma_hits = kernel_delta.lemma_hits;
    record.lemma_misses = kernel_delta.lemma_misses;
    record.outcome = FailureClassName(ClassifyFailure(status));
    record.status_code = StatusCodeName(status.code());
    record.resume_token = status.resume_token();
    recorder->Append(std::move(record));
  };
  DnfFormula result = DnfFormula::False(num_columns_);
  try {
    // Mandatory static analysis between typecheck and planning. Inside the
    // kernel window and the try block: guard classification consults the
    // ambient oracle, so its work counts against this query's budgets, and
    // every truth it establishes is memoized for the optimizer's folding
    // pass downstream. Hard diagnostics turn into a clean rejection before
    // any plan is built.
    Status rejected = Status::Ok();
    {
      TraceSpan analyze_span("analyze", phase(record.analyze_ns));
      AnalyzerOptions analyzer_options;
      analyzer_options.num_regions = ext_.num_regions();
      analyzer_options.max_tuple_space = options_.max_tuple_space;
      AnalysisResult analysis = AnalyzeQuery(query, info, analyzer_options);
      stats_.analysis = analysis.stats;
      if (!analysis.diagnostics.empty()) {
        analyze_span.Counter("diagnostics", analysis.diagnostics.size());
      }
      if (analysis.has_errors()) {
        settle();
        rejected = AnalysisErrorStatus(analysis, source_);
      }
    }
    // Recorded once the analyze span has closed into its phase column.
    if (!rejected.ok()) {
      finish_record(rejected);
      return rejected;
    }
    // EXPLAIN ANALYZE's profile keys are plan nodes, so a plan_out request
    // forces the plan pipeline even under use_plan=false; the bytecode VM
    // only exists behind it.
    if (options_.use_plan || plan_out != nullptr || options_.use_bytecode) {
      CompiledPlan plan;
      PlanCostReport cost;
      const Status verified = CompilePlan(query, info, &plan, &cost,
                                          recorder != nullptr ? &record
                                                              : nullptr);
      if (!verified.ok()) {
        settle();
        finish_record(verified);
        return verified;
      }
      if (recorder != nullptr) {
        // The plan fingerprint hashes the final printed plan, so two
        // records agree exactly when their executions ran the same plan.
        record.plan_fingerprint = StableHash64(PrintPlan(plan));
      }
      if (plan_out != nullptr) *plan_out = plan;
      if (resume_collector.has_value()) {
        RegisterResumeSites(*plan.root, *resume_collector);
      }
      TraceSpan execute_span("plan.execute", phase(record.execute_ns));
      result = ExecutePlan(plan, ext_, options_, &stats_, profile);
      execute_span.Counter("rows", result.disjuncts().size());
    } else {
      if (resume_collector.has_value()) {
        RegisterResumeSites(query, *resume_collector);
      }
      TraceSpan walk_span("legacy.walk", phase(record.execute_ns));
      RegionEnv renv;
      SetEnv senv;
      result = Eval(query, renv, senv);
      walk_span.Counter("rows", result.disjuncts().size());
    }
  } catch (const QueryInterrupt& interrupt) {
    // Recovery boundary: budget trips, cancellation and injected faults all
    // surface here as the Status naming what went wrong.
    settle();
    Status status = interrupt.status();
    if (resume_collector.has_value() && status.IsResourceFailure()) {
      // The legacy walk's fixpoint/closure caches are evaluator members and
      // are still intact here (cleared at Evaluate *entry*, complete entries
      // only); harvest them. The plan backends' caches are stack-local, so
      // those engines harvest inside their own unwind instead. Anything
      // collected becomes a single-use token on the returned Status.
      for (const auto& entry : fixpoint_cache_) {
        if (uint64_t site = resume_collector->SiteKey(entry.first)) {
          resume_collector->CaptureCompletedFixpoint(site, entry.second);
        }
      }
      for (const auto& entry : closure_cache_) {
        if (uint64_t site = resume_collector->SiteKey(entry.first)) {
          resume_collector->CaptureCompletedClosure(site, entry.second);
        }
      }
      if (resume_collector->has_progress()) {
        const uint64_t token = ++next_resume_token_;
        resume_states_[token] = StoredResumeState{
            ResumeFingerprint(query), resume_collector->TakeState()};
        while (resume_states_.size() > kMaxStoredResumeStates) {
          resume_states_.erase(resume_states_.begin());
        }
        status.set_resume_token(token);
      }
    }
    finish_record(status);
    return status;
  }
  settle();

  // Keep only the free-variable columns (bound ones were eliminated; the
  // remaining order matches free_element_order by construction).
  std::set<std::string> free(info.free_element_order.begin(),
                             info.free_element_order.end());
  for (size_t col = info.all_element_vars.size(); col-- > 0;) {
    if (free.count(info.all_element_vars[col])) continue;
    if (VariableOccurs(result, col)) {
      Status leak = Status::Internal("bound variable '" +
                                     info.all_element_vars[col] +
                                     "' survived elimination");
      finish_record(leak);
      return leak;
    }
    result = DropVariable(result, col);
  }
  QueryAnswer answer{std::move(result), info.free_element_order};
  finish_record(Status::Ok());
  return answer;
}

Status Evaluator::CompilePlan(const FormulaNode& query, const TypeInfo& info,
                              CompiledPlan* plan, PlanCostReport* cost,
                              QueryRecord* record) {
  // The optimize phase column covers the pass pipeline and the tier-2 cost
  // pass; verification has its own.
  uint64_t* build_ns = record != nullptr ? &record->plan_build_ns : nullptr;
  uint64_t* optimize_ns =
      record != nullptr ? &record->plan_optimize_ns : nullptr;
  uint64_t* verify_ns = record != nullptr ? &record->verify_ns : nullptr;
  {
    TraceSpan build_span("plan.build", build_ns);
    *plan = BuildPlan(query, info, ext_);
  }
  stats_.plan = PlanPassStats();
  stats_.plan_cost = PlanCostStats();
  stats_.verify = VerifyStats();
  if (options_.optimize) {
    {
      TraceSpan optimize_span("plan.optimize", optimize_ns);
      OptimizePlan(plan, &stats_.plan);
      optimize_span.Counter("plan_nodes", stats_.plan.plan_nodes);
    }
    // Tier-2 pass over the optimized plan: cost estimates feed the
    // plan.cost.* metrics family and the EXPLAIN cost column. Pure
    // plan-shape arithmetic — no kernel calls — but traced so its share of
    // compile time is visible.
    TraceSpan cost_span("plan.cost", optimize_ns);
    PlanCostOptions cost_options;
    cost_options.max_tuple_space = options_.max_tuple_space;
    *cost = AnalyzePlanCost(*plan, cost_options);
    stats_.plan_cost = cost->stats;
    cost_span.Counter("est_bigint_ops", stats_.plan_cost.total_bigint_ops);
  } else {
    stats_.plan.plan_nodes = CountPlanNodes(*plan->root);
  }
  // Tier-3 gate: no plan reaches an executor or a listing unverified. A
  // violation here is an optimizer/planner bug surfacing as a clean LCDB012
  // kInternal instead of undefined executor behaviour downstream.
  if (!options_.verify) return Status::Ok();
  TraceSpan verify_span("plan.verify", verify_ns);
  Status verified = VerifyPlan(
      *plan, options_.optimize ? "after plan.optimize" : "after plan.build",
      &stats_.verify);
  if (verified.ok()) {
    verify_span.Counter("plan_nodes", stats_.verify.plan_nodes_verified);
  }
  return verified;
}

Result<std::string> Evaluator::CompileAndRender(const FormulaNode& query,
                                                const PlanRenderer& render) {
  Result<TypeInfo> checked = [&] {
    TraceSpan typecheck_span("typecheck");
    return TypeCheck(query, ext_.database());
  }();
  if (!checked.ok()) return checked.status();
  TypeInfo info = std::move(checked).value();
  LCDB_RETURN_IF_ERROR(CheckTupleSpaces(query, ext_.num_regions(),
                                        options_.max_tuple_space));
  // Compilation spends kernel work (the folding pass asks feasibility
  // questions), so a listing settles the ambient counters exactly as
  // Evaluate does — on the success and the interrupt path alike.
  const KernelStats kernel_before = CurrentKernel().stats();
  stats_.governor = GovernorStats();
  try {
    Result<std::string> listing = [&]() -> Result<std::string> {
      // The same mandatory analysis phase as Evaluate, so a query Evaluate
      // would reject never gets a listing.
      {
        TraceSpan analyze_span("analyze");
        AnalyzerOptions analyzer_options;
        analyzer_options.num_regions = ext_.num_regions();
        analyzer_options.max_tuple_space = options_.max_tuple_space;
        AnalysisResult analysis = AnalyzeQuery(query, info, analyzer_options);
        stats_.analysis = analysis.stats;
        if (!analysis.diagnostics.empty()) {
          analyze_span.Counter("diagnostics", analysis.diagnostics.size());
        }
        if (analysis.has_errors()) {
          return AnalysisErrorStatus(analysis, source_);
        }
      }
      CompiledPlan plan;
      PlanCostReport cost;
      LCDB_RETURN_IF_ERROR(CompilePlan(query, info, &plan, &cost, nullptr));
      return render(plan, cost);
    }();
    SettleAmbient(kernel_before);
    return listing;
  } catch (const QueryInterrupt& interrupt) {
    // A budget or injected fault can fire during compilation too.
    SettleAmbient(kernel_before);
    return interrupt.status();
  }
}

Result<std::string> Evaluator::Explain(const FormulaNode& query) {
  TraceSpan explain_span("explain");
  return CompileAndRender(
      query,
      [&](const CompiledPlan& plan,
          const PlanCostReport& cost) -> Result<std::string> {
        if (!options_.optimize) {
          return PrintPlan(plan) + "-- " + stats_.plan.ToString() + "\n";
        }
        // Tier-2 estimates annotate every node line of the explain output
        // and surface the pass's diagnostics (LCDB011 dead caches, the
        // cost-refined LCDB004 budget warning) under the plan.
        std::string out = PrintPlan(plan, nullptr, &cost.costs);
        out += "-- " + stats_.plan.ToString() + "\n";
        const PlanCostStats& c = cost.stats;
        out += "-- cost: nodes=" + std::to_string(c.nodes) +
               " est_bigint_ops=" + std::to_string(c.total_bigint_ops) +
               " est_answer_rows=" + std::to_string(c.est_answer_rows) +
               " dead_caches=" + std::to_string(c.dead_caches) + "\n";
        if (!cost.diagnostics.empty()) {
          out += RenderDiagnostics(cost.diagnostics, source_);
        }
        return out;
      });
}

Result<std::string> Evaluator::ExplainBytecode(const FormulaNode& query) {
  if (!options_.optimize) return BytecodeNeedsOptimizer();
  TraceSpan explain_span("explain.bytecode");
  return CompileAndRender(
      query,
      [&](const CompiledPlan& plan,
          const PlanCostReport&) -> Result<std::string> {
        BytecodeProgram program = [&] {
          TraceSpan lower_span("plan.lower");
          return CompileToBytecode(plan);
        }();
        if (options_.verify) {
          // The listing must stay byte-identical to DisassembleBytecode
          // (the golden test pins it), so verification only gates — no
          // footer.
          TraceSpan verify_span("bytecode.verify");
          BytecodeVerifyResult verdict = VerifyBytecode(program);
          AccumulateVerifyStats(verdict, &stats_.verify);
          if (!verdict.status.ok()) return verdict.status;
        }
        stats_.vm = VmStats();
        stats_.vm.procs = program.procs.size();
        stats_.vm.code_instructions = program.TotalInstructions();
        return DisassembleBytecode(program);
      });
}

Result<std::string> Evaluator::ExplainAnalyze(const FormulaNode& query) {
  PlanProfile profile;
  CompiledPlan plan;
  // stats_.kernel is cumulative across queries; diff it around the call to
  // report only this execution in the footer.
  const KernelStats kernel_cumulative_before = stats_.kernel;
  LCDB_ASSIGN_OR_RETURN(QueryAnswer answer,
                        EvaluateImpl(query, &profile, &plan));
  std::string out = PrintPlan(plan, &profile);
  out += "-- " + stats_.plan.ToString() + "\n";
  out += "-- kernel: " + (stats_.kernel - kernel_cumulative_before).ToString() +
         "\n";
  out += "-- governor: " + stats_.governor.ToString() + "\n";
  out += "-- answer: " +
         std::to_string(answer.formula.disjuncts().size()) + " disjunct(s)";
  if (!answer.free_vars.empty()) {
    out += " over (";
    for (size_t i = 0; i < answer.free_vars.size(); ++i) {
      if (i > 0) out += ",";
      out += answer.free_vars[i];
    }
    out += ")";
  }
  out += "\n";
  return out;
}

Result<bool> Evaluator::EvaluateSentence(const FormulaNode& query,
                                         uint64_t resume_token) {
  LCDB_ASSIGN_OR_RETURN(QueryAnswer answer, Evaluate(query, resume_token));
  if (!answer.free_vars.empty()) {
    return Status::InvalidArgument("sentence has free element variables");
  }
  const KernelStats kernel_before = CurrentKernel().stats();
  try {
    // The emptiness test asks the kernel, so it is itself interruptible.
    // Settling mirrors Evaluate on both exits — in particular the governor
    // counters refresh on success too, so checkpoints spent on the
    // emptiness test are not dropped from stats().
    const bool truth = !answer.formula.IsEmpty();
    SettleAmbient(kernel_before);
    return truth;
  } catch (const QueryInterrupt& interrupt) {
    SettleAmbient(kernel_before);
    return interrupt.status();
  }
}

size_t Evaluator::Column(const std::string& name) const {
  for (size_t i = 0; i < info_->all_element_vars.size(); ++i) {
    if (info_->all_element_vars[i] == name) return i;
  }
  LCDB_CHECK_MSG(false, "unknown element variable");
  return 0;
}

std::vector<AffineExpr> Evaluator::TermSubstitution(
    const std::vector<ElementTerm>& terms) const {
  std::vector<AffineExpr> map;
  map.reserve(terms.size());
  for (const ElementTerm& t : terms) {
    AffineExpr e;
    e.coeffs.assign(num_columns_, Rational(0));
    for (const auto& [name, coeff] : t.coeffs) {
      e.coeffs[Column(name)] = coeff;
    }
    e.constant = t.constant;
    map.push_back(std::move(e));
  }
  return map;
}

bool Evaluator::MemoKey(const FormulaNode& node, const RegionEnv& renv,
                        const SetEnv& senv, Tuple* key) const {
  const FreeVars& fv = info_->of(node);
  // Set-dependent results are only reusable within one fixpoint stage; with
  // several free region variables the key space matches the tuple space and
  // every entry would be written once and never read. Cache only narrow
  // keys there (e.g. the hoisted "Z was visited" test of the river query).
  if (!fv.set_vars.empty() && fv.region.size() > 1) return false;
  key->clear();
  for (const std::string& r : fv.region) {  // std::set: name-sorted
    auto it = renv.find(r);
    LCDB_CHECK(it != renv.end());
    key->push_back(it->second);
  }
  // Set-dependent results are cached per fixpoint *stage* via the binding's
  // version stamp.
  for (const std::string& m : fv.set_vars) {
    key->push_back(senv.at(m).version);
  }
  return true;
}

bool Evaluator::EvalRegionAtom(const FormulaNode& node, RegionEnv& renv,
                               SetEnv& senv) {
  auto region = [&](size_t i) { return renv.at(node.region_args[i]); };
  switch (node.kind) {
    case NodeKind::kAdjacent:
      return ext_.Adjacent(region(0), region(1));
    case NodeKind::kRegionEq:
      return region(0) == region(1);
    case NodeKind::kSubsetS:
      return ext_.RegionSubsetOfS(region(0));
    case NodeKind::kIntersectsS:
      return ext_.RegionIntersectsS(region(0));
    case NodeKind::kDimAtom:
      return ext_.RegionDim(region(0)) == node.dim_value;
    case NodeKind::kBoundedAtom:
      return ext_.RegionBounded(region(0));
    case NodeKind::kSetAtom: {
      const TupleSet* set = senv.at(node.set_var).tuples;
      Tuple tuple;
      tuple.reserve(node.region_args.size());
      for (const std::string& r : node.region_args) tuple.push_back(renv.at(r));
      return set->count(tuple) > 0;
    }
    case NodeKind::kLfp:
    case NodeKind::kIfp:
    case NodeKind::kPfp: {
      const TupleSet& fp = FixpointSet(node);
      Tuple tuple;
      tuple.reserve(node.region_args.size());
      for (const std::string& r : node.region_args) tuple.push_back(renv.at(r));
      return fp.count(tuple) > 0;
    }
    case NodeKind::kTc:
    case NodeKind::kDtc: {
      const auto& closure = ClosureMatrix(node);
      Tuple from, to;
      for (const std::string& r : node.region_args) from.push_back(renv.at(r));
      for (const std::string& r : node.region_args2) to.push_back(renv.at(r));
      return closure[TupleIndex(from)][TupleIndex(to)];
    }
    case NodeKind::kRbit:
      return EvalRbit(node, renv, senv);
    default:
      LCDB_CHECK_MSG(false, "not a region atom");
      return false;
  }
}

DnfFormula Evaluator::Eval(const FormulaNode& node, RegionEnv& renv,
                           SetEnv& senv) {
  // Cancellation point per node of the legacy walk — in particular one per
  // region-quantifier expansion step, the walk's widest loops.
  GovernorCheckpoint();
  ++stats_.node_evaluations;
  Tuple key;
  const bool cacheable = options_.memoize && info_->WorthCaching(node) &&
                         MemoKey(node, renv, senv, &key);
  if (cacheable) {
    auto& per_node = memo_[&node];
    auto it = per_node.find(key);
    if (it != per_node.end()) {
      ++stats_.memo_hits;
      return it->second;
    }
  }
  DnfFormula result = EvalUncached(node, renv, senv);
  if (cacheable) memo_[&node].emplace(std::move(key), result);
  return result;
}

DnfFormula Evaluator::EvalUncached(const FormulaNode& node, RegionEnv& renv,
                                   SetEnv& senv) {
  const size_t m = num_columns_;
  switch (node.kind) {
    case NodeKind::kTrue:
      return DnfFormula::True(m);
    case NodeKind::kFalse:
      return DnfFormula::False(m);
    case NodeKind::kCompare: {
      ElementTerm diff = node.lhs.Minus(node.rhs);
      Vec coeffs(m);
      for (const auto& [name, coeff] : diff.coeffs) {
        coeffs[Column(name)] = coeff;
      }
      return DnfFormula::FromAtom(LinearAtom(coeffs, node.rel, -diff.constant));
    }
    case NodeKind::kRelationAtom:
      return ext_.database().representation().Substitute(
          TermSubstitution(node.terms), m);
    case NodeKind::kInRegion: {
      const Conjunction& region =
          ext_.RegionFormula(renv.at(node.region_args[0]));
      DnfFormula region_formula(region.num_vars(), {region});
      return region_formula.Substitute(TermSubstitution(node.terms), m);
    }
    case NodeKind::kAdjacent:
    case NodeKind::kRegionEq:
    case NodeKind::kSubsetS:
    case NodeKind::kIntersectsS:
    case NodeKind::kDimAtom:
    case NodeKind::kBoundedAtom:
    case NodeKind::kSetAtom:
    case NodeKind::kLfp:
    case NodeKind::kIfp:
    case NodeKind::kPfp:
    case NodeKind::kTc:
    case NodeKind::kDtc:
    case NodeKind::kRbit:
      return EvalRegionAtom(node, renv, senv) ? DnfFormula::True(m)
                                              : DnfFormula::False(m);
    case NodeKind::kNot:
      return Eval(*node.children[0], renv, senv).Negate();
    case NodeKind::kAnd: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyFalse()) return a;
      return a.And(Eval(*node.children[1], renv, senv));
    }
    case NodeKind::kOr: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyTrue()) return a;
      return a.Or(Eval(*node.children[1], renv, senv));
    }
    case NodeKind::kImplies: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyFalse()) return DnfFormula::True(m);
      return a.Negate().Or(Eval(*node.children[1], renv, senv));
    }
    case NodeKind::kIff: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      DnfFormula b = Eval(*node.children[1], renv, senv);
      return a.And(b).Or(a.Negate().And(b.Negate()));
    }
    case NodeKind::kHull: {
      // Section 8 extension: evaluate the body, project onto the bound
      // variables, take the closed convex hull, and substitute the applied
      // terms (geometry/convex_closure.h).
      DnfFormula body = Eval(*node.children[0], renv, senv);
      const size_t k = node.bound_vars.size();
      std::vector<AffineExpr> project;
      project.reserve(num_columns_);
      std::vector<size_t> bound_columns;
      for (const std::string& v : node.bound_vars) {
        bound_columns.push_back(Column(v));
      }
      for (size_t col = 0; col < num_columns_; ++col) {
        size_t hull_index = k;
        for (size_t i = 0; i < k; ++i) {
          if (bound_columns[i] == col) {
            hull_index = i;
            break;
          }
        }
        project.push_back(hull_index < k
                              ? AffineExpr::Variable(k, hull_index)
                              : AffineExpr::Constant(k, Rational(0)));
      }
      DnfFormula projected = body.Substitute(project, k);
      Result<DnfFormula> hull = ConvexClosure(projected);
      LCDB_CHECK_MSG(hull.ok(), "convex closure failed");
      return hull->Substitute(TermSubstitution(node.terms), m);
    }
    case NodeKind::kExistsElem: {
      ++stats_.qe_eliminations;
      return ExistsVariable(Eval(*node.children[0], renv, senv),
                            Column(node.bound_vars[0]));
    }
    case NodeKind::kForallElem: {
      ++stats_.qe_eliminations;
      return ForallVariable(Eval(*node.children[0], renv, senv),
                            Column(node.bound_vars[0]));
    }
    case NodeKind::kExistsRegion: {
      ++stats_.region_expansions;
      DnfFormula acc = DnfFormula::False(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        renv[node.bound_vars[0]] = r;
        acc = acc.Or(Eval(*node.children[0], renv, senv));
        if (acc.IsSyntacticallyTrue()) break;
      }
      renv.erase(node.bound_vars[0]);
      return acc;
    }
    case NodeKind::kForallRegion: {
      ++stats_.region_expansions;
      DnfFormula acc = DnfFormula::True(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        renv[node.bound_vars[0]] = r;
        acc = acc.And(Eval(*node.children[0], renv, senv));
        if (acc.IsSyntacticallyFalse()) break;
      }
      renv.erase(node.bound_vars[0]);
      return acc;
    }
  }
  LCDB_CHECK(false);
  return DnfFormula::False(m);
}

bool Evaluator::EvalBool(const FormulaNode& node, RegionEnv& renv,
                         SetEnv& senv) {
  GovernorCheckpoint();
  ++stats_.bool_evaluations;
  Tuple key;
  const bool cacheable = options_.memoize && info_->WorthCaching(node) &&
                         MemoKey(node, renv, senv, &key);
  if (cacheable) {
    auto& per_node = bool_memo_[&node];
    auto it = per_node.find(key);
    if (it != per_node.end()) {
      ++stats_.memo_hits;
      return it->second;
    }
  }
  const bool result = EvalBoolUncached(node, renv, senv);
  if (cacheable) bool_memo_[&node].emplace(std::move(key), result);
  return result;
}

bool Evaluator::EvalBoolUncached(const FormulaNode& node, RegionEnv& renv,
                                 SetEnv& senv) {
  switch (node.kind) {
    case NodeKind::kTrue:
      return true;
    case NodeKind::kFalse:
      return false;
    case NodeKind::kNot:
      return !EvalBool(*node.children[0], renv, senv);
    case NodeKind::kAnd:
      return EvalBool(*node.children[0], renv, senv) &&
             EvalBool(*node.children[1], renv, senv);
    case NodeKind::kOr:
      return EvalBool(*node.children[0], renv, senv) ||
             EvalBool(*node.children[1], renv, senv);
    case NodeKind::kImplies:
      return !EvalBool(*node.children[0], renv, senv) ||
             EvalBool(*node.children[1], renv, senv);
    case NodeKind::kIff:
      return EvalBool(*node.children[0], renv, senv) ==
             EvalBool(*node.children[1], renv, senv);
    case NodeKind::kExistsRegion: {
      bool found = false;
      for (size_t r = 0; r < ext_.num_regions() && !found; ++r) {
        renv[node.bound_vars[0]] = r;
        found = EvalBool(*node.children[0], renv, senv);
      }
      renv.erase(node.bound_vars[0]);
      return found;
    }
    case NodeKind::kForallRegion: {
      bool holds = true;
      for (size_t r = 0; r < ext_.num_regions() && holds; ++r) {
        renv[node.bound_vars[0]] = r;
        holds = EvalBool(*node.children[0], renv, senv);
      }
      renv.erase(node.bound_vars[0]);
      return holds;
    }
    case NodeKind::kAdjacent:
    case NodeKind::kRegionEq:
    case NodeKind::kSubsetS:
    case NodeKind::kIntersectsS:
    case NodeKind::kDimAtom:
    case NodeKind::kBoundedAtom:
    case NodeKind::kSetAtom:
    case NodeKind::kLfp:
    case NodeKind::kIfp:
    case NodeKind::kPfp:
    case NodeKind::kTc:
    case NodeKind::kDtc:
    case NodeKind::kRbit:
      return EvalRegionAtom(node, renv, senv);
    case NodeKind::kCompare:
    case NodeKind::kRelationAtom:
    case NodeKind::kInRegion:
    case NodeKind::kHull:
    case NodeKind::kExistsElem:
    case NodeKind::kForallElem:
      // Element-sort subtree: evaluate symbolically and test emptiness.
      // In a boolean context all element variables inside are bound, so the
      // result is a variable-free (constant) formula.
      return !Eval(node, renv, senv).IsEmpty();
  }
  LCDB_CHECK(false);
  return false;
}

MetricsSnapshot Evaluator::Stats::ToMetrics() const {
  MetricsRegistry registry;
  registry.Count("evaluator.node_evaluations", node_evaluations);
  registry.Count("evaluator.bool_evaluations", bool_evaluations);
  registry.Count("evaluator.memo_hits", memo_hits);
  registry.Count("evaluator.fixpoint_iterations", fixpoint_iterations);
  registry.Count("evaluator.fixpoint_delta_tuples", fixpoint_delta_tuples);
  registry.Count("evaluator.relation_word_ops", relation_word_ops);
  registry.Count("evaluator.fixpoints_computed", fixpoints_computed);
  registry.Count("evaluator.closures_computed", closures_computed);
  registry.Count("evaluator.qe_eliminations", qe_eliminations);
  registry.Count("evaluator.region_expansions", region_expansions);
  registry.Count("evaluator.fixpoint_feasibility_queries",
                 fixpoint_feasibility_queries);
  registry.Count("evaluator.closure_feasibility_queries",
                 closure_feasibility_queries);
  registry.Count("evaluator.resume.sets_restored", resume_sets_restored);
  registry.Count("evaluator.resume.fixpoints_resumed",
                 resume_fixpoints_resumed);
  registry.Count("evaluator.resume.stages_skipped", resume_stages_skipped);
  // Always registered (usually zero) so tail-latency dashboards can alert
  // on the first dropped span instead of on a missing series.
  registry.Count("trace.spans_dropped", trace_spans_dropped);
  registry.RegisterKernelStats(kernel);
  registry.RegisterGovernorStats(governor);
  registry.RegisterPlanPassStats(plan);
  registry.RegisterAnalysisStats(analysis);
  // Always registered (zeros when the tree backend ran / optimization was
  // off) so the vm.* and plan.cost.* families are schema-stable for the
  // bench harness and the CI metrics assertions.
  registry.RegisterVmStats(vm);
  registry.RegisterPlanCostStats(plan_cost);
  // Likewise always registered so analysis.verify.* is schema-stable even
  // under the --no-verify ablation.
  registry.RegisterVerifyStats(verify);
  return registry.Snapshot();
}

std::string Evaluator::Stats::ToJson() const { return ToMetrics().ToJson(); }

Result<QueryAnswer> EvaluateQueryText(const RegionExtension& extension,
                                      std::string_view query_text,
                                      Evaluator::Options options) {
  LCDB_ASSIGN_OR_RETURN(
      FormulaPtr query,
      ParseQuery(query_text, extension.database().relation_name()));
  Evaluator evaluator(extension, options);
  evaluator.AttachSource(std::string(query_text));
  return evaluator.Evaluate(*query);
}

Result<bool> EvaluateSentenceText(const RegionExtension& extension,
                                  std::string_view query_text,
                                  Evaluator::Options options) {
  LCDB_ASSIGN_OR_RETURN(
      FormulaPtr query,
      ParseQuery(query_text, extension.database().relation_name()));
  Evaluator evaluator(extension, options);
  evaluator.AttachSource(std::string(query_text));
  return evaluator.EvaluateSentence(*query);
}

}  // namespace lcdb
