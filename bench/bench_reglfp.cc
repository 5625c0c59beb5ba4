// Experiment T6.1 (DESIGN.md): Theorem 6.1 — RegLFP data complexity is
// PTIME. The connectivity query (the paper's Section 5 flagship) is
// evaluated on comb/staircase families of growing region count; the
// benchmark reports regions, fixed-point iterations (bounded by |Reg|^k)
// and compares against the union-find geometric baseline.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "constraint/simplify.h"
#include "util/failpoint.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/geometric_baselines.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/obslog.h"
#include "engine/profiler.h"
#include "engine/trace.h"

namespace {

/// Oracle-call columns (EXPERIMENTS.md, "Oracle-call telemetry"): the
/// kernel counters an evaluator attributed to its own run, including the
/// share spent inside fixed-point iteration.
void ReportKernelCounters(benchmark::State& state,
                          const lcdb::Evaluator::Stats& stats) {
  state.counters["oracle_calls"] =
      static_cast<double>(stats.kernel.oracle_calls);
  state.counters["cache_hits"] =
      static_cast<double>(stats.kernel.cache_hits);
  state.counters["simplex_invocations"] =
      static_cast<double>(stats.kernel.simplex_invocations);
  state.counters["fixpoint_oracle_calls"] =
      static_cast<double>(stats.fixpoint_feasibility_queries);
}

void BM_RegLfpConnectivity(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  const bool connected = state.range(1) != 0;
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, connected);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  size_t iterations = 0;
  lcdb::Evaluator::Stats last_stats;
  for (auto _ : state) {
    lcdb::Evaluator evaluator(*ext);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    if (*result != connected) state.SkipWithError("wrong connectivity");
    iterations = evaluator.stats().fixpoint_iterations;
    last_stats = evaluator.stats();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["lfp_iterations"] = static_cast<double>(iterations);
  ReportKernelCounters(state, last_stats);
}

BENCHMARK(BM_RegLfpConnectivity)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({3, 1})
    ->Args({4, 1})
    ->Args({2, 0})
    ->Args({3, 0})
    ->Unit(benchmark::kMillisecond);

/// Governor overhead experiment (EXPERIMENTS.md, "Governor telemetry"):
/// the same connectivity run with a QueryGovernor installed whose budgets
/// are all unlimited — every checkpoint is paid for, none trips. Compare
/// this timing against BM_RegLfpConnectivity at the same arity to bound
/// the governed-path tax (goal: under 2%). The counters expose how many
/// checkpoints and strided deadline reads the run actually performed.
void BM_GovernedConnectivity(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  lcdb::GovernorStats gstats;
  for (auto _ : state) {
    lcdb::GovernorLimits limits;  // everything unlimited, nothing trips
    limits.wall_clock_ms = 600000;  // but the deadline clock is live
    lcdb::QueryGovernor governor(limits);
    lcdb::ScopedGovernor scoped(governor);
    lcdb::Evaluator evaluator(*ext);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    if (!*result) state.SkipWithError("comb should be connected");
    gstats = governor.stats();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["governor_checkpoints"] =
      static_cast<double>(gstats.checkpoints);
  state.counters["deadline_checks"] =
      static_cast<double>(gstats.deadline_checks);
  state.counters["budget_trips"] = static_cast<double>(gstats.budget_trips);
}

BENCHMARK(BM_GovernedConnectivity)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Tracer overhead experiment (EXPERIMENTS.md, "Tracing and metrics"): the
/// connectivity run with tracing disabled (Arg 0 — every span site is one
/// relaxed atomic load, the failpoint contract) and enabled (Arg 1 — spans
/// recorded into a fresh per-iteration ring). Compare the Arg(0) timing
/// against BM_RegLfpConnectivity at the same arity to bound the
/// disabled-path tax (goal: under 2%); Arg(1) prices the recording path,
/// with the span volume in the counters.
void BM_TracingOverhead(benchmark::State& state) {
  const size_t teeth = 3;
  const bool enabled = state.range(0) != 0;
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  for (auto _ : state) {
    std::unique_ptr<lcdb::QueryTracer> tracer;
    std::unique_ptr<lcdb::ScopedTracer> scoped;
    if (enabled) {
      tracer = std::make_unique<lcdb::QueryTracer>();
      scoped = std::make_unique<lcdb::ScopedTracer>(*tracer);
    }
    lcdb::Evaluator evaluator(*ext);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    if (!*result) state.SkipWithError("comb should be connected");
    if (tracer != nullptr) {
      spans_recorded = tracer->spans_begun();
      spans_dropped = tracer->spans_dropped();
    }
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["tracing_enabled"] = enabled ? 1 : 0;
  state.counters["spans_recorded"] = static_cast<double>(spans_recorded);
  state.counters["spans_dropped"] = static_cast<double>(spans_dropped);
}

BENCHMARK(BM_TracingOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Fleet-observability overhead experiment (EXPERIMENTS.md, "Fleet
/// observability"): the connectivity run without any observability (Arg 0)
/// and with the full always-on stack (Arg 1) — a flight recorder appending
/// one record per query plus the continuous profiler at its production
/// 1-in-64 sampling rate, driven exactly as QuerySession drives it. The CI
/// acceptance gate compares the two timings: the Arg(1) tax must stay
/// under 2%, since a recorder that distorts the fleet it observes is
/// useless for attribution. Only every 64th iteration pays for span
/// recording; the other 63 pay one relaxed atomic load per span site plus
/// one record append.
void BM_ObsLogOverhead(benchmark::State& state) {
  const size_t teeth = 3;
  const bool enabled = state.range(0) != 0;
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  std::unique_ptr<lcdb::QueryFlightRecorder> recorder;
  std::unique_ptr<lcdb::ScopedFlightRecorder> scoped_recorder;
  std::unique_ptr<lcdb::ContinuousProfiler> profiler;
  if (enabled) {
    recorder = std::make_unique<lcdb::QueryFlightRecorder>();
    scoped_recorder = std::make_unique<lcdb::ScopedFlightRecorder>(*recorder);
    lcdb::ContinuousProfiler::Options options;
    options.sample_every = 64;
    profiler = std::make_unique<lcdb::ContinuousProfiler>(options);
  }
  for (auto _ : state) {
    const bool sampled = profiler != nullptr && profiler->ShouldSample();
    std::unique_ptr<lcdb::QueryTracer> tracer;
    std::unique_ptr<lcdb::ScopedTracer> scoped_tracer;
    if (sampled) {
      tracer = std::make_unique<lcdb::QueryTracer>();
      scoped_tracer = std::make_unique<lcdb::ScopedTracer>(*tracer);
    }
    const uint64_t start_ns = lcdb::ObsNowNs();
    lcdb::Evaluator evaluator(*ext);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    if (!*result) state.SkipWithError("comb should be connected");
    if (profiler != nullptr) {
      profiler->RecordQuery(lcdb::ObsNowNs() - start_ns, !result.ok(),
                            tracer.get());
    }
    benchmark::DoNotOptimize(*result);
  }
  state.counters["obslog_enabled"] = enabled ? 1 : 0;
  if (recorder != nullptr) {
    state.counters["records_appended"] =
        static_cast<double>(recorder->appended());
    state.counters["records_dropped"] =
        static_cast<double>(recorder->dropped());
  }
  if (profiler != nullptr) {
    state.counters["queries_sampled"] =
        static_cast<double>(profiler->queries_sampled());
  }
}

BENCHMARK(BM_ObsLogOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Kernel-memoization acceptance experiment on a full fixed-point workload:
/// the river-pollution sentence (Figure 6 — LFP with element-sort side
/// conditions, so its stages lean hard on the feasibility oracle) plus an
/// open connectivity query, evaluated against a caching kernel and a
/// cache-disabled kernel. The caching run must spend strictly fewer simplex
/// invocations, while both runs must agree — the sentence boolean exactly,
/// the open answer up to AreEquivalent. (The pure region-quantified
/// connectivity sentence is a poor subject here: the evaluator's own
/// subformula memo already removes its repeated oracle questions.)
void BM_KernelMemoRiver(benchmark::State& state) {
  lcdb::ConstraintDatabase db = lcdb::MakeRiverScenario(2, {}, {0}, {1});
  auto ext = lcdb::MakeArrangementExtension(db);
  // Warm the extension's lazy predicate caches under the default kernel so
  // neither measured run pays for (or gets credited with) that work.
  (void)lcdb::EvaluateSentenceText(*ext, lcdb::RiverPollutionQueryText());
  lcdb::KernelStats with_memo, without_memo;
  bool equivalent = false;
  for (auto _ : state) {
    lcdb::ConstraintKernel on(
        lcdb::ConstraintKernel::Options{/*memoize=*/true});
    lcdb::ConstraintKernel off(
        lcdb::ConstraintKernel::Options{/*memoize=*/false});
    bool sentence_on = false, sentence_off = false;
    lcdb::DnfFormula open_on = lcdb::DnfFormula::False(0);
    lcdb::DnfFormula open_off = lcdb::DnfFormula::False(0);
    {
      lcdb::ScopedKernel scope(on);
      auto sentence =
          lcdb::EvaluateSentenceText(*ext, lcdb::RiverPollutionQueryText());
      auto open = lcdb::EvaluateQueryText(*ext, "exists y . S(x, y)");
      if (!sentence.ok() || !open.ok()) {
        state.SkipWithError("evaluation failed");
        break;
      }
      sentence_on = *sentence;
      open_on = open->formula;
    }
    {
      lcdb::ScopedKernel scope(off);
      auto sentence =
          lcdb::EvaluateSentenceText(*ext, lcdb::RiverPollutionQueryText());
      auto open = lcdb::EvaluateQueryText(*ext, "exists y . S(x, y)");
      if (!sentence.ok() || !open.ok()) {
        state.SkipWithError("evaluation failed");
        break;
      }
      sentence_off = *sentence;
      open_off = open->formula;
    }
    with_memo = on.stats();
    without_memo = off.stats();
    {
      lcdb::ScopedKernel scope(on);
      equivalent = sentence_on == sentence_off &&
                   lcdb::AreEquivalent(open_on, open_off);
    }
    if (!equivalent) state.SkipWithError("cached answer diverged");
    benchmark::DoNotOptimize(equivalent);
  }
  state.counters["oracle_calls_on"] =
      static_cast<double>(with_memo.oracle_calls);
  state.counters["oracle_calls_off"] =
      static_cast<double>(without_memo.oracle_calls);
  state.counters["simplex_invocations_on"] =
      static_cast<double>(with_memo.simplex_invocations);
  state.counters["simplex_invocations_off"] =
      static_cast<double>(without_memo.simplex_invocations);
  state.counters["cache_hits"] = static_cast<double>(with_memo.cache_hits);
  state.counters["answers_equivalent"] = equivalent ? 1 : 0;
}

BENCHMARK(BM_KernelMemoRiver)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Lemma-database acceptance experiment (EXPERIMENTS.md "Lemma database
/// hit rate"): a repeated-query serving workload on the comb family under
/// the two kernel configurations — the activity-managed lemma database
/// and memoize-off. The workload models serving: every request (each
/// round's arrangement refresh, and each query after it) runs in a FRESH
/// ConstraintKernel, exactly how the evaluator's ScopedKernel scopes work
/// per query. The lemma configuration attaches all request kernels to one
/// shared LemmaDatabase, so every query of rounds 2 and 3 hits the lemmas
/// round 1 proved; memoize-off pays an oracle call per non-trivial
/// question. Acceptance: strictly fewer oracle calls with the lemma DB
/// (lemma_saves_oracle == 1) and byte-identical answers across both
/// configurations (answers_identical == 1). The eviction-quality counters
/// expose *what* a `capacity` below the working set evicts, not just how
/// much.
void BM_LemmaDbVsMemoizeOff(benchmark::State& state) {
  const int teeth = static_cast<int>(state.range(0));
  const size_t capacity = static_cast<size_t>(state.range(1));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, true);
  const std::vector<std::string> round = {
      lcdb::RegionConnQueryText(),
      "exists R . (subset(R) & !(bounded(R)))",
      "forall R . (subset(R) -> exists R' . (adj(R, R') | R = R'))",
      "exists R R' . [rbit x : x > 0](R, R')",
  };
  constexpr int kRounds = 3;
  lcdb::KernelStats lemma_stats, off_stats;
  bool identical = false;
  for (auto _ : state) {
    lemma_stats = lcdb::KernelStats();
    off_stats = lcdb::KernelStats();
    lcdb::LemmaDatabase::Options store_options;
    store_options.max_entries = capacity;
    auto store = std::make_shared<lcdb::LemmaDatabase>(store_options);
    const lcdb::ConstraintKernel::Options lemma_options{/*memoize=*/true,
                                                        capacity};
    const lcdb::ConstraintKernel::Options off_options{/*memoize=*/false};

    std::vector<std::string> answers[2];
    bool failed = false;
    for (int config = 0; config < 2 && !failed; ++config) {
      // One request = one fresh kernel. Only the lemma configuration
      // carries state (the shared store) from one request to the next.
      auto request_kernel = [&]() {
        return config == 0
                   ? std::make_unique<lcdb::ConstraintKernel>(lemma_options,
                                                              store)
                   : std::make_unique<lcdb::ConstraintKernel>(off_options);
      };
      auto settle = [&](const lcdb::ConstraintKernel& kernel) {
        (config == 0 ? lemma_stats : off_stats) += kernel.stats();
      };
      for (int r = 0; r < kRounds && !failed; ++r) {
        // Request 0 of the round: refresh the arrangement. The build asks
        // the kernel nothing, so all kernel traffic comes from the queries.
        std::shared_ptr<lcdb::RegionExtension> ext;
        {
          auto kernel = request_kernel();
          lcdb::ScopedKernel scope(*kernel);
          ext = lcdb::MakeArrangementExtension(db);
          settle(*kernel);
        }
        for (const std::string& text : round) {
          auto kernel = request_kernel();
          lcdb::ScopedKernel scope(*kernel);
          auto sentence = lcdb::EvaluateSentenceText(*ext, text);
          settle(*kernel);
          if (!sentence.ok()) {
            state.SkipWithError("evaluation failed");
            failed = true;
            break;
          }
          answers[config].push_back(*sentence ? "t" : "f");
        }
      }
    }
    if (failed) break;
    identical = answers[0] == answers[1];
    if (!identical) state.SkipWithError("backend answers diverged");
    benchmark::DoNotOptimize(identical);
  }
  const double hits = static_cast<double>(lemma_stats.cache_hits) +
                      static_cast<double>(lemma_stats.implication_cache_hits);
  const double lookups =
      hits + static_cast<double>(lemma_stats.cache_misses) +
      static_cast<double>(lemma_stats.implication_cache_misses);
  state.counters["lemma_hit_rate"] = lookups == 0.0 ? 0.0 : hits / lookups;
  state.counters["lemma_oracle_calls"] =
      static_cast<double>(lemma_stats.oracle_calls);
  state.counters["off_oracle_calls"] =
      static_cast<double>(off_stats.oracle_calls);
  state.counters["lemma_saves_oracle"] =
      lemma_stats.oracle_calls < off_stats.oracle_calls ? 1 : 0;
  state.counters["lemma_evictions_core"] =
      static_cast<double>(lemma_stats.lemma_evictions_core);
  state.counters["lemma_evictions_frequent"] =
      static_cast<double>(lemma_stats.lemma_evictions_frequent);
  state.counters["lemma_evictions_transient"] =
      static_cast<double>(lemma_stats.lemma_evictions_transient);
  state.counters["answers_identical"] = identical ? 1 : 0;
}

BENCHMARK(BM_LemmaDbVsMemoizeOff)
    ->Args({2, 96})
    ->Args({3, 192})
    ->Args({3, 512})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Optimizer-ablation acceptance experiment (EXPERIMENTS.md, "Plan
/// optimizer telemetry"): the connectivity sentence through the plan
/// pipeline with the pass pipeline on vs off. The optimized run must spend
/// strictly fewer Stats::node_evaluations — the win comes from narrowing
/// the region-pure sentence to boolean mode and from cache marking
/// (optimize=false also runs without any subformula caching).
void BM_PlanOptimizerAblation(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  lcdb::Evaluator::Stats optimized, raw;
  for (auto _ : state) {
    for (bool optimize : {true, false}) {
      lcdb::Evaluator::Options options;
      options.optimize = optimize;
      lcdb::Evaluator evaluator(*ext, options);
      auto result = evaluator.EvaluateSentence(**query);
      if (!result.ok() || !*result) {
        state.SkipWithError("connectivity sentence broken");
        break;
      }
      (optimize ? optimized : raw) = evaluator.stats();
    }
    benchmark::DoNotOptimize(optimized.node_evaluations);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["node_evals_optimized"] =
      static_cast<double>(optimized.node_evaluations);
  state.counters["node_evals_raw"] =
      static_cast<double>(raw.node_evaluations);
  state.counters["bool_evals_optimized"] =
      static_cast<double>(optimized.bool_evaluations);
  state.counters["bool_evals_raw"] =
      static_cast<double>(raw.bool_evaluations);
  state.counters["memo_hits_optimized"] =
      static_cast<double>(optimized.memo_hits);
  state.counters["narrowed_subtrees"] =
      static_cast<double>(optimized.plan.narrowed_subtrees);
  state.counters["hoisted_invariants"] =
      static_cast<double>(optimized.plan.hoisted_invariants);
  state.counters["strictly_lower"] =
      optimized.node_evaluations < raw.node_evaluations ? 1 : 0;
}

BENCHMARK(BM_PlanOptimizerAblation)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Dispatch-overhead experiment (EXPERIMENTS.md, "Bytecode VM telemetry"):
/// the connectivity sentence through the plan-tree walk (Arg 1 = 0) vs the
/// register-bytecode VM (Arg 1 = 1) on the comb family. Both backends are
/// byte-identical in answers and memo cadence, so the timing delta isolates
/// interpretation overhead: tree-node virtual-ish dispatch + string-keyed
/// environment maps against dense fixed-width instructions and flat
/// register slots. Counters expose the VM's instruction volume.
void BM_VmDispatch(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  const bool use_vm = state.range(1) != 0;
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  lcdb::Evaluator::Stats last;
  for (auto _ : state) {
    lcdb::Evaluator::Options options;
    options.use_bytecode = use_vm;
    lcdb::Evaluator evaluator(*ext, options);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    if (!*result) state.SkipWithError("comb should be connected");
    last = evaluator.stats();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["vm"] = use_vm ? 1 : 0;
  state.counters["node_evals"] = static_cast<double>(last.node_evaluations);
  state.counters["vm_instructions"] =
      static_cast<double>(last.vm.instructions);
}

BENCHMARK(BM_VmDispatch)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

/// Static-verification overhead experiment (EXPERIMENTS.md, "Static
/// verification telemetry"): the connectivity sentence through the bytecode
/// VM with the tier-3 verifiers ablated (Arg 0 — the `--no-verify` path:
/// no plan invariant walk, no abstract-interpretation pass, the VM's
/// refusal gate waived) and armed (Arg 1 — the default: VerifyPlan after
/// optimization plus the full bytecode dataflow before the first
/// instruction executes). Verification is compile-time-only work per
/// query, so the CI acceptance gate compares the two timings and requires
/// the Arg(1) tax to stay under 2%. Counters expose the verified volume.
void BM_VerifyOverhead(benchmark::State& state) {
  const size_t teeth = 3;
  const bool verify = state.range(0) != 0;
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  lcdb::Evaluator::Stats last;
  for (auto _ : state) {
    lcdb::Evaluator::Options options;
    options.use_bytecode = true;
    options.verify = verify;
    lcdb::Evaluator evaluator(*ext, options);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    if (!*result) state.SkipWithError("comb should be connected");
    last = evaluator.stats();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["verify_enabled"] = verify ? 1 : 0;
  state.counters["plans_verified"] =
      static_cast<double>(last.verify.plans_verified);
  state.counters["instructions_verified"] =
      static_cast<double>(last.verify.instructions_verified);
  state.counters["loops_verified"] =
      static_cast<double>(last.verify.loops_verified);
}

BENCHMARK(BM_VerifyOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Checkpoint/resume acceptance experiment (EXPERIMENTS.md, "Chaos and
/// resilience telemetry"): the connectivity sentence under four modes.
///   mode 0  uninterrupted, checkpoint capture OFF — the baseline;
///   mode 1  uninterrupted, checkpoint capture ON — prices the capture
///           tax on the no-trip path (acceptance: within 2% of mode 0);
///   mode 2  the fixpoint.stage failpoint trips the Kleene loop after its
///           second stage, then the run resumes from the returned token;
///   mode 3  same trip, but the token is dropped and the query recomputes
///           from scratch — what resume saves.
/// Compare mode 2 vs mode 3 timings; `fixpoints_resumed`/`sets_restored`
/// confirm the resumed run actually continued from the checkpoint, and
/// every mode's answer must equal the uninterrupted reference byte for
/// byte (the resume contract from core/resume.h).
void BM_ResumeVsRecompute(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  std::string reference;
  {
    lcdb::Evaluator evaluator(*ext);
    auto answer = evaluator.Evaluate(**query);
    if (!answer.ok()) {
      state.SkipWithError(answer.status().ToString().c_str());
      return;
    }
    reference = answer->ToString();
  }
  lcdb::Evaluator::Stats last;
  for (auto _ : state) {
    lcdb::Evaluator::Options options;
    options.capture_resume = mode != 0;
    lcdb::Evaluator evaluator(*ext, options);
    uint64_t token = 0;
    if (mode >= 2) {
      lcdb::ArmFailpoint("fixpoint.stage",
                         lcdb::StatusCode::kResourceExhausted,
                         "bench-injected trip", /*skip_hits=*/1);
      auto tripped = evaluator.Evaluate(**query);
      lcdb::DisarmAllFailpoints();
      if (tripped.ok()) {
        state.SkipWithError("expected the injected trip to fire");
        break;
      }
      if (mode == 2) token = tripped.status().resume_token();
    }
    auto answer = evaluator.Evaluate(**query, token);
    if (!answer.ok()) {
      state.SkipWithError(answer.status().ToString().c_str());
      break;
    }
    if (answer->ToString() != reference) {
      state.SkipWithError("post-trip answer diverged from the reference");
      break;
    }
    last = evaluator.stats();
    benchmark::DoNotOptimize(answer->formula);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["mode"] = mode;
  state.counters["fixpoint_iterations"] =
      static_cast<double>(last.fixpoint_iterations);
  state.counters["fixpoints_resumed"] =
      static_cast<double>(last.resume_fixpoints_resumed);
  state.counters["sets_restored"] =
      static_cast<double>(last.resume_sets_restored);
  state.counters["stages_skipped"] =
      static_cast<double>(last.resume_stages_skipped);
}

BENCHMARK(BM_ResumeVsRecompute)
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({3, 3})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 3})
    ->Unit(benchmark::kMillisecond);

void BM_RegLfpStaircase(benchmark::State& state) {
  const size_t steps = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeStaircase(steps);
  auto ext = lcdb::MakeArrangementExtension(db);
  for (auto _ : state) {
    auto result =
        lcdb::EvaluateSentenceText(*ext, lcdb::RegionConnQueryText());
    if (!result.ok() || !*result) state.SkipWithError("staircase broken");
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
}

BENCHMARK(BM_RegLfpStaircase)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_GeometricBaseline(benchmark::State& state) {
  // The comparator: same answers, hand-written algorithm (DESIGN.md's
  // substitution for the Grumbach-Kuper language [11]). "Who wins": the
  // baseline, by a wide interpretive margin — the generic evaluator pays
  // for full logic generality with the same polynomial shape.
  const size_t teeth = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  // Warm the extension's lazy caches so only graph traversal is measured.
  (void)lcdb::SpatialConnectivityBaseline(*ext);
  for (auto _ : state) {
    bool connected = lcdb::SpatialConnectivityBaseline(*ext);
    if (!connected) state.SkipWithError("baseline wrong");
    benchmark::DoNotOptimize(connected);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
}

BENCHMARK(BM_GeometricBaseline)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The paper's literal point-quantified Conn (element quantifiers + QE) on
// small instances — the expensive end of Theorem 6.1's algorithm.
void BM_LiteralConnQuery(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/false);
  auto ext = lcdb::MakeArrangementExtension(db);
  for (auto _ : state) {
    auto result = lcdb::EvaluateSentenceText(*ext, lcdb::ConnQueryText(2));
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
}

BENCHMARK(BM_LiteralConnQuery)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The river query (Figure 6): LFP with element-sort side conditions.
void BM_RiverQuery(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db =
      lcdb::MakeRiverScenario(len, {}, {0}, {len - 1});
  auto ext = lcdb::MakeArrangementExtension(db);
  for (auto _ : state) {
    auto result =
        lcdb::EvaluateSentenceText(*ext, lcdb::RiverPollutionQueryText());
    if (!result.ok() || !*result) state.SkipWithError("river broken");
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
}

BENCHMARK(BM_RiverQuery)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
