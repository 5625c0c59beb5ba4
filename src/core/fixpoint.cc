#include <string>

#include "core/evaluator.h"
#include "core/pfp_cycle.h"
#include "core/resume.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/trace.h"
#include "util/failpoint.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

/// Computes the semantics of [LFP/IFP/PFP_{M, X̄} body] as a set of region
/// tuples (Definition 5.1). The set is independent of the outer environment
/// because Definition 5.1 forces free(body) = {M, X̄}, so it is computed at
/// most once per operator node and cached.
///
///  * LFP: body is positive in M, so f_body is monotone and the Kleene
///    stages increase; tuples already derived are kept without re-proof.
///  * IFP: stages are inflationary by definition (M ∪ f(M)).
///  * PFP: stages iterate f exactly; if a fixed point is reached it is the
///    result, and if the sequence cycles without reaching one the result is
///    the empty set (standard PFP semantics on finite structures).
///
/// Resource limits (Options::max_* and any installed QueryGovernor budget)
/// surface as QueryInterrupt, caught at the Evaluate boundary; the cache
/// insert happens only after the full set is computed, so an interrupt
/// leaves fixpoint_cache_ without a (possibly partial) entry.
const Evaluator::TupleSet& Evaluator::FixpointSet(const FormulaNode& node) {
  auto cached = fixpoint_cache_.find(&node);
  if (cached != fixpoint_cache_.end()) return cached->second;

  // Resume fast path: a prior interrupted run already finished this
  // operator; install its set without recomputing (core/resume.h).
  ResumeCollector* resume = CurrentResumeCollectorOrNull();
  const uint64_t site = resume != nullptr ? resume->SiteKey(&node) : 0;
  if (site != 0) {
    if (const TupleSet* done = resume->CompletedFixpoint(site)) {
      ++stats_.resume_sets_restored;
      return fixpoint_cache_.emplace(&node, *done).first->second;
    }
  }

  ++stats_.fixpoints_computed;
  // How many oracle decisions the Kleene iteration spends — the quantity
  // Theorem 6.1's PTIME bound controls (iterations × |Reg|^k body tests).
  const uint64_t kernel_queries_before =
      CurrentKernel().stats().feasibility_queries;
  const size_t k = node.bound_vars.size();
  const size_t n = ext_.num_regions();
  // Tuple-space size guard (n^k).
  size_t space = 1;
  for (size_t i = 0; i < k; ++i) {
    if (space > options_.max_tuple_space / std::max<size_t>(n, 1)) {
      throw QueryInterrupt(Status::ResourceExhausted(
          "fixed-point tuple space exceeds max_tuple_space (" +
          std::to_string(options_.max_tuple_space) + ")"));
    }
    space *= n;
  }
  GovernorCheckTupleSpace(space, "fixed-point");

  const FormulaNode& body = *node.children[0];
  const bool is_pfp = node.kind == NodeKind::kPfp;

  // One Kleene stage: the next tuple set from the current one. Pure in the
  // set binding (memo entries are keyed by a fresh version each call), so
  // PfpCycleDetector may replay it to verify hash hits exactly.
  auto kleene_stage = [&](const TupleSet& cur) {
    TupleSet next;
    if (!is_pfp) next = cur;  // LFP (monotone) / IFP keep prior stage
    RegionEnv body_env;
    SetEnv body_senv;
    body_senv.emplace(node.set_var,
                      TupleSetBinding{&cur, ++set_version_counter_});
    Tuple tuple(k, 0);
    bool done_tuples = (n == 0);
    while (!done_tuples) {
      // Monotone/inflationary stages never lose tuples, so skip re-proofs.
      if (is_pfp || !next.count(tuple)) {
        for (size_t i = 0; i < k; ++i) {
          body_env[node.bound_vars[i]] = tuple[i];
        }
        if (EvalBool(body, body_env, body_senv)) next.insert(tuple);
      }
      // Advance the k-digit counter.
      size_t pos = k;
      while (pos > 0) {
        --pos;
        if (++tuple[pos] < n) break;
        tuple[pos] = 0;
        if (pos == 0) done_tuples = true;
      }
      if (k == 0) done_tuples = true;
    }
    return next;
  };

  auto account = [&] {
    stats_.fixpoint_feasibility_queries +=
        CurrentKernel().stats().feasibility_queries - kernel_queries_before;
  };

  TupleSet current;
  size_t iteration = 0;
  PfpCycleDetector cycle;  // PFP only; stores 8 bytes per stage
  if (site != 0) {
    // Continue an interrupted Kleene loop from its last completed stage.
    // Valid here because Definition 5.1 makes the stage sequence a pure
    // function of the operator, not of the environment we were called in.
    FixpointResumePoint point;
    if (resume->TakeInProgress(site, &point)) {
      current = std::move(point.approximation);
      iteration = point.iteration;
      cycle.SeedHashes(point.pfp_hashes);
      ++stats_.resume_fixpoints_resumed;
      stats_.resume_stages_skipped += point.iteration;
    }
  }
  try {
    for (;; ++iteration) {
      LCDB_FAILPOINT("fixpoint.stage");
      GovernorOnFixpointIteration();
      if (is_pfp) {
        if (iteration > options_.max_pfp_iterations) {
          throw QueryInterrupt(Status::ResourceExhausted(
              "PFP exceeded max_pfp_iterations (" +
              std::to_string(options_.max_pfp_iterations) + ")"));
        }
        if (cycle.SeenBefore(current, iteration, kleene_stage)) {
          // Revisited a state without reaching a fixed point: diverges.
          account();
          return fixpoint_cache_.emplace(&node, TupleSet{}).first->second;
        }
      }
      ++stats_.fixpoint_iterations;
      TupleSet next;
      {
        TraceSpan stage_span("fixpoint.stage");
        next = kleene_stage(current);
        stage_span.Counter("iteration", iteration);
        stage_span.Counter("tuples", next.size());
      }
      if (next == current) break;
      current = std::move(next);
    }
  } catch (const QueryInterrupt&) {
    // Checkpoint the last completed stage before unwinding. `current` is
    // whole even when the interrupt landed mid-stage: the partial `next`
    // was local to kleene_stage and the stage recomputes deterministically.
    if (site != 0) {
      std::vector<uint64_t> pfp_hashes =
          is_pfp ? cycle.ExportHashes(current) : std::vector<uint64_t>{};
      resume->CaptureInProgress(site, std::move(current), iteration,
                                std::move(pfp_hashes));
    }
    throw;
  }
  account();
  return fixpoint_cache_.emplace(&node, std::move(current)).first->second;
}

}  // namespace lcdb
