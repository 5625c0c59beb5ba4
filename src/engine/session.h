#ifndef LCDB_ENGINE_SESSION_H_
#define LCDB_ENGINE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "core/evaluator.h"
#include "db/region_extension.h"
#include "engine/governor.h"
#include "engine/metrics.h"
#include "engine/obslog.h"
#include "engine/profiler.h"
#include "engine/trace.h"
#include "util/status.h"

namespace lcdb {

// The failure taxonomy (FailureClass / ClassifyFailure / FailureClassName)
// lives in engine/obslog.h now — the flight recorder names outcomes with
// it below the evaluator layer — and is re-exported here unchanged.

struct SessionOptions {
  /// Evaluator configuration. capture_resume is forced on, so a resource
  /// retry continues from the interrupted Kleene stage (core/resume.h).
  Evaluator::Options eval;
  /// Base per-attempt budgets. A governor is installed only when at least
  /// one budget is finite, so unbudgeted sessions stay zero-overhead.
  GovernorLimits limits;
  /// Resource retries allowed beyond the first attempt.
  size_t max_retries = 3;
  /// Continuous-profiling policy (engine/profiler.h): sample_every == 0
  /// (the default here) disables it; N > 0 traces every Nth query and folds
  /// its spans into the profile.op.* histograms.
  ContinuousProfiler::Options profile{.sample_every = 0};
  /// When non-empty, every Evaluate call that ends in a non-OK Status
  /// serializes a post-mortem bundle (engine/obslog.h) into this directory.
  std::string postmortem_dir;
};

/// Cumulative counters of one session, exported as the session.* metrics
/// family (QuerySession::Metrics).
struct SessionStats {
  uint64_t queries = 0;      ///< Evaluate/EvaluateSentence calls
  uint64_t successes = 0;
  uint64_t failures = 0;     ///< resource, fault and cancel failures
  uint64_t invalid = 0;      ///< calls rejected as kInvalid (no retries)
  uint64_t attempts = 0;     ///< evaluator runs, including retries
  uint64_t retries = 0;
  uint64_t resumes = 0;      ///< retries that continued from a checkpoint
  uint64_t budget_escalations = 0;
  uint64_t quarantined = 0;  ///< texts currently on the quarantine list
  uint64_t quarantine_rejections = 0;

  std::string ToString() const;
};

/// A resilient evaluation session: wraps the Evaluator with a failure
/// taxonomy, bounded resource retries with budget escalation and
/// checkpoint/resume, and a quarantine list.
///
/// Each Evaluate call runs at most 1 + max_retries attempts, every attempt
/// under the caller's kernel (CurrentKernel(): lemma verdicts are pure, so
/// a retry and the next query reuse them) and, when budgeted, a fresh
/// governor:
///
///  * kResource failures multiply every finite budget by
///    kBudgetEscalation and retry, continuing from the checkpoint the
///    failure Status carried (byte-identical final answers — see
///    core/resume.h).
///  * kFault, kInvalid and kCancelled return after their first attempt: an
///    answer depends only on the query and the database, so rerunning a
///    fault reproduces it.
///
/// A call that ends in a resource or fault failure counts one
/// deterministic failure against its query text; at kQuarantineThreshold
/// consecutive failures the text is quarantined and later calls are
/// rejected (kResourceExhausted) without consuming any budget, until
/// ClearQuarantine().
///
/// The session is single-threaded, like the Evaluator it wraps.
class QuerySession {
 public:
  /// Factor applied to every finite budget on each resource retry
  /// (saturating at kUnlimited).
  static constexpr uint64_t kBudgetEscalation = 2;
  /// Consecutive failed calls of one query text before it is quarantined.
  static constexpr size_t kQuarantineThreshold = 3;

  explicit QuerySession(const RegionExtension& extension,
                        SessionOptions options = {});

  /// Parses, type-checks and evaluates `query_text`, retrying resource
  /// failures. The returned Status of a failed call is the *last*
  /// attempt's.
  Result<QueryAnswer> Evaluate(std::string_view query_text);

  /// Sentence variant: the answer must have no free element variables;
  /// returns its truth value.
  Result<bool> EvaluateSentence(std::string_view query_text);

  const SessionStats& stats() const { return stats_; }

  bool IsQuarantined(std::string_view query_text) const;
  void ClearQuarantine();

  /// Replaces the base budgets for subsequent calls (lcdbsh `\set`).
  void set_limits(const GovernorLimits& limits) { options_.limits = limits; }

  /// The session.* counter family merged over the most recent call's
  /// evaluator metrics (evaluator.*, kernel.*, governor.*, plan.*) — the
  /// one flat namespace `lcdbq --stats` prints.
  MetricsSnapshot Metrics() const;

  /// The continuous profiler, when SessionOptions::profile.sample_every is
  /// nonzero (lcdbsh `\show profile`); nullptr otherwise.
  const ContinuousProfiler* profiler() const { return profiler_.get(); }

  /// Post-mortem bundles written so far / the most recent bundle's path
  /// ("" until the first failure under a configured postmortem_dir).
  uint64_t postmortems_written() const {
    return postmortem_ ? postmortem_->written() : 0;
  }
  const std::string& last_postmortem_path() const {
    static const std::string kEmpty;
    return postmortem_ ? postmortem_->last_path() : kEmpty;
  }

 private:
  /// The retry loop around one parsed query. `key` is the quarantine key
  /// (the source text). With a tracer installed, `span_base` receives its
  /// spans_begun() at the start of each attempt, so the caller can tell
  /// the last attempt's spans apart.
  Result<QueryAnswer> RunAttempts(const FormulaNode& query,
                                  const std::string& key,
                                  std::string_view source,
                                  const QueryTracer* tracer,
                                  uint64_t* span_base);
  /// Bookkeeping for a call that ended in a resource or fault failure.
  void RecordDeterministicFailure(const std::string& key);
  /// Serializes one post-mortem bundle for a failed call, when
  /// options_.postmortem_dir is configured. `span_tree` is the last
  /// attempt's, "" when untraced. Write errors are swallowed (diagnostics
  /// must never turn a query failure into a crash), but counted nowhere —
  /// the chaos CI asserts bundles exist instead.
  void WritePostmortem(std::string_view query_text, const Status& status,
                       uint64_t attempts, uint64_t retries,
                       uint64_t resumes, std::string span_tree,
                       bool attempted);

  const RegionExtension& ext_;
  SessionOptions options_;
  SessionStats stats_;
  std::map<std::string, size_t> failure_streaks_;
  std::set<std::string, std::less<>> quarantine_;
  /// Metrics of the most recent call's evaluator, kept past its lifetime.
  MetricsSnapshot last_eval_metrics_;
  std::string last_failure_class_;
  std::unique_ptr<ContinuousProfiler> profiler_;  ///< when sampling is on
  std::unique_ptr<PostmortemWriter> postmortem_;  ///< when a dir is set
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_SESSION_H_
