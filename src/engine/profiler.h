#ifndef LCDB_ENGINE_PROFILER_H_
#define LCDB_ENGINE_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/metrics.h"
#include "engine/trace.h"

namespace lcdb {

/// Sampled continuous profiler: the cross-query aggregation layer over the
/// per-query tracer. Per the ROADMAP's `lcdbd` item, a serving process
/// cannot trace every query — instead this samples the tracer
/// *deterministically* every Nth query, folds the sampled spans' inclusive
/// times into the `profile.op.*` histogram family (p50/p90/p99 derivable
/// from the log2 buckets), and retains whole span trees only for the
/// queries worth keeping: failures and the slowest decile.
///
/// Determinism is a testing and fleet-attribution feature: query k (1-based)
/// is sampled iff (k-1) % sample_every == 0, so N queries yield exactly
/// ceil(N / sample_every) traces — no RNG, reproducible across runs.
///
/// Thread model: owned and driven by one QuerySession (single-threaded,
/// like the Evaluator it wraps).
class ContinuousProfiler {
 public:
  struct Options {
    /// Sampling period: every Nth query carries a tracer. 0 disables
    /// sampling entirely (ShouldSample always false); 1 traces everything.
    uint64_t sample_every = 64;
    /// Bound on retained span trees (failed + slow-tail queries). Oldest
    /// non-failed trees are evicted first, then oldest failed.
    size_t keep_traces = 8;
    /// Total-latency observations required before the slow-tail test
    /// trusts its p90 estimate; until then every sampled trace is retained
    /// (a cold profiler should keep what little it has seen).
    uint64_t min_samples_for_tail = 16;
  };

  ContinuousProfiler() : ContinuousProfiler(Options{}) {}
  explicit ContinuousProfiler(Options options);

  /// Deterministic sampling decision for the next query; call exactly once
  /// per query *before* running it. True means "install a tracer".
  bool ShouldSample();

  /// Observes one completed query. `total_ns` always lands in the
  /// profile.query.total_ns histogram (every query funds the tail
  /// threshold, sampled or not). When `tracer` is non-null — a sampled
  /// query — each completed span folds into profile.op.<name> and the span
  /// tree is retained if the query failed or its latency reached the
  /// slowest decile of everything seen so far. Only spans with an id above
  /// `after_span` (QueryTracer::spans_begun() before the query) count, so a
  /// tracer shared with the caller contributes just this query's spans.
  void RecordQuery(uint64_t total_ns, bool failed, const QueryTracer* tracer,
                   uint64_t after_span = 0);

  /// A span tree the tail policy decided to keep.
  struct RetainedTrace {
    uint64_t query_index = 0;  ///< 1-based index among queries seen
    uint64_t total_ns = 0;
    bool failed = false;
    std::string tree;  ///< QueryTracer::ToTreeString()
  };
  const std::vector<RetainedTrace>& retained() const { return retained_; }

  uint64_t queries_seen() const { return queries_; }
  uint64_t queries_sampled() const { return sampled_; }

  /// The profile.* family: profile.queries / profile.sampled /
  /// profile.traces_retained counters, the profile.query.total_ns
  /// histogram, and one profile.op.<name> histogram per sampled span name.
  MetricsSnapshot Metrics() const;

 private:
  /// Slow-tail test: `total_ns` at or above the p90 estimate of every
  /// total latency seen so far (always true while under
  /// min_samples_for_tail observations).
  bool IsSlowTail(uint64_t total_ns) const;
  void Retain(RetainedTrace trace);

  Options options_;
  uint64_t queries_ = 0;
  uint64_t sampled_ = 0;
  MetricsRegistry registry_;
  std::vector<RetainedTrace> retained_;
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_PROFILER_H_
