#ifndef LCDB_ENGINE_OBSLOG_H_
#define LCDB_ENGINE_OBSLOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace lcdb {

/// Classification of a failed attempt, driving QuerySession's retry policy
/// and naming the outcome in every flight-recorder record. Built on
/// Status::IsResourceFailure with cancellation split out: a cancel is the
/// *caller* changing its mind, so retrying it would be insubordinate, while
/// budget and deadline trips are failures of the attempt's resource
/// envelope and retry cleanly with a bigger one.
enum class FailureClass {
  kNone,       ///< the attempt succeeded
  kInvalid,    ///< bad input (parse/type/argument): no retry can help
  kResource,   ///< budget or deadline trip: escalate + resume and retry
  kCancelled,  ///< external cancel: never retried, never quarantined
  kFault,      ///< internal/unsupported: engine fault; never retried
};

FailureClass ClassifyFailure(const Status& status);
const char* FailureClassName(FailureClass c);

/// Stable lower_snake name of a StatusCode ("ok", "resource_exhausted",
/// ...), the spelling the query-record and post-mortem JSON schemas pin.
const char* StatusCodeName(StatusCode code);

/// Monotonic nanoseconds (steady_clock) for phase timing. One shared
/// epoch-free reading; only differences are meaningful.
uint64_t ObsNowNs();

/// One structured record of one evaluated query — the unit of the flight
/// recorder. Everything is plain data so records survive the query (and the
/// evaluator) that produced them; serialized as one schema-stable JSONL
/// line (`lcdb.query_record.v1`).
struct QueryRecord {
  uint64_t sequence = 0;    ///< assigned by QueryFlightRecorder::Append
  uint64_t query_hash = 0;  ///< StableHash64 of the query source text
  std::string backend;      ///< "vm" | "tree" | "legacy"
  uint64_t plan_fingerprint = 0;  ///< StableHash64 of the printed plan

  // Per-phase wall-clock, nanoseconds: the durations of the tracer's phase
  // spans, filled through TraceSpan sinks (so with a tracer installed they
  // equal the recorded spans); zero means the phase did not run (e.g.
  // plan.* under the legacy walk, execute after an analysis rejection).
  // A phase an interrupt cut short holds its time up to the unwind.
  uint64_t typecheck_ns = 0;
  uint64_t analyze_ns = 0;
  uint64_t plan_build_ns = 0;
  /// plan.optimize + plan.cost
  uint64_t plan_optimize_ns = 0;
  uint64_t verify_ns = 0;   ///< plan.verify
  uint64_t execute_ns = 0;  ///< plan.execute or legacy.walk
  uint64_t total_ns = 0;    ///< its own bracket, around the whole call

  // Governor consumption of the attempt (zeros when ungoverned).
  uint64_t governor_checkpoints = 0;
  uint64_t governor_budget_trips = 0;
  std::string tripped_budget;  ///< "" unless a budget tripped

  // Kernel cache outcomes of the attempt; hit *rates* are left to
  // consumers so records stay integral and mergeable.
  uint64_t kernel_cache_hits = 0;
  uint64_t kernel_cache_misses = 0;
  uint64_t lemma_hits = 0;
  uint64_t lemma_misses = 0;

  // Outcome.
  std::string outcome = "none";   ///< FailureClassName of the final status
  std::string status_code = "ok";  ///< StatusCodeName of the final status
  uint64_t resume_token = 0;  ///< checkpoint carried by a resource failure

  // Session context, annotated by QuerySession after its last attempt;
  // zeros for bare Evaluator use.
  uint64_t retries = 0;
  uint64_t resumes = 0;
  bool sampled = false;  ///< the continuous profiler traced this query

  /// One JSONL line, schema `lcdb.query_record.v1` (validated in CI).
  std::string ToJson() const;
};

/// The query flight recorder: a bounded, mutex-guarded ring of the most
/// recent QueryRecords. Install with ScopedFlightRecorder; the Evaluator
/// appends one record per Evaluate call automatically, and QuerySession
/// annotates the final attempt's record with retry context. The disabled
/// path (no recorder installed process-wide) costs one relaxed atomic load
/// per query, the failpoint/tracer contract.
///
/// Unlike the tracer, one recorder deliberately serves *many* queries (and,
/// behind a mutex, many threads): it is the cross-query telemetry surface
/// the ROADMAP's `lcdbd` daemon tails.
class QueryFlightRecorder {
 public:
  struct Options {
    /// Ring bound on retained records; older records are dropped (counted).
    size_t capacity = 256;
  };

  QueryFlightRecorder() : QueryFlightRecorder(Options{}) {}
  explicit QueryFlightRecorder(Options options);

  QueryFlightRecorder(const QueryFlightRecorder&) = delete;
  QueryFlightRecorder& operator=(const QueryFlightRecorder&) = delete;

  /// Appends one record, assigning and returning its sequence number
  /// (1-based, monotone across drops).
  uint64_t Append(QueryRecord record);

  /// Rewrites session-level fields of the most recently appended record —
  /// QuerySession's hook: retries/resumes/final outcome are only known
  /// after the retries finished, i.e. after the last attempt appended.
  /// No-op on an empty ring.
  void AnnotateLast(uint64_t retries, uint64_t resumes,
                    const std::string& outcome, bool sampled);

  size_t size() const;
  uint64_t appended() const;  ///< records ever appended
  uint64_t dropped() const;   ///< records evicted by the ring bound

  /// The most recent min(n, size) records, oldest first.
  std::vector<QueryRecord> Tail(size_t n) const;

  /// Every retained record as JSONL, oldest first (`lcdbq --query-log`).
  std::string ToJsonl() const;

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::vector<QueryRecord> ring_;  ///< ring; start index is head_
  size_t head_ = 0;
  uint64_t appended_ = 0;
  uint64_t dropped_ = 0;
};

/// The innermost ScopedFlightRecorder on this thread, or nullptr.
QueryFlightRecorder* CurrentFlightRecorderOrNull();

/// RAII install, mirroring ScopedTracer / ScopedKernel.
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(QueryFlightRecorder& recorder);
  ~ScopedFlightRecorder();

  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  QueryFlightRecorder* previous_;
};

namespace internal {
/// Number of ScopedFlightRecorder installs alive process-wide. Zero means
/// every record site reduces to one relaxed load (the failpoint pattern).
extern std::atomic<int> g_active_flight_recorders;
}  // namespace internal

/// The recorder Evaluate should append to, or nullptr on the fast path.
inline QueryFlightRecorder* ActiveFlightRecorderOrNull() {
  if (internal::g_active_flight_recorders.load(std::memory_order_relaxed) ==
      0) {
    return nullptr;
  }
  return CurrentFlightRecorderOrNull();
}

/// Everything needed to diagnose one failed query after the fact, bundled
/// as a single JSON document (`lcdb.postmortem.v2`): the failing status and
/// its classification, the attempt/retry/resume counts, the resume-token
/// state, the last attempt's span tree, the metrics delta of the call and
/// the flight recorder's tail for cross-query context.
struct PostmortemBundle {
  uint64_t query_hash = 0;
  std::string query_text;
  std::string status_code;     ///< StatusCodeName
  std::string status_message;
  std::string failure_class;   ///< FailureClassName
  uint64_t resume_token = 0;   ///< outstanding checkpoint, 0 if none
  uint64_t attempts = 0;       ///< evaluator runs this call
  uint64_t retries = 0;
  uint64_t resumes = 0;
  std::string span_tree;     ///< QueryTracer::ToTreeString, "" if untraced
  std::string metrics_json;  ///< flat metrics JSON of the call, "{}" if none
  std::vector<QueryRecord> flight_tail;  ///< recorder tail at failure time

  std::string ToJson() const;
};

/// Serializes post-mortem bundles into a directory as a bounded ring of
/// `postmortem-<slot>.json` files (slot = sequence % max_bundles), so a
/// chaos run cannot fill the disk. The directory is created on first write.
class PostmortemWriter {
 public:
  struct Options {
    std::string directory;
    size_t max_bundles = 256;
  };

  explicit PostmortemWriter(Options options);

  /// Writes one bundle; returns the path written.
  Result<std::string> Write(const PostmortemBundle& bundle);

  uint64_t written() const { return written_; }
  const std::string& last_path() const { return last_path_; }

 private:
  Options options_;
  uint64_t written_ = 0;
  std::string last_path_;
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_OBSLOG_H_
