#ifndef LCDB_ENGINE_TRACE_H_
#define LCDB_ENGINE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace lcdb {

/// Span-based query tracer: records *where inside one query* the time went —
/// Evaluate → plan build / optimizer passes → per-plan-node execution →
/// fixpoint stages / Fourier-Motzkin projection rounds / simplex solves /
/// arrangement splits — as a tree of timed spans with attached counters.
///
/// Install with ScopedTracer, mirroring ScopedKernel/ScopedGovernor. The
/// disabled path (no tracer installed anywhere in the process) costs one
/// relaxed atomic load and a predicted branch per span site, exactly the
/// failpoint facility's contract; installing any tracer switches the sites
/// on that thread onto the recording path.
///
/// Spans land in a bounded ring buffer of completed records: when more
/// spans are produced than `Options::capacity`, the oldest complete spans
/// are dropped (counted in spans_dropped()) while the open-span stack —
/// the path from the root to the currently executing operator — is always
/// kept, so the exported trace stays a forest with intact ancestry.
///
/// Exporters:
///  * ToChromeTraceJson() — Chrome trace-event JSON ("X" complete events),
///    loadable in Perfetto / chrome://tracing (`lcdbq --trace=out.json`);
///  * ToTreeString() — indented span tree with optional zeroed timestamps,
///    the stable rendering the golden test pins.
///
/// Thread model: one tracer serves one query on one thread (like the
/// executor). RequestingCounters/spans from other threads is not supported;
/// the activation check is the only cross-thread-visible state.
class QueryTracer {
 public:
  struct Options {
    /// Ring-buffer bound on retained *completed* spans.
    size_t capacity = 1u << 14;
  };

  QueryTracer() : QueryTracer(Options{}) {}
  explicit QueryTracer(Options options);
  ~QueryTracer();

  QueryTracer(const QueryTracer&) = delete;
  QueryTracer& operator=(const QueryTracer&) = delete;

  /// Opens a span; returns its id. `name` is copied. Spans close LIFO.
  uint64_t BeginSpan(const char* name);
  /// Closes span `id` and returns its recorded duration in nanoseconds.
  uint64_t EndSpan(uint64_t id);
  /// Attaches `name`=`value` to the innermost open span (repeat names
  /// overwrite, so loops can publish their final trip counts).
  void Counter(const char* name, uint64_t value);

  /// Completed spans currently retained / dropped by the ring bound /
  /// total ever begun (dropped + retained + open = begun).
  size_t spans_retained() const { return completed_.size(); }
  uint64_t spans_dropped() const { return dropped_; }
  uint64_t spans_begun() const { return next_id_; }

  std::string ToChromeTraceJson() const;
  /// Indented tree of completed spans in begin order. With
  /// `zero_timestamps` the time columns are omitted entirely, leaving only
  /// structure, names and counters — byte-stable across runs. Only spans
  /// with an id above `after_span` are rendered: ids count up from 1, so an
  /// earlier spans_begun() selects the spans opened since.
  std::string ToTreeString(bool zero_timestamps = false,
                           uint64_t after_span = 0) const;

  /// Visits every retained completed span with an id above `after_span` as
  /// (name, inclusive duration ns) in begin order — the continuous
  /// profiler's folding hook (engine/profiler.h): per-op histograms need
  /// durations, not structure.
  void VisitCompletedSpans(
      const std::function<void(const std::string&, uint64_t)>& visit,
      uint64_t after_span = 0) const;

 private:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< parent span id; 0 = root (ids start at 1)
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    std::vector<std::pair<std::string, uint64_t>> counters;
  };

  uint64_t NowNs() const;
  /// Retained completed spans with id > `after_span`, in begin (id) order.
  std::vector<const Span*> CompletedInBeginOrder(uint64_t after_span) const;

  Options options_;  ///< normalized at construction (capacity >= 1)
  uint64_t epoch_ns_ = 0;     ///< steady_clock at construction
  uint64_t next_id_ = 0;      ///< ids handed out (== spans begun)
  uint64_t dropped_ = 0;
  std::vector<Span> open_;    ///< stack: root ... innermost
  std::vector<Span> completed_;  ///< ring: oldest dropped past capacity
  size_t completed_head_ = 0;    ///< ring start index within completed_
};

/// The innermost ScopedTracer on this thread, or nullptr (the default).
QueryTracer* CurrentTracerOrNull();

/// RAII install, mirroring ScopedKernel / ScopedGovernor.
class ScopedTracer {
 public:
  explicit ScopedTracer(QueryTracer& tracer);
  ~ScopedTracer();

  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  QueryTracer* previous_;
};

namespace internal {
/// Number of ScopedTracer installs alive process-wide. Zero means every
/// span site reduces to this one relaxed load (the failpoint pattern).
extern std::atomic<int> g_active_tracers;
}  // namespace internal

/// The tracer span sites should record into, or nullptr on the fast path.
inline QueryTracer* ActiveTracerOrNull() {
  if (internal::g_active_tracers.load(std::memory_order_relaxed) == 0) {
    return nullptr;
  }
  return CurrentTracerOrNull();
}

/// RAII span guard for instrumentation sites. Does nothing (beyond the
/// atomic load) when no tracer is installed; a null `name` opens no span.
///
/// The span is the one clock of a timed interval: `sink`, when given,
/// receives the span's duration on close (added, so several spans can fill
/// one total). With a tracer installed that is exactly the duration the
/// tracer records; without one the guard reads the clock itself, once at
/// each end.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, uint64_t* sink = nullptr)
      : tracer_(name != nullptr ? ActiveTracerOrNull() : nullptr),
        sink_(sink) {
    if (tracer_ != nullptr) {
      id_ = tracer_->BeginSpan(name);
    } else if (sink_ != nullptr) {
      start_ns_ = SteadyNowNs();
    }
  }
  ~TraceSpan() {
    if (tracer_ != nullptr) {
      const uint64_t ns = tracer_->EndSpan(id_);
      if (sink_ != nullptr) *sink_ += ns;
    } else if (sink_ != nullptr) {
      *sink_ += SteadyNowNs() - start_ns_;
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a counter to this span (no-op when disabled).
  void Counter(const char* name, uint64_t value) {
    if (tracer_ != nullptr) tracer_->Counter(name, value);
  }
  bool active() const { return tracer_ != nullptr; }

 private:
  static uint64_t SteadyNowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  QueryTracer* tracer_;
  uint64_t* sink_;
  uint64_t id_ = 0;        ///< with a tracer
  uint64_t start_ns_ = 0;  ///< without one, when there is a sink
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_TRACE_H_
