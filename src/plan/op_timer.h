#ifndef LCDB_PLAN_OP_TIMER_H_
#define LCDB_PLAN_OP_TIMER_H_

#include <chrono>

#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/trace.h"
#include "plan/plan_ir.h"
#include "plan/plan_stats.h"

namespace lcdb {

/// Accumulates wall-clock time of one operator execution into op_timings,
/// and opens a trace span named after the operator when a tracer is
/// installed (the span is the per-plan-node level of the trace tree). On an
/// unwind the destructor records the partial time and closes the span.
class ScopedOpTimer {
 public:
  ScopedOpTimer(OpTimings* timings, PlanOp op)
      : timings_(timings), op_(op),
        span_(PlanOpName(op).c_str()),  // BeginSpan copies the name
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedOpTimer() {
    OpTiming& slot = (*timings_)[PlanOpName(op_)];
    ++slot.count;
    slot.total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  }

  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  OpTimings* timings_;
  PlanOp op_;
  TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

/// EXPLAIN ANALYZE measurement of one uncached node evaluation, shared by
/// the tree walk, the VM and the region engine: construction snapshots the
/// ambient kernel and governor counters and the clock; Record() adds the
/// inclusive wall-clock and the counter deltas to the node's profile. A
/// bracket an unwinding QueryInterrupt skips past records nothing, which is
/// the right answer — a tripped node never produced a result to attribute.
class NodeProfileBracket {
 public:
  NodeProfileBracket()
      : kernel_before_(CurrentKernel().stats()),
        governor_(CurrentGovernorOrNull()),
        checkpoints_before_(
            governor_ != nullptr ? governor_->stats().checkpoints : 0),
        start_(std::chrono::steady_clock::now()) {}

  void Record(PlanNodeProfile& p) const {
    p.total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    const KernelStats after = CurrentKernel().stats();
    p.kernel_queries +=
        (after.feasibility_queries - kernel_before_.feasibility_queries) +
        (after.implication_queries - kernel_before_.implication_queries);
    p.kernel_cache_hits +=
        (after.cache_hits - kernel_before_.cache_hits) +
        (after.implication_cache_hits - kernel_before_.implication_cache_hits);
    if (governor_ != nullptr) {
      p.governor_checkpoints +=
          governor_->stats().checkpoints - checkpoints_before_;
    }
  }

 private:
  KernelStats kernel_before_;
  QueryGovernor* governor_;
  uint64_t checkpoints_before_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lcdb

#endif  // LCDB_PLAN_OP_TIMER_H_
