#ifndef LCDB_PLAN_OP_TIMER_H_
#define LCDB_PLAN_OP_TIMER_H_

#include <chrono>

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

}  // namespace lcdb

#endif  // LCDB_PLAN_OP_TIMER_H_
