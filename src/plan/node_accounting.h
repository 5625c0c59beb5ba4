#ifndef LCDB_PLAN_NODE_ACCOUNTING_H_
#define LCDB_PLAN_NODE_ACCOUNTING_H_

#include <chrono>

#include "core/evaluator.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "plan/plan_ir.h"
#include "plan/plan_stats.h"

namespace lcdb {

/// Opens the node-level accounting of one uncached execution of `op`
/// (AccountingOf), shared by the tree walk and the VM: bumps the operator's
/// counter and returns the name of the span it opens, or nullptr when it
/// opens none.
inline const char* AccountOp(PlanOp op, Evaluator::Stats* stats) {
  const OpAccounting accounting = AccountingOf(op);
  if (accounting.qe_elimination) ++stats->qe_eliminations;
  if (accounting.region_expansion) ++stats->region_expansions;
  return accounting.span ? PlanOpName(op) : nullptr;
}

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

#endif  // LCDB_PLAN_NODE_ACCOUNTING_H_
