// Traced layer-by-layer replay of one query: the pipeline's public functions
// called in the order the Evaluator calls them, each wrapped in a span of the
// benchmark's own, with the program's existing spans read back from the
// tracer to split execution further.

#ifndef LCDB_PERFBENCH_REPLAY_H_
#define LCDB_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/evaluator.h"
#include "db/region_extension.h"
#include "engine/trace.h"

namespace lcdb::perfbench {

/// Named sums over one round of queries (times in their metric's unit).
using Tally = std::map<std::string, double>;

/// Totals of all completed spans sharing one name.
struct SpanTotals {
  double inclusive_us = 0;
  /// Duration minus the part covered by child spans, from span nesting.
  double self_us = 0;
  std::map<std::string, uint64_t> counters;  // summed over the spans
};
using SpanSummary = std::map<std::string, SpanTotals>;

/// Reads every completed span of `tracer` with its parent link and counters.
SpanSummary Summarize(const QueryTracer& tracer);

/// Completed spans one query may produce; the per-query tracer is sized so
/// that none is dropped, and a drop fails the run.
constexpr size_t kTracerCapacity = size_t{1} << 21;

struct ReplayResult {
  Status status = Status::Ok();
  std::string answer;  // QueryAnswer::ToString(), when status is ok
  uint64_t spans_dropped = 0;
};

/// Replays `text` through ParseQuery -> TypeCheck -> AnalyzeQuery ->
/// BuildPlan -> OptimizePlan -> AnalyzePlanCost -> VerifyPlan -> ExecutePlan
/// (tree backend) under a fresh tracer, adding per-layer values to `tally`.
ReplayResult ReplayTree(const RegionExtension& ext, std::string_view text,
                        Tally& tally);

/// Replays the same front end, then CompileToBytecode -> VerifyBytecode ->
/// ExecutePlan with use_bytecode on the resulting plan, adding the VM
/// layer's values to `tally`.
ReplayResult ReplayVm(const RegionExtension& ext, std::string_view text,
                      Tally& tally);

}  // namespace lcdb::perfbench

#endif  // LCDB_PERFBENCH_REPLAY_H_
