#include "engine/profiler.h"

#include <utility>

namespace lcdb {

ContinuousProfiler::ContinuousProfiler(Options options) : options_(options) {
  if (options_.keep_traces == 0) options_.keep_traces = 1;
}

bool ContinuousProfiler::ShouldSample() {
  const uint64_t index = queries_++;
  if (options_.sample_every == 0) return false;
  const bool sample = index % options_.sample_every == 0;
  if (sample) ++sampled_;
  return sample;
}

void ContinuousProfiler::RecordQuery(uint64_t total_ns, bool failed,
                                     const QueryTracer* tracer,
                                     uint64_t after_span) {
  registry_.Observe("profile.query.total_ns", total_ns);
  if (tracer == nullptr) return;
  tracer->VisitCompletedSpans(
      [&](const std::string& name, uint64_t dur_ns) {
        registry_.Observe("profile.op." + name, dur_ns);
      },
      after_span);
  if (failed || IsSlowTail(total_ns)) {
    RetainedTrace trace;
    trace.query_index = queries_;
    trace.total_ns = total_ns;
    trace.failed = failed;
    trace.tree = tracer->ToTreeString(false, after_span);
    Retain(std::move(trace));
  }
}

bool ContinuousProfiler::IsSlowTail(uint64_t total_ns) const {
  const MetricsSnapshot snapshot = registry_.Snapshot();
  auto it = snapshot.histograms.find("profile.query.total_ns");
  if (it == snapshot.histograms.end()) return true;
  if (it->second.count < options_.min_samples_for_tail) return true;
  return total_ns >= it->second.Percentile(0.90);
}

void ContinuousProfiler::Retain(RetainedTrace trace) {
  if (retained_.size() >= options_.keep_traces) {
    // Evict the oldest non-failed tree first; failure trees are the ones a
    // post-mortem wants, so they go only when nothing else is left.
    auto victim = retained_.end();
    for (auto it = retained_.begin(); it != retained_.end(); ++it) {
      if (!it->failed) {
        victim = it;
        break;
      }
    }
    if (victim == retained_.end()) victim = retained_.begin();
    retained_.erase(victim);
  }
  retained_.push_back(std::move(trace));
}

MetricsSnapshot ContinuousProfiler::Metrics() const {
  MetricsSnapshot snapshot = registry_.Snapshot();
  snapshot.values["profile.queries"] = queries_;
  snapshot.values["profile.sampled"] = sampled_;
  snapshot.values["profile.traces_retained"] = retained_.size();
  return snapshot;
}

}  // namespace lcdb
