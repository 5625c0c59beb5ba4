#ifndef LCDB_CORE_RESUME_H_
#define LCDB_CORE_RESUME_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace lcdb {

struct FormulaNode;
struct PlanNode;

/// Checkpoint/resume for fixpoint evaluation (ISSUE 8).
///
/// The paper's RegLFP/RegPFP semantics make long Kleene iterations the
/// dominant evaluation cost, and a tripped budget used to discard every
/// completed stage: QueryInterrupt unwinds past the fixpoint caches, which
/// only ever hold complete entries. The resume layer preserves that paid-for
/// work across the interrupt instead. While an Evaluate call runs, a
/// thread-local ResumeCollector (the same ambient-install idiom as
/// ScopedKernel / ScopedGovernor / ScopedTracer) observes the two fixpoint
/// engines — the legacy walk (core/fixpoint.cc) and the set-at-a-time engine
/// both plan backends share (plan/region_relations.cc), which converts its
/// bitset relations to tuple sets at this boundary. When an interrupt
/// unwinds, each engine deposits:
///
///  * every *completed* fixpoint set and closure matrix (harvested from the
///    engine's per-query cache during the unwind), and
///  * for the fixpoint loops the interrupt crossed, the *in-progress*
///    approximation: the last fully computed Kleene stage, its iteration
///    counter, and — for PFP — the cycle detector's per-stage hash history.
///
/// The evaluator packages the collected ResumeState behind an opaque token
/// carried on the returned Status; a follow-up Evaluate(query, token) with a
/// fresh budget re-installs the state and continues from the saved stage.
/// Correctness rests on Definition 5.1: free(body) = {M, X̄}, so a fixpoint
/// (or closure) set is a pure function of its operator — independent of the
/// outer environment — and a saved approximation is valid wherever the same
/// operator is re-encountered.
///
/// Sites are keyed by deterministic pre-order ordinals over the fixpoint /
/// closure operators of the executed artifact (the optimized plan for the
/// plan backends, the AST for the legacy walk). Compilation and optimization
/// are deterministic, so re-evaluating the same query under the same options
/// assigns identical keys; the tree executor and the VM execute the same
/// plan, so a state captured under one is resumable under the other.
struct FixpointResumePoint {
  /// The last fully computed Kleene stage (stages are never partial: an
  /// interrupt mid-stage discards only that stage's tuples, and the stage
  /// function is pure, so recomputing it is deterministic).
  std::set<std::vector<size_t>> approximation;
  /// Number of fully completed stage transitions; the resumed loop continues
  /// at this iteration index.
  size_t iteration = 0;
  /// PFP cycle-detector history: one stable hash per completed stage,
  /// excluding the hash of `approximation` itself (the resumed loop's first
  /// SeenBefore call re-records it).
  std::vector<uint64_t> pfp_hashes;
};

/// Snapshot of recoverable evaluation progress, keyed by site ordinal.
struct ResumeState {
  std::map<uint64_t, std::set<std::vector<size_t>>> completed_fixpoints;
  std::map<uint64_t, std::vector<std::vector<bool>>> completed_closures;
  std::map<uint64_t, FixpointResumePoint> in_progress;

  bool empty() const {
    return completed_fixpoints.empty() && completed_closures.empty() &&
           in_progress.empty();
  }
};

/// Per-Evaluate collector the fixpoint engines talk to. Owned by the
/// evaluator for the duration of one Evaluate call and published through
/// ScopedResumeCollector; a null CurrentResumeCollectorOrNull() (capture
/// disabled, or code running outside Evaluate) degrades every hook to a
/// no-op.
class ResumeCollector {
 public:
  using TupleSet = std::set<std::vector<size_t>>;
  using BoolMatrix = std::vector<std::vector<bool>>;

  ResumeCollector() = default;
  explicit ResumeCollector(ResumeState seed) : state_(std::move(seed)) {}

  /// Site registration: assigns the next pre-order ordinal (1-based; 0 is
  /// the "unregistered" sentinel) to a fixpoint/closure operator node.
  void RegisterSite(const void* node) {
    site_keys_.emplace(node, site_keys_.size() + 1);
  }
  /// The ordinal assigned to `node`, or 0 when it was never registered.
  uint64_t SiteKey(const void* node) const {
    auto it = site_keys_.find(node);
    return it == site_keys_.end() ? 0 : it->second;
  }

  // --- Reuse (consulted at fixpoint/closure entry) ---

  const TupleSet* CompletedFixpoint(uint64_t site) const {
    auto it = state_.completed_fixpoints.find(site);
    return it == state_.completed_fixpoints.end() ? nullptr : &it->second;
  }
  const BoolMatrix* CompletedClosure(uint64_t site) const {
    auto it = state_.completed_closures.find(site);
    return it == state_.completed_closures.end() ? nullptr : &it->second;
  }
  /// Moves the in-progress point for `site` into `*point` and erases it
  /// (each checkpoint is consumed exactly once; the loop that consumed it
  /// either completes — landing in completed_fixpoints on the next capture —
  /// or re-checkpoints a fresher approximation).
  bool TakeInProgress(uint64_t site, FixpointResumePoint* point) {
    auto it = state_.in_progress.find(site);
    if (it == state_.in_progress.end()) return false;
    *point = std::move(it->second);
    state_.in_progress.erase(it);
    return true;
  }

  // --- Capture (called during an interrupt unwind) ---

  void CaptureInProgress(uint64_t site, TupleSet approximation,
                         size_t iteration, std::vector<uint64_t> pfp_hashes) {
    FixpointResumePoint& point = state_.in_progress[site];
    point.approximation = std::move(approximation);
    point.iteration = iteration;
    point.pfp_hashes = std::move(pfp_hashes);
  }
  void CaptureCompletedFixpoint(uint64_t site, const TupleSet& set) {
    state_.completed_fixpoints[site] = set;
  }
  void CaptureCompletedClosure(uint64_t site, const BoolMatrix& closure) {
    state_.completed_closures[site] = closure;
  }

  /// Anything worth a resume token?
  bool has_progress() const { return !state_.empty(); }
  ResumeState TakeState() { return std::move(state_); }

 private:
  ResumeState state_;
  std::map<const void*, uint64_t> site_keys_;
};

/// The collector the current thread's fixpoint engines report to, or null.
ResumeCollector* CurrentResumeCollectorOrNull();

/// RAII install of `collector` as the thread's current resume collector.
class ScopedResumeCollector {
 public:
  explicit ScopedResumeCollector(ResumeCollector& collector);
  ~ScopedResumeCollector();

  ScopedResumeCollector(const ScopedResumeCollector&) = delete;
  ScopedResumeCollector& operator=(const ScopedResumeCollector&) = delete;

 private:
  ResumeCollector* previous_;
};

/// Pre-order registration of every fixpoint (kLfp/kIfp/kPfp) and closure
/// (kTc/kDtc) operator in an AST — the legacy walk's site numbering.
void RegisterResumeSites(const FormulaNode& root, ResumeCollector& collector);

/// Pre-order registration of every kFixpointMember / kClosureMember node in
/// a plan — shared by the tree executor and the VM (both run the same plan
/// nodes, so a checkpoint taken under one backend resumes under the other).
/// CSE-shared subtrees are visited once.
void RegisterResumeSites(const PlanNode& root, ResumeCollector& collector);

}  // namespace lcdb

#endif  // LCDB_CORE_RESUME_H_
