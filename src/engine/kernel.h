#ifndef LCDB_ENGINE_KERNEL_H_
#define LCDB_ENGINE_KERNEL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "constraint/canonical.h"
#include "constraint/conjunction.h"
#include "engine/kernel_stats.h"
#include "engine/lemma_db.h"
#include "lp/feasibility.h"

namespace lcdb {

/// Memoizing front-end for the LP feasibility oracle — the single choke
/// point every expensive decision in the system flows through (DNF pruning,
/// Fourier-Motzkin redundancy elimination, decomposition cell tests,
/// semantic implication/equivalence).
///
/// Systems are canonicalized (constraint/canonical.h) before lookup, so the
/// same conjunction reaching the oracle from different layers, in different
/// atom orders or scalings, is decided once and served from cache after.
/// Both question kinds are memoized:
///
///  * feasibility:  canonical system -> FeasibilityResult
///    (decision plus rational witness);
///  * implication:  (canonical system, canonical atom) ->
///    whether `system AND NOT(atom)` is satisfiable, the redundancy /
///    implication primitive.
///
/// The one backing store is an activity-managed lemma database
/// (engine/lemma_db.h): lemmas survive across queries, are scored by
/// activity with periodic decay, evicted by quality tier instead of
/// recency, and carry per-database-disjunct occurrence lists that make
/// InvalidateDisjunct() possible. The lemma DB's lifetime is decoupled
/// from the kernel — pass a shared_ptr to share one store across several
/// kernels (ScopedKernel scopes, server worker kernels); by default a
/// memoizing kernel creates its own. Verdicts are byte-identical with
/// memoization on or off — only hit rates differ.
///
/// All kernel state is guarded by a mutex (the lemma DB has its own) so a
/// later PR can fan region-quantifier expansion out across threads against
/// one shared kernel; the underlying LP solve runs outside any lock.
///
/// Options::memoize turns memoization off entirely (every query pays an
/// oracle call); canonicalization, trivial-answer short-circuits and
/// telemetry stay active, which is exactly what the cache ablation
/// measures.
class ConstraintKernel {
 public:
  struct Options {
    /// Off switch for all memoization (ablation).
    bool memoize = true;
    /// Occupancy bound of the lemma DB's unified pool.
    size_t max_entries = 1u << 18;
  };

  ConstraintKernel() : ConstraintKernel(Options()) {}
  explicit ConstraintKernel(Options options)
      : ConstraintKernel(options, nullptr) {}
  /// Attaches an externally owned lemma database (shared across kernels;
  /// ignored under memoize = false). When `lemmas` is null and memoization
  /// is on, the kernel creates its own store sized by Options::max_entries.
  ConstraintKernel(Options options, std::shared_ptr<LemmaDatabase> lemmas)
      : options_(options) {
    if (options_.memoize) {
      if (lemmas != nullptr) {
        lemma_db_ = std::move(lemmas);
      } else {
        LemmaDatabase::Options db_options;
        db_options.max_entries = options_.max_entries;
        lemma_db_ = std::make_shared<LemmaDatabase>(db_options);
      }
      lemma_baseline_ = lemma_db_->stats();
    }
  }

  ConstraintKernel(const ConstraintKernel&) = delete;
  ConstraintKernel& operator=(const ConstraintKernel&) = delete;

  // --- LP-level entry points (drop-in for lp/feasibility.h) ---

  /// Memoized CheckFeasibility: decision plus witness point.
  FeasibilityResult CheckFeasibility(
      size_t num_vars, const std::vector<LinearConstraint>& constraints);

  /// Memoized IsConsistentWithNegation: is `constraints AND NOT(c)`
  /// satisfiable? The per-branch systems of the negation are themselves
  /// routed through the feasibility cache.
  bool IsConsistentWithNegation(size_t num_vars,
                                const std::vector<LinearConstraint>& constraints,
                                const LinearConstraint& c);

  /// Boundedness passthrough: counted in the telemetry (one oracle call)
  /// but not cached — callers cache at a higher level.
  bool IsBoundedSystem(size_t num_vars,
                       const std::vector<LinearConstraint>& constraints);

  // --- Conjunction-level entry points (atoms already canonical) ---

  FeasibilityResult Feasibility(const Conjunction& conj);
  bool IsFeasible(const Conjunction& conj) {
    return Feasibility(conj).feasible;
  }

  /// Is `conj AND NOT(atom)` satisfiable?
  bool IsConsistentWithNegation(const Conjunction& conj,
                                const LinearAtom& atom);

  /// Exact semantic implication: every point of `conj` satisfies `atom`.
  bool ImpliesAtom(const Conjunction& conj, const LinearAtom& atom) {
    return !IsConsistentWithNegation(conj, atom);
  }

  const Options& options() const { return options_; }

  /// The backing lemma database, or null (memoize off). Its
  /// lifetime is independent of this kernel: hold the shared_ptr to keep
  /// lemmas alive across ScopedKernel scopes and kernel teardowns.
  const std::shared_ptr<LemmaDatabase>& lemma_db() const { return lemma_db_; }

  /// Forwards to LemmaDatabase::BindDisjuncts (no-op under memoize off): indexes the representation's disjuncts so subsequent lemmas
  /// carry occurrence lists. The evaluator calls this once per Evaluate
  /// with the extension's database representation.
  void BindLemmaOccurrences(const DnfFormula& representation);

  /// Forwards to LemmaDatabase::InvalidateDisjunct (returns 0 under
  /// memoize off): drops exactly the lemmas whose occurrence lists
  /// mention `disjunct`.
  size_t InvalidateDisjunct(DisjunctId disjunct);

  KernelStats stats() const;
  void ResetStats();
  /// Drops all cached entries (stats are kept). This clears the attached
  /// lemma store — which may be shared with other kernels.
  void ClearCache();

 private:
  FeasibilityResult CachedFeasibility(const CanonicalSystem& canon);
  bool DecideConsistentWithNegation(const CanonicalSystem& canon,
                                    const LinearAtom& atom);

  const Options options_;
  mutable std::mutex mu_;
  KernelStats stats_;
  /// Stats snapshot of the (possibly pre-warmed, possibly shared) lemma DB
  /// at attach/ResetStats time: stats() reports the delta since then.
  LemmaDbStats lemma_baseline_;
  std::shared_ptr<LemmaDatabase> lemma_db_;
};

/// The process-wide default kernel (memoizing, default lemma-DB bound).
ConstraintKernel& DefaultKernel();

/// The kernel all oracle consumers route through: the innermost
/// ScopedKernel override on the current thread, or the process default.
ConstraintKernel& CurrentKernel();

/// RAII override installing `kernel` as CurrentKernel() on this thread for
/// the scope's lifetime — how benchmarks and tests run a workload against a
/// fresh or cache-disabled kernel without plumbing a handle through every
/// layer.
class ScopedKernel {
 public:
  explicit ScopedKernel(ConstraintKernel& kernel);
  ~ScopedKernel();

  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  ConstraintKernel* previous_;
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_KERNEL_H_
