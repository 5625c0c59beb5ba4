// Tests of the activity-managed lemma database (engine/lemma_db.h) and its
// integration with the constraint kernel: cross-query lemma survival, the
// ISSUE-mandated InvalidateDisjunct exactness contract, tier-then-activity
// eviction, Clear() and the kernel.lemma.* metrics family.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraint/canonical.h"
#include "constraint/conjunction.h"
#include "constraint/dnf_formula.h"
#include "constraint/parser.h"
#include "core/evaluator.h"
#include "db/database.h"
#include "db/region_extension.h"
#include "engine/kernel.h"
#include "engine/lemma_db.h"
#include "engine/metrics.h"

namespace lcdb {
namespace {

// Conjunction over one variable: lo <= x <= hi (as strict/loose mix is
// irrelevant here, loose on both ends).
Conjunction Interval(int lo, int hi) {
  std::vector<LinearAtom> atoms;
  atoms.emplace_back(std::vector<Rational>{Rational(1)}, RelOp::kGe,
                     Rational(lo));
  atoms.emplace_back(std::vector<Rational>{Rational(1)}, RelOp::kLe,
                     Rational(hi));
  return Conjunction(1, std::move(atoms));
}

CanonicalSystem Canon(const Conjunction& conj) {
  return CanonicalizeConjunction(conj);
}

FeasibilityResult Feasible() {
  FeasibilityResult r;
  r.feasible = true;
  r.witness = Vec(1);
  return r;
}

TEST(LemmaDatabaseTest, HitBumpsActivityAndStats) {
  LemmaDatabase db;
  const CanonicalSystem canon = Canon(Interval(0, 1));
  EXPECT_FALSE(db.LookupFeasibility(canon).has_value());
  db.InsertFeasibility(canon, Feasible(), /*pivots=*/1);
  std::optional<FeasibilityResult> hit = db.LookupFeasibility(canon);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->feasible);
  const LemmaDbStats s = db.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(db.size(), 1u);
}

TEST(LemmaDatabaseTest, InfeasibleVerdictsArePinnedCore) {
  LemmaDatabase db;
  const CanonicalSystem canon = Canon(Interval(3, 1));  // empty interval
  FeasibilityResult infeasible;
  infeasible.feasible = false;
  db.InsertFeasibility(canon, infeasible, /*pivots=*/0);
  const std::array<size_t, 3> tiers = db.TierCounts();
  EXPECT_EQ(tiers[0], 1u);  // kCore
  EXPECT_EQ(tiers[1], 0u);
  EXPECT_EQ(tiers[2], 0u);
}

TEST(LemmaDatabaseTest, FrequentPromotionAfterRepeatedUse) {
  LemmaDatabase::Options options;
  options.frequent_uses = 2;
  LemmaDatabase db(options);
  const CanonicalSystem canon = Canon(Interval(0, 1));
  db.InsertFeasibility(canon, Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.TierCounts()[2], 1u);  // transient on insert
  db.LookupFeasibility(canon);
  db.LookupFeasibility(canon);
  EXPECT_EQ(db.TierCounts()[1], 1u);  // promoted to frequent
  EXPECT_EQ(db.TierCounts()[2], 0u);
}

TEST(LemmaDatabaseTest, EvictionPrefersColdTransientsOverActiveAndCore) {
  LemmaDatabase::Options options;
  options.max_entries = 4;
  LemmaDatabase db(options);
  // One core lemma (expensive proof), one hot transient, two cold
  // transients. max_entries/8 is 0 at capacity 4, so each overflow evicts
  // exactly one entry — the worst-ranked one.
  const CanonicalSystem core = Canon(Interval(0, 1));
  db.InsertFeasibility(core, Feasible(), /*pivots=*/1000);  // core tier
  const CanonicalSystem hot = Canon(Interval(2, 3));
  db.InsertFeasibility(hot, Feasible(), /*pivots=*/1);
  for (int i = 0; i < 4; ++i) db.LookupFeasibility(hot);
  const CanonicalSystem cold1 = Canon(Interval(4, 5));
  const CanonicalSystem cold2 = Canon(Interval(6, 7));
  db.InsertFeasibility(cold1, Feasible(), /*pivots=*/1);
  db.InsertFeasibility(cold2, Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.size(), 4u);
  // The fifth insertion overflows; the victim must be a cold transient.
  const CanonicalSystem fresh = Canon(Interval(8, 9));
  db.InsertFeasibility(fresh, Feasible(), /*pivots=*/1);
  const LemmaDbStats s = db.stats();
  EXPECT_GT(s.evictions_transient, 0u);
  EXPECT_EQ(s.evictions_core, 0u);
  // The core lemma and the hot lemma both survived.
  EXPECT_TRUE(db.LookupFeasibility(core).has_value());
  EXPECT_TRUE(db.LookupFeasibility(hot).has_value());
}

TEST(LemmaDatabaseTest, DecayStepsCountAtInterval) {
  LemmaDatabase::Options options;
  options.decay_interval = 2;
  LemmaDatabase db(options);
  for (int i = 0; i < 6; ++i) {
    db.InsertFeasibility(Canon(Interval(i, i + 1)), Feasible(), /*pivots=*/1);
  }
  EXPECT_EQ(db.stats().decays, 3u);
}

TEST(LemmaDatabaseTest, ClearAndInvalidateBumpEpoch) {
  LemmaDatabase db;
  db.InsertFeasibility(Canon(Interval(0, 1)), Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.size(), 1u);
  db.Clear();
  EXPECT_EQ(db.size(), 0u);
  // Invalidating a disjunct no lemma mentions drops nothing.
  EXPECT_EQ(db.InvalidateDisjunct(0), 0u);
}

TEST(LemmaDatabaseTest, OccurrenceListsTrackBoundDisjuncts) {
  DnfFormula rep(1, {Interval(0, 10), Interval(20, 30)});
  LemmaDatabase db;
  db.BindDisjuncts(rep);
  // A lemma over disjunct 0's atoms mentions exactly disjunct 0.
  const CanonicalSystem canon = Canon(Interval(0, 10));
  db.InsertFeasibility(canon, Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.OccurrenceCount(0), 1u);
  EXPECT_EQ(db.OccurrenceCount(1), 0u);
  // Invalidating disjunct 1 drops nothing; disjunct 0 drops the lemma.
  EXPECT_EQ(db.InvalidateDisjunct(1), 0u);
  EXPECT_TRUE(db.LookupFeasibility(canon).has_value());
  EXPECT_EQ(db.InvalidateDisjunct(0), 1u);
  EXPECT_FALSE(db.LookupFeasibility(canon).has_value());
  EXPECT_EQ(db.stats().invalidations, 1u);
}

TEST(LemmaDatabaseTest, RebindClearsStaleOccurrenceLists) {
  DnfFormula rep_a(1, {Interval(0, 10)});
  DnfFormula rep_b(1, {Interval(20, 30), Interval(40, 50)});
  LemmaDatabase db;
  db.BindDisjuncts(rep_a);
  db.InsertFeasibility(Canon(Interval(0, 10)), Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.OccurrenceCount(0), 1u);
  db.BindDisjuncts(rep_b);
  EXPECT_EQ(db.stats().rebinds, 2u);
  // The lemma survives the rebind (pure truth) but is now unattributed.
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.OccurrenceCount(0), 0u);
  // Re-binding the same representation is a no-op.
  db.BindDisjuncts(rep_b);
  EXPECT_EQ(db.stats().rebinds, 2u);
}

TEST(LemmaDatabaseTest, ImplicationAndFeasibilityShareOnePool) {
  LemmaDatabase db;
  const CanonicalSystem canon = Canon(Interval(0, 10));
  std::string key = canon.encoding;
  key.push_back('!');
  const uint64_t hash = StableHash64(key);
  db.InsertImplication(hash, key, canon.atoms, /*consistent=*/false,
                       /*pivots=*/1);
  db.InsertFeasibility(canon, Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.size(), 2u);
  std::optional<bool> impl = db.LookupImplication(hash, key);
  ASSERT_TRUE(impl.has_value());
  EXPECT_FALSE(*impl);
  // A proved implication (consistent == false) is pinned core.
  EXPECT_GE(db.TierCounts()[0], 1u);
  // The feasibility keyspace never contains '!', so the pool stays disjoint:
  // a feasibility lookup under the implication's key shape misses.
  EXPECT_TRUE(db.LookupFeasibility(canon).has_value());
}

// --- Kernel integration ---

Conjunction ParseConj(const std::string& text) {
  DnfFormula f = ParseDnf(text, {"x"}).value();
  return f.disjuncts()[0];
}

TEST(KernelLemmaTest, LemmasSurviveAcrossScopedKernelScopes) {
  auto lemmas = std::make_shared<LemmaDatabase>();
  const Conjunction conj = ParseConj("x >= 0 & x <= 1");
  {
    ConstraintKernel kernel(ConstraintKernel::Options(), lemmas);
    ScopedKernel scope(kernel);
    CurrentKernel().IsFeasible(conj);
    EXPECT_EQ(kernel.stats().cache_misses, 1u);
  }
  // The first kernel is gone; a second one attached to the same store gets
  // a hit on its very first query.
  {
    ConstraintKernel kernel(ConstraintKernel::Options(), lemmas);
    ScopedKernel scope(kernel);
    CurrentKernel().IsFeasible(conj);
    const KernelStats s = kernel.stats();
    EXPECT_EQ(s.cache_hits, 1u);
    EXPECT_EQ(s.oracle_calls, 0u);
    EXPECT_EQ(s.lemma_hits, 1u);
  }
}

TEST(KernelLemmaTest, StatsReportLemmaDeltaSinceAttach) {
  auto lemmas = std::make_shared<LemmaDatabase>();
  const Conjunction warm = ParseConj("x >= 0 & x <= 1");
  {
    ConstraintKernel kernel(ConstraintKernel::Options(), lemmas);
    ScopedKernel scope(kernel);
    CurrentKernel().IsFeasible(warm);
  }
  ConstraintKernel kernel(ConstraintKernel::Options(), lemmas);
  // The pre-warm insertion happened before this kernel attached; its stats
  // start from zero but the occupancy gauge shows the shared store.
  KernelStats s = kernel.stats();
  EXPECT_EQ(s.lemma_insertions, 0u);
  EXPECT_EQ(s.lemma_occupancy, 1u);
  ScopedKernel scope(kernel);
  CurrentKernel().IsFeasible(warm);
  s = kernel.stats();
  EXPECT_EQ(s.lemma_hits, 1u);
  EXPECT_EQ(s.lemma_misses, 0u);
}

TEST(KernelLemmaTest, ClearCacheDropsLemmasAndMovesEpoch) {
  ConstraintKernel kernel;
  ASSERT_NE(kernel.lemma_db(), nullptr);
  ScopedKernel scope(kernel);
  const Conjunction conj = ParseConj("x >= 0 & x <= 1");
  CurrentKernel().IsFeasible(conj);
  EXPECT_EQ(kernel.lemma_db()->size(), 1u);
  kernel.ClearCache();
  EXPECT_EQ(kernel.lemma_db()->size(), 0u);
  // The cleared store re-learns on the next query.
  CurrentKernel().IsFeasible(conj);
  EXPECT_EQ(kernel.lemma_db()->size(), 1u);
}

TEST(KernelLemmaTest, SecondEvaluateHitsLemmasAndInvalidationIsExact) {
  // Two well-separated disjuncts; the query's constraint work touches both.
  DnfFormula rep(1, {Interval(0, 1), Interval(5, 6)});
  ConstraintDatabase db("S", rep, {"x"});
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ASSERT_NE(kernel.lemma_db(), nullptr);
  ScopedKernel scope(kernel);
  const std::string query = "S(x) & x >= 5";

  auto first = EvaluateQueryText(*ext, query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(kernel.lemma_db()->size(), 0u);

  // Second Evaluate on the same database: lemmas learned by the first run
  // answer from the store.
  kernel.ResetStats();
  auto second = EvaluateQueryText(*ext, query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(kernel.stats().lemma_hits, 0u);
  EXPECT_EQ(first->formula, second->formula);

  // InvalidateDisjunct drops exactly the lemmas whose occurrence lists
  // mention the changed disjunct — OccurrenceCount is the predicted drop —
  // and the re-evaluated answer is byte-identical.
  const size_t predicted = kernel.lemma_db()->OccurrenceCount(0);
  const size_t occupancy = kernel.lemma_db()->size();
  const size_t dropped = kernel.InvalidateDisjunct(0);
  EXPECT_EQ(dropped, predicted);
  EXPECT_EQ(kernel.lemma_db()->size(), occupancy - dropped);
  EXPECT_EQ(kernel.lemma_db()->OccurrenceCount(0), 0u);
  auto third = EvaluateQueryText(*ext, query);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(first->formula, third->formula);
}

TEST(KernelLemmaTest, MetricsRegistryExportsLemmaFamily) {
  ConstraintKernel kernel;
  const Conjunction conj = ParseConj("x >= 0 & x <= 1");
  ScopedKernel scope(kernel);
  CurrentKernel().IsFeasible(conj);
  CurrentKernel().IsFeasible(conj);
  MetricsRegistry registry;
  registry.RegisterKernelStats(kernel.stats());
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.values.at("kernel.lemma.hits"), 1u);
  EXPECT_EQ(snapshot.values.at("kernel.lemma.insertions"), 1u);
  EXPECT_EQ(snapshot.values.at("kernel.lemma.occupancy"), 1u);
  EXPECT_NE(snapshot.ToJson().find("\"kernel.lemma.hits\""),
            std::string::npos);
}

}  // namespace
}  // namespace lcdb
