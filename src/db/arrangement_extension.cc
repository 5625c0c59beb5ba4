#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>

#include "arrangement/arrangement.h"
#include "db/region_extension.h"
#include "engine/trace.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {
namespace {

/// Region extension whose second sort is the set of faces of A(S)
/// (Definition 4.1). Every face is either contained in or disjoint from S
/// (Section 3), so S-membership is decided once per face via its witness.
class ArrangementExtension : public RegionExtension {
 public:
  explicit ArrangementExtension(const ConstraintDatabase& db)
      : db_(db),
        arrangement_(Arrangement::FromFormula(db.representation())) {
    const size_t n = arrangement_.num_faces();
    in_s_.resize(n);
    formulas_.resize(n);
    formula_once_ = std::make_unique<std::once_flag[]>(n);
    for (size_t i = 0; i < n; ++i) {
      in_s_[i] = db_.Contains(arrangement_.face(i).witness);
    }
    for (size_t i = 0; i < n; ++i) {
      if (arrangement_.face(i).dim == 0) zero_dim_.push_back(i);
    }
    std::sort(zero_dim_.begin(), zero_dim_.end(), [&](size_t a, size_t b) {
      return VecLexCompare(arrangement_.face(a).witness,
                           arrangement_.face(b).witness) < 0;
    });
  }

  const ConstraintDatabase& database() const override { return db_; }
  std::string kind() const override { return "arrangement"; }
  size_t num_regions() const override { return arrangement_.num_faces(); }

  int RegionDim(size_t r) const override { return arrangement_.face(r).dim; }

  bool RegionBounded(size_t r) const override {
    return arrangement_.face(r).bounded;
  }

  bool Adjacent(size_t r1, size_t r2) const override {
    return arrangement_.Adjacent(r1, r2);
  }

  bool RegionSubsetOfS(size_t r) const override { return in_s_[r]; }
  bool RegionIntersectsS(size_t r) const override { return in_s_[r]; }

  bool ContainsPoint(size_t r, const Vec& point) const override {
    return arrangement_.LocateFace(point) == r;
  }

  /// Synthesized on first use: region-level queries never read formulas,
  /// and one per face would be most of the extension's build time and
  /// memory (comb(4): 0.44 of 0.85 ms).
  const Conjunction& RegionFormula(size_t r) const override {
    std::call_once(formula_once_[r],
                   [&] { formulas_[r] = arrangement_.FaceFormula(r); });
    return *formulas_[r];
  }

  Vec RegionWitness(size_t r) const override {
    return arrangement_.face(r).witness;
  }

  const std::vector<size_t>& ZeroDimRegions() const override {
    return zero_dim_;
  }

  Vec ZeroDimPoint(size_t r) const override {
    LCDB_CHECK(arrangement_.face(r).dim == 0);
    return arrangement_.face(r).witness;
  }

  /// Accessor for callers that need the raw arrangement (benchmarks).
  const Arrangement& arrangement() const { return arrangement_; }

 private:
  ConstraintDatabase db_;
  Arrangement arrangement_;
  std::vector<bool> in_s_;
  mutable std::vector<std::optional<Conjunction>> formulas_;
  std::unique_ptr<std::once_flag[]> formula_once_;
  std::vector<size_t> zero_dim_;
};

}  // namespace

Result<std::unique_ptr<RegionExtension>> BuildArrangementExtension(
    const ConstraintDatabase& db) {
  TraceSpan build_span("extension.build");
  try {
    std::unique_ptr<RegionExtension> ext =
        std::make_unique<ArrangementExtension>(db);
    build_span.Counter("regions", ext->num_regions());
    return ext;
  } catch (const QueryInterrupt& interrupt) {
    // Arrangement construction asks the kernel nothing, but every
    // (face, plane) split step is a governor checkpoint and a failpoint
    // site, so a governed build can trip mid-way on its deadline or cancel
    // flag; the half-built extension is abandoned and the budget named in
    // the Status.
    return interrupt.status();
  }
}

std::unique_ptr<RegionExtension> MakeArrangementExtension(
    const ConstraintDatabase& db) {
  return std::make_unique<ArrangementExtension>(db);
}

}  // namespace lcdb
