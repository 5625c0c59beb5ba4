#ifndef LCDB_ARRANGEMENT_ARRANGEMENT_H_
#define LCDB_ARRANGEMENT_ARRANGEMENT_H_

#include <cstddef>
#include <vector>

#include "arrangement/face.h"
#include "constraint/dnf_formula.h"
#include "geometry/hyperplane.h"

namespace lcdb {

/// The arrangement A(S) of a set of hyperplanes in R^d (Section 3): the
/// partition of R^d into faces (position-vector classes). Faces carry
/// witness interior points, dimensions and boundedness flags.
///
/// Construction is incremental: hyperplanes are inserted one at a time and
/// every existing face is split into its nonempty below/on/above parts.
/// Each pending face carries the generators of its closure — points, rays
/// and a lineality basis, in exact integer homogeneous coordinates — so a
/// split is decided by the signs of the new plane on those generators, and
/// the parts' generators come from one double-description step (Motzkin et
/// al. 1953; Fukuda–Prodon 1996) that crosses only adjacent generators of
/// opposite sign. No LP is solved. A face is bounded iff its closure has
/// no rays and no lineality, and its witness is the average of the points
/// plus the sum of the rays, strictly inside the face. The face count is
/// O(n^d) and the total work polynomial — Theorem 3.1 made executable
/// (`splits` and `generators` instrument the cost). Faces are numbered in
/// lexicographic sign-vector order, with - < 0 < +.
class Arrangement {
 public:
  /// Builds the arrangement of `planes` (deduplicated) in R^dim.
  static Arrangement Build(std::vector<Hyperplane> planes, size_t dim);

  /// Convenience: the arrangement induced by a DNF formula, using the
  /// hyperplane set 𝔥(S) of all atoms (Section 3).
  static Arrangement FromFormula(const DnfFormula& formula);

  size_t dim() const { return dim_; }
  size_t num_faces() const { return faces_.size(); }
  const Face& face(size_t index) const { return faces_[index]; }
  const std::vector<Face>& faces() const { return faces_; }
  const std::vector<Hyperplane>& planes() const { return planes_; }

  /// Index of the unique face containing `point` (the faces partition R^d),
  /// by binary search over the sign-vector order.
  size_t LocateFace(const Vec& point) const;

  /// The conjunction of atoms defining face `index`, read off its position
  /// vector (proof of Theorem 4.3: "a conjunction of atoms defining the
  /// face can easily be obtained from 𝔥(S)").
  Conjunction FaceFormula(size_t index) const;

  /// Adjacency in the paper's sense (Definition 4.1): one face meets the
  /// closure of the other. Equivalent on arrangements to the sign-vector
  /// weakening order; self-adjacency is excluded.
  bool Adjacent(size_t f, size_t g) const;

  /// Incidence (Section 3): adjacency with dimensions differing by one.
  bool Incident(size_t f, size_t g) const;

  /// Number of faces of each dimension 0..d.
  std::vector<size_t> FaceCountsByDimension() const;

  /// Cost instrumentation for the Theorem 3.1 experiment, also reported on
  /// the `arrangement.build` span: (face, plane) steps in which the plane
  /// cut the face in three, and the generators (points, rays and lineality
  /// vectors) held by the final faces' closures.
  size_t splits() const { return splits_; }
  size_t generators() const { return generators_; }

 private:
  Arrangement(size_t dim, std::vector<Hyperplane> planes)
      : dim_(dim), planes_(std::move(planes)) {}

  void BuildFaces();
  Conjunction FaceFormulaFor(const Face& face) const;

  size_t dim_;
  std::vector<Hyperplane> planes_;
  std::vector<Face> faces_;
  size_t splits_ = 0;
  size_t generators_ = 0;
};

}  // namespace lcdb

#endif  // LCDB_ARRANGEMENT_ARRANGEMENT_H_
