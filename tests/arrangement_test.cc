#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "arrangement/arrangement.h"
#include "arrangement/incidence_graph.h"
#include "constraint/parser.h"
#include "engine/kernel.h"
#include "linalg/gauss.h"

namespace lcdb {
namespace {

const std::vector<std::string> kXY = {"x", "y"};

Vec V(std::initializer_list<int64_t> values) {
  Vec out;
  for (int64_t v : values) out.emplace_back(v);
  return out;
}

Hyperplane H(const std::string& text,
             const std::vector<std::string>& vars = kXY) {
  return Hyperplane::FromAtom(ParseAtom(text, vars).value());
}

TEST(ArrangementTest, SingleLineSplitsPlane) {
  Arrangement arr = Arrangement::Build({H("x = 0")}, 2);
  EXPECT_EQ(arr.num_faces(), 3u);
  auto counts = arr.FaceCountsByDimension();
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 2u);
}

TEST(ArrangementTest, TwoCrossingLines) {
  Arrangement arr = Arrangement::Build({H("x = 0"), H("y = 0")}, 2);
  EXPECT_EQ(arr.num_faces(), 9u);
  auto counts = arr.FaceCountsByDimension();
  EXPECT_EQ(counts[0], 1u);  // origin
  EXPECT_EQ(counts[1], 4u);  // four half-axes
  EXPECT_EQ(counts[2], 4u);  // four quadrants
}

TEST(ArrangementTest, PaperExampleThreeLinesGeneralPosition) {
  // Figure 3 of the paper: an arrangement with seven 2-dimensional faces
  // e1..e7, nine 1-dimensional faces l1..l9, three vertices p1..p3 — three
  // hyperplanes in general position.
  Arrangement arr =
      Arrangement::Build({H("x = 0"), H("y = 0"), H("x + y = 4")}, 2);
  auto counts = arr.FaceCountsByDimension();
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 9u);
  EXPECT_EQ(counts[2], 7u);
  EXPECT_EQ(arr.num_faces(), 19u);
}

TEST(ArrangementTest, ParallelLines) {
  Arrangement arr = Arrangement::Build({H("x = 0"), H("x = 1")}, 2);
  auto counts = arr.FaceCountsByDimension();
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 3u);
}

TEST(ArrangementTest, DuplicatePlanesCollapse) {
  Arrangement arr =
      Arrangement::Build({H("x = 0"), H("2x = 0"), H("x <= 0" /* same */)}, 2);
  EXPECT_EQ(arr.planes().size(), 1u);
  EXPECT_EQ(arr.num_faces(), 3u);
}

TEST(ArrangementTest, EmptyPlaneList) {
  Arrangement arr = Arrangement::Build({}, 2);
  EXPECT_EQ(arr.num_faces(), 1u);
  EXPECT_EQ(arr.face(0).dim, 2);
  EXPECT_FALSE(arr.face(0).bounded);
  EXPECT_EQ(arr.LocateFace(V({5, -3})), 0u);
  EXPECT_TRUE(arr.FaceFormula(0).IsTrue());
}

TEST(ArrangementTest, OneDimensional) {
  std::vector<std::string> x = {"x"};
  Arrangement arr = Arrangement::Build(
      {H("x = 0", x), H("x = 1", x), H("x = 5", x)}, 1);
  auto counts = arr.FaceCountsByDimension();
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 4u);
}

TEST(ArrangementTest, WitnessInFaceAndFormulaConsistency) {
  Arrangement arr =
      Arrangement::Build({H("x = 0"), H("y = 0"), H("x + y = 4")}, 2);
  for (size_t i = 0; i < arr.num_faces(); ++i) {
    Conjunction formula = arr.FaceFormula(i);
    EXPECT_TRUE(formula.Satisfies(arr.face(i).witness)) << i;
    EXPECT_EQ(arr.LocateFace(arr.face(i).witness), i);
  }
}

TEST(ArrangementTest, FacesPartitionThePlane) {
  Arrangement arr =
      Arrangement::Build({H("x = 0"), H("y = 0"), H("x + y = 4"),
                          H("x - y = 1")},
                         2);
  std::mt19937_64 rng(12345);
  std::uniform_int_distribution<int64_t> num(-12, 12);
  std::uniform_int_distribution<int64_t> den(1, 4);
  for (int iter = 0; iter < 200; ++iter) {
    Vec p = {Rational(num(rng), den(rng)), Rational(num(rng), den(rng))};
    size_t face = arr.LocateFace(p);
    size_t containing = 0;
    for (size_t i = 0; i < arr.num_faces(); ++i) {
      if (arr.FaceFormula(i).Satisfies(p)) {
        ++containing;
        EXPECT_EQ(i, face);
      }
    }
    EXPECT_EQ(containing, 1u) << VecToString(p);
  }
}

TEST(ArrangementTest, BoundedFaces) {
  // Triangle lines: exactly one bounded 2-face (the open triangle), three
  // bounded edges, three vertices.
  Arrangement arr =
      Arrangement::Build({H("x = 0"), H("y = 0"), H("x + y = 4")}, 2);
  size_t bounded2 = 0, bounded1 = 0, bounded0 = 0;
  for (const Face& f : arr.faces()) {
    if (!f.bounded) continue;
    if (f.dim == 2) ++bounded2;
    if (f.dim == 1) ++bounded1;
    if (f.dim == 0) ++bounded0;
  }
  EXPECT_EQ(bounded2, 1u);
  EXPECT_EQ(bounded1, 3u);
  EXPECT_EQ(bounded0, 3u);
}

TEST(ArrangementTest, AdjacencySymmetricAndDimensionSeparated) {
  Arrangement arr = Arrangement::Build({H("x = 0"), H("y = 0")}, 2);
  for (size_t f = 0; f < arr.num_faces(); ++f) {
    EXPECT_FALSE(arr.Adjacent(f, f));
    for (size_t g = 0; g < arr.num_faces(); ++g) {
      EXPECT_EQ(arr.Adjacent(f, g), arr.Adjacent(g, f));
      if (arr.Adjacent(f, g)) {
        // The paper: adjacent regions have strictly different dimensions.
        EXPECT_NE(arr.face(f).dim, arr.face(g).dim);
      }
      if (arr.Incident(f, g)) EXPECT_TRUE(arr.Adjacent(f, g));
    }
  }
  // Origin adjacent to every other face in the two-axes arrangement.
  size_t origin = arr.LocateFace(V({0, 0}));
  for (size_t g = 0; g < arr.num_faces(); ++g) {
    if (g != origin) EXPECT_TRUE(arr.Adjacent(origin, g));
  }
}

TEST(ArrangementTest, EulerCharacteristicOfLineArrangements) {
  // For any arrangement of lines in R^2: V - E + C == 1.
  std::vector<std::vector<Hyperplane>> cases = {
      {H("x = 0")},
      {H("x = 0"), H("y = 0")},
      {H("x = 0"), H("y = 0"), H("x + y = 4")},
      {H("x = 0"), H("y = 0"), H("x + y = 4"), H("x - y = 1")},
      {H("x = 0"), H("x = 1"), H("y = 0"), H("x + 2y = 3")},
  };
  for (auto& planes : cases) {
    Arrangement arr = Arrangement::Build(planes, 2);
    auto counts = arr.FaceCountsByDimension();
    int euler = static_cast<int>(counts[0]) - static_cast<int>(counts[1]) +
                static_cast<int>(counts[2]);
    EXPECT_EQ(euler, 1);
  }
}

TEST(ArrangementTest, GeneralPositionCountFormulas) {
  // n lines in general position: C(n,2) vertices, n^2 edges,
  // 1 + n + C(n,2) cells.
  std::vector<Hyperplane> planes = {H("x = 0"), H("y = 0"), H("x + y = 4"),
                                    H("x - y = 1"), H("x + 2y = -3")};
  const size_t n = planes.size();
  Arrangement arr = Arrangement::Build(planes, 2);
  auto counts = arr.FaceCountsByDimension();
  EXPECT_EQ(counts[0], n * (n - 1) / 2);
  EXPECT_EQ(counts[1], n * n);
  EXPECT_EQ(counts[2], 1 + n + n * (n - 1) / 2);
}

TEST(ArrangementTest, ThreeDimensionalAxes) {
  std::vector<std::string> xyz = {"x", "y", "z"};
  Arrangement arr = Arrangement::Build(
      {H("x = 0", xyz), H("y = 0", xyz), H("z = 0", xyz)}, 3);
  auto counts = arr.FaceCountsByDimension();
  EXPECT_EQ(counts[0], 1u);   // origin
  EXPECT_EQ(counts[1], 6u);   // half-axes
  EXPECT_EQ(counts[2], 12u);  // quarter-planes
  EXPECT_EQ(counts[3], 8u);   // octants
}

TEST(IncidenceGraphTest, CrossingLinesStructure) {
  Arrangement arr = Arrangement::Build({H("x = 0"), H("y = 0")}, 2);
  IncidenceGraph graph(arr);
  size_t origin = arr.LocateFace(V({0, 0}));
  // Vertex: four incident edges up, improper bottom down.
  EXPECT_EQ(graph.Up(origin).size(), 4u);
  ASSERT_EQ(graph.Down(origin).size(), 1u);
  EXPECT_EQ(graph.Down(origin)[0], IncidenceGraph::kBottom);
  // Every 1-face: up to two quadrants, down to the origin.
  for (size_t f = 0; f < arr.num_faces(); ++f) {
    if (arr.face(f).dim != 1) continue;
    EXPECT_EQ(graph.Up(f).size(), 2u);
    ASSERT_EQ(graph.Down(f).size(), 1u);
    EXPECT_EQ(graph.Down(f)[0], origin);
  }
  // Every quadrant: up to the improper top.
  for (size_t f = 0; f < arr.num_faces(); ++f) {
    if (arr.face(f).dim != 2) continue;
    ASSERT_EQ(graph.Up(f).size(), 1u);
    EXPECT_EQ(graph.Up(f)[0], IncidenceGraph::kTop);
    EXPECT_EQ(graph.Down(f).size(), 2u);
  }
  EXPECT_FALSE(graph.DescribeNeighbourhood(arr, origin).empty());
}

TEST(IncidenceGraphTest, PaperFigure4Neighbourhood) {
  // Around a vertex of the three-line arrangement: p2-like vertex has four
  // incident 1-faces (it lies on two of the three lines).
  Arrangement arr =
      Arrangement::Build({H("x = 0"), H("y = 0"), H("x + y = 4")}, 2);
  IncidenceGraph graph(arr);
  size_t p = arr.LocateFace(V({0, 4}));  // intersection of x=0 and x+y=4
  EXPECT_EQ(arr.face(p).dim, 0);
  EXPECT_EQ(graph.Up(p).size(), 4u);
  for (size_t e : graph.Up(p)) {
    EXPECT_EQ(arr.face(e).dim, 1);
    // And each such edge leads up to two 2-faces.
    size_t proper_up = 0;
    for (size_t c : graph.Up(e)) {
      if (c != IncidenceGraph::kTop) ++proper_up;
    }
    EXPECT_EQ(proper_up, 2u);
  }
}

TEST(IncidenceGraphTest, DiamondProperty) {
  // A classic face-lattice invariant: for faces F < H with dim(H) =
  // dim(F) + 2 and F in cl(H), there are exactly TWO faces G between them
  // (F < G < H). Holds for arrangements of hyperplanes.
  Arrangement arr =
      Arrangement::Build({H("x = 0"), H("y = 0"), H("x + y = 4")}, 2);
  for (size_t f = 0; f < arr.num_faces(); ++f) {
    for (size_t h = 0; h < arr.num_faces(); ++h) {
      if (arr.face(f).dim + 2 != arr.face(h).dim) continue;
      if (!InClosureOf(arr.face(f).sign, arr.face(h).sign)) continue;
      size_t between = 0;
      for (size_t g = 0; g < arr.num_faces(); ++g) {
        if (arr.face(g).dim != arr.face(f).dim + 1) continue;
        if (arr.Incident(f, g) && arr.Incident(g, h)) ++between;
      }
      EXPECT_EQ(between, 2u) << "F=" << f << " H=" << h;
    }
  }
}

// Independent oracle for Arrangement::Build. It shares no code with the
// build: sign vectors come from Hyperplane::SideOf, nonemptiness and
// boundedness from the kernel's exact LP, general position from Gaussian
// rank. The draws are deterministic per seed; the seed comes from
// LCDB_ORACLE_SEED (decimal) and is echoed, so a failure reproduces with
//   LCDB_ORACLE_SEED=<seed> ./arrangement_test
//       --gtest_filter='ArrangementOracleTest.*'

uint64_t OracleSeed() {
  const char* env = std::getenv("LCDB_ORACLE_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return 20261020;
}

/// The constraints "position sv w.r.t. planes", built atom by atom.
std::vector<LinearConstraint> SignConstraints(
    const std::vector<Hyperplane>& planes, const SignVector& sv) {
  std::vector<LinearConstraint> out;
  for (size_t i = 0; i < planes.size(); ++i) {
    const RelOp rel =
        sv[i] > 0 ? RelOp::kGt : (sv[i] < 0 ? RelOp::kLt : RelOp::kEq);
    out.push_back(planes[i].ToAtom(rel).ToLinearConstraint());
  }
  return out;
}

size_t Binomial(size_t n, size_t k) {
  if (k > n) return 0;
  size_t out = 1;
  for (size_t i = 1; i <= k; ++i) out = out * (n - k + i) / i;
  return out;
}

/// Every subset of at most d planes has independent normals and no d + 1
/// planes share a point.
bool InGeneralPosition(const std::vector<Hyperplane>& planes, size_t dim) {
  const size_t n = planes.size();
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    const size_t k = static_cast<size_t>(__builtin_popcount(mask));
    if (k > dim + 1) continue;
    Matrix normals, augmented;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i & 1u) == 0) continue;
      Vec row, aug;
      for (const BigInt& c : planes[i].coeffs()) row.emplace_back(c);
      aug = row;
      aug.emplace_back(planes[i].rhs());
      normals.AppendRow(row);
      augmented.AppendRow(aug);
    }
    if (k <= dim && Rank(normals) != k) return false;
    if (k == dim + 1 && Rank(augmented) != k) return false;
  }
  return true;
}

/// Faces of dimension k of n planes in general position in R^d:
/// sum_{i=0..k} C(d - i, k - i) C(n, d - i).
size_t GeneralPositionFaces(size_t n, size_t dim, size_t k) {
  size_t out = 0;
  for (size_t i = 0; i <= k; ++i) {
    out += Binomial(dim - i, k - i) * Binomial(n, dim - i);
  }
  return out;
}

Hyperplane PlaneThrough(const Vec& normal, const Vec& point) {
  return Hyperplane::FromAtom(LinearAtom(normal, RelOp::kEq, Dot(normal, point)));
}

/// One draw of n planes in R^dim. kind 0: independent random planes;
/// kind 1: with a parallel copy of the first plane; kind 2: every other
/// plane through one common point.
std::vector<Hyperplane> OracleDraw(std::mt19937_64& rng, size_t dim, size_t n,
                                   int kind) {
  std::uniform_int_distribution<int64_t> coeff(-3, 3);
  auto normal = [&] {
    Vec c(dim);
    while (VecIsZero(c)) {
      for (Rational& v : c) v = Rational(coeff(rng));
    }
    return c;
  };
  auto point = [&] {
    Vec p(dim);
    for (Rational& v : p) v = Rational(coeff(rng));
    return p;
  };
  const Vec common = point();
  std::vector<Hyperplane> planes;
  for (size_t i = 0; i < n; ++i) {
    if (kind == 1 && i == 1) {
      Vec shifted = point();
      planes.push_back(PlaneThrough(
          Vec(planes[0].coeffs().begin(), planes[0].coeffs().end()), shifted));
    } else if (kind == 2 && i % 2 == 0) {
      planes.push_back(PlaneThrough(normal(), common));
    } else {
      planes.push_back(PlaneThrough(normal(), point()));
    }
  }
  return planes;
}

/// Checks one draw against the oracle; returns whether it was in general
/// position (and so also checked against the closed-form face counts).
bool CheckDraw(std::vector<Hyperplane> planes, size_t dim,
               const std::string& label) {
  SCOPED_TRACE(label);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  std::sort(planes.begin(), planes.end());
  planes.erase(std::unique(planes.begin(), planes.end()), planes.end());
  const Arrangement arr = Arrangement::Build(planes, dim);
  EXPECT_EQ(arr.planes(), planes);

  std::set<SignVector> signs;
  std::vector<size_t> counts(dim + 1, 0);
  for (const Face& face : arr.faces()) {
    EXPECT_EQ(PositionVector(planes, face.witness), face.sign)
        << face.ToString();
    // Dimension: d minus the rank of the normals of the planes it lies on.
    Matrix zero_normals;
    for (size_t i = 0; i < planes.size(); ++i) {
      if (face.sign[i] != 0) continue;
      Vec row;
      for (const BigInt& c : planes[i].coeffs()) row.emplace_back(c);
      zero_normals.AppendRow(row);
    }
    const size_t rank = zero_normals.rows() == 0 ? 0 : Rank(zero_normals);
    EXPECT_EQ(face.dim, static_cast<int>(dim - rank)) << face.ToString();
    EXPECT_TRUE(signs.insert(face.sign).second) << face.ToString();
    const bool dim_in_range = face.dim >= 0 && face.dim <= static_cast<int>(dim);
    EXPECT_TRUE(dim_in_range) << face.ToString();
    if (dim_in_range) counts[static_cast<size_t>(face.dim)]++;
  }
  int euler = 0;
  for (size_t k = 0; k <= dim; ++k) {
    euler += (k % 2 == 0 ? 1 : -1) * static_cast<int>(counts[k]);
  }
  EXPECT_EQ(euler, dim % 2 == 0 ? 1 : -1);

  if (planes.empty()) return false;
  for (const Face& face : arr.faces()) {
    const std::vector<LinearConstraint> system =
        SignConstraints(planes, face.sign);
    EXPECT_EQ(face.bounded, CurrentKernel().IsBoundedSystem(dim, system))
        << face.ToString();
    for (size_t i = 0; i < planes.size(); ++i) {
      if (face.sign[i] == 0) continue;
      SignVector weaker = face.sign;
      weaker[i] = 0;
      const bool feasible =
          CurrentKernel()
              .CheckFeasibility(dim, SignConstraints(planes, weaker))
              .feasible;
      EXPECT_EQ(signs.count(weaker) == 1, feasible)
          << face.ToString() << " weakened at " << i;
    }
  }

  if (!InGeneralPosition(planes, dim)) return false;
  for (size_t k = 0; k <= dim; ++k) {
    EXPECT_EQ(counts[k], GeneralPositionFaces(planes.size(), dim, k))
        << "k=" << k;
  }
  return true;
}

TEST(ArrangementOracleTest, SeededDrawsMatchTheOracle) {
  const uint64_t seed = OracleSeed();
  std::printf("[oracle] seed=%" PRIu64
              " (set LCDB_ORACLE_SEED=%" PRIu64 " to reproduce)\n",
              seed, seed);
  std::fflush(stdout);
  std::mt19937_64 rng(seed);
  for (size_t dim = 1; dim <= 3; ++dim) {
    const size_t max_planes = dim == 3 ? 5 : 6;
    size_t general = 0;
    for (int kind = 0; kind < 3; ++kind) {
      for (size_t n = 1; n <= max_planes; ++n) {
        const std::string label = "d=" + std::to_string(dim) +
                                  " kind=" + std::to_string(kind) +
                                  " n=" + std::to_string(n);
        if (CheckDraw(OracleDraw(rng, dim, n, kind), dim, label)) ++general;
      }
    }
    // The closed forms are exercised, not skipped, in every dimension.
    EXPECT_GT(general, 0u) << "d=" << dim;
  }
}

class ArrangementPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ArrangementPropertyTest, RandomArrangementInvariants) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int64_t> coeff(-3, 3);
  for (int iter = 0; iter < 6; ++iter) {
    std::vector<Hyperplane> planes;
    for (int i = 0; i < 4; ++i) {
      Vec c = {Rational(coeff(rng)), Rational(coeff(rng))};
      if (VecIsZero(c)) c[0] = Rational(1);
      planes.push_back(
          Hyperplane::FromAtom(LinearAtom(c, RelOp::kEq, Rational(coeff(rng)))));
    }
    Arrangement arr = Arrangement::Build(planes, 2);
    // Euler characteristic of the plane.
    auto counts = arr.FaceCountsByDimension();
    EXPECT_EQ(static_cast<int>(counts[0]) - static_cast<int>(counts[1]) +
                  static_cast<int>(counts[2]),
              1);
    // Distinct faces have distinct sign vectors, and witnesses locate home.
    for (size_t f = 0; f < arr.num_faces(); ++f) {
      EXPECT_EQ(arr.LocateFace(arr.face(f).witness), f);
      EXPECT_EQ(PositionVector(arr.planes(), arr.face(f).witness),
                arr.face(f).sign);
    }
    // 0-dimensional faces are always bounded.
    for (const Face& face : arr.faces()) {
      if (face.dim == 0) EXPECT_TRUE(face.bounded);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrangementPropertyTest,
                         ::testing::Values(5u, 25u, 125u));

}  // namespace
}  // namespace lcdb
