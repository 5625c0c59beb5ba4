#include "arrangement/arrangement.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "engine/governor.h"
#include "engine/trace.h"
#include "geometry/vertex_enumeration.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace lcdb {

namespace {

/// Homogeneous integer coordinates (t, x_1, ..., x_d) with gcd one: the
/// point x / t when t > 0, the direction x when t = 0.
using IntVec = std::vector<BigInt>;

/// The planes a generator lies on: a bitset over plane indices with one
/// more bit, for the plane at infinity t = 0, on which exactly the rays
/// lie.
using TightSet = std::vector<uint64_t>;

void SetBit(TightSet& set, size_t bit) {
  set[bit / 64] |= uint64_t{1} << (bit % 64);
}

/// A point or ray of a face's closure.
struct Generator {
  IntVec coords;
  TightSet tight;
};

/// Working face during incremental construction: its position vector so
/// far, its dimension and the generators of its closure. The points and
/// rays are irredundant modulo the lineality space, whose basis vectors
/// vanish on every plane inserted so far.
struct PendingFace {
  SignVector sign;
  int dim = 0;
  std::vector<Generator> generators;
  std::vector<IntVec> lineality;
};

/// a.x - b.t: the side of a point (t > 0) or the growth along a direction
/// (t = 0).
BigInt PlaneValue(const Hyperplane& h, const IntVec& g) {
  BigInt value = -(h.rhs() * g[0]);
  for (size_t c = 0; c < h.coeffs().size(); ++c) {
    if (!g[c + 1].IsZero()) value += h.coeffs()[c] * g[c + 1];
  }
  return value;
}

/// alpha * u + beta * v, divided by the gcd of its entries.
IntVec Combine(const BigInt& alpha, const IntVec& u, const BigInt& beta,
               const IntVec& v) {
  IntVec out(u.size());
  BigInt gcd;
  for (size_t c = 0; c < u.size(); ++c) {
    out[c] = alpha * u[c] + beta * v[c];
    gcd = BigInt::Gcd(gcd, out[c]);
  }
  if (!gcd.IsZero() && !gcd.IsOne()) {
    for (BigInt& entry : out) entry = entry / gcd;
  }
  return out;
}

void Negate(IntVec& v) {
  for (BigInt& entry : v) entry = -entry;
}

/// Combinatorial adjacency test (Fukuda–Prodon 1996, Proposition 7): two
/// generators of an irredundant list span an edge of the closure iff no
/// third generator lies on every plane that both lie on.
bool AdjacentGenerators(const std::vector<Generator>& all, size_t p,
                        size_t q) {
  const TightSet& a = all[p].tight;
  const TightSet& b = all[q].tight;
  for (size_t k = 0; k < all.size(); ++k) {
    if (k == p || k == q) continue;
    const TightSet& c = all[k].tight;
    bool covers = true;
    for (size_t w = 0; w < c.size() && covers; ++w) {
      covers = (a[w] & b[w] & ~c[w]) == 0;
    }
    if (covers) return false;
  }
  return true;
}

/// Splits `face` by `h`, the plane with index `index` (the plane at
/// infinity has index `infinity`), and appends its nonempty parts below, on
/// and above h to `out`. Returns whether h cut the face in three.
bool SplitFace(PendingFace face, const Hyperplane& h, size_t index,
               size_t infinity, std::vector<PendingFace>* out) {
  auto emit = [&](int8_t side, int dim, std::vector<Generator> generators,
                  std::vector<IntVec> lineality) {
    PendingFace part;
    part.sign = face.sign;
    part.sign.push_back(side);
    part.dim = dim;
    part.generators = std::move(generators);
    part.lineality = std::move(lineality);
    out->push_back(std::move(part));
  };

  // A lineality vector l0 with a.l0 != 0 carries the face to both sides of
  // h. Sliding every generator along l0 onto h gives the closure of the on
  // part; each strict part adds the ray +l0 or -l0 on its side. The other
  // lineality vectors move along l0 until a.l = 0.
  for (size_t k = 0; k < face.lineality.size(); ++k) {
    const BigInt f0 = PlaneValue(h, face.lineality[k]);
    if (f0.IsZero()) continue;
    IntVec l0 = std::move(face.lineality[k]);
    face.lineality.erase(face.lineality.begin() +
                         static_cast<std::ptrdiff_t>(k));
    const BigInt f0_abs = f0.Abs();
    for (Generator& g : face.generators) {
      const BigInt value = PlaneValue(h, g.coords);
      if (!value.IsZero()) {
        g.coords = Combine(f0_abs, g.coords, f0.Sign() > 0 ? -value : value,
                           l0);
      }
      SetBit(g.tight, index);
    }
    for (IntVec& l : face.lineality) {
      const BigInt value = PlaneValue(h, l);
      if (!value.IsZero()) l = Combine(f0, l, -value, l0);
    }
    // The ray lies on every earlier plane (l0 vanished on them) and on the
    // plane at infinity, but not on h.
    Generator ray;
    ray.tight.assign(infinity / 64 + 1, 0);
    for (size_t bit = 0; bit < index; ++bit) SetBit(ray.tight, bit);
    SetBit(ray.tight, infinity);
    ray.coords = std::move(l0);
    if (f0.Sign() < 0) Negate(ray.coords);
    std::vector<Generator> above = face.generators;
    above.push_back(ray);
    std::vector<Generator> below = face.generators;
    Negate(ray.coords);
    below.push_back(std::move(ray));
    emit(-1, face.dim, std::move(below), face.lineality);
    emit(1, face.dim, std::move(above), face.lineality);
    emit(0, face.dim - 1, std::move(face.generators),
         std::move(face.lineality));
    return true;
  }

  // Every lineality vector is parallel to h: the signs of h on the points
  // and rays decide the split.
  std::vector<size_t> positive, negative;
  std::vector<BigInt> values(face.generators.size());
  for (size_t k = 0; k < face.generators.size(); ++k) {
    values[k] = PlaneValue(h, face.generators[k].coords);
    const int sign = values[k].Sign();
    if (sign > 0) positive.push_back(k);
    if (sign < 0) negative.push_back(k);
  }
  if (positive.empty() || negative.empty()) {
    for (size_t k = 0; k < face.generators.size(); ++k) {
      if (values[k].IsZero()) SetBit(face.generators[k].tight, index);
    }
    const int8_t side = !positive.empty() ? 1 : (!negative.empty() ? -1 : 0);
    emit(side, face.dim, std::move(face.generators),
         std::move(face.lineality));
    return false;
  }

  // One double-description step: the closure of the on part is generated
  // by the generators on h and the crossings of h with the edges that join
  // a positive and a negative generator.
  std::vector<Generator> on;
  for (size_t k = 0; k < face.generators.size(); ++k) {
    if (!values[k].IsZero()) continue;
    SetBit(face.generators[k].tight, index);
    on.push_back(face.generators[k]);
  }
  for (size_t p : positive) {
    for (size_t n : negative) {
      if (!AdjacentGenerators(face.generators, p, n)) continue;
      const Generator& gp = face.generators[p];
      const Generator& gn = face.generators[n];
      Generator crossing;
      crossing.coords = Combine(values[p], gn.coords, -values[n], gp.coords);
      crossing.tight = gp.tight;
      for (size_t w = 0; w < crossing.tight.size(); ++w) {
        crossing.tight[w] &= gn.tight[w];
      }
      SetBit(crossing.tight, index);
      on.push_back(std::move(crossing));
    }
  }
  std::vector<Generator> below = on, above = on;
  for (size_t n : negative) below.push_back(face.generators[n]);
  for (size_t p : positive) above.push_back(face.generators[p]);
  emit(-1, face.dim, std::move(below), face.lineality);
  emit(1, face.dim, std::move(above), face.lineality);
  emit(0, face.dim - 1, std::move(on), std::move(face.lineality));
  return true;
}

/// The average of the points plus the sum of the rays: a strictly positive
/// combination of all generators, hence inside the relatively open face.
Vec WitnessOf(const PendingFace& face, size_t dim) {
  Vec point_sum(dim), ray_sum(dim);
  int64_t points = 0;
  for (const Generator& g : face.generators) {
    const bool is_point = !g.coords[0].IsZero();
    if (is_point) ++points;
    for (size_t c = 0; c < dim; ++c) {
      if (g.coords[c + 1].IsZero()) continue;
      if (is_point) {
        point_sum[c] += Rational(g.coords[c + 1], g.coords[0]);
      } else {
        ray_sum[c] += Rational(g.coords[c + 1]);
      }
    }
  }
  LCDB_CHECK_MSG(points > 0, "a nonempty face has a point generator");
  const Rational weight(1, points);
  Vec witness(dim);
  for (size_t c = 0; c < dim; ++c) {
    witness[c] = point_sum[c] * weight + ray_sum[c];
  }
  return witness;
}

}  // namespace

Arrangement Arrangement::Build(std::vector<Hyperplane> planes, size_t dim) {
  std::sort(planes.begin(), planes.end());
  planes.erase(std::unique(planes.begin(), planes.end()), planes.end());
  Arrangement arr(dim, std::move(planes));
  arr.BuildFaces();
  return arr;
}

Arrangement Arrangement::FromFormula(const DnfFormula& formula) {
  std::vector<Hyperplane> planes;
  for (const Conjunction& conj : formula.disjuncts()) {
    for (const Hyperplane& h : HyperplanesOf(conj)) planes.push_back(h);
  }
  return Build(std::move(planes), formula.num_vars());
}

void Arrangement::BuildFaces() {
  TraceSpan build_span("arrangement.build");
  build_span.Counter("planes", planes_.size());
  const size_t infinity = planes_.size();
  // Start with the single face R^d: the origin plus the lineality basis
  // e_1, ..., e_d.
  std::vector<PendingFace> faces(1);
  {
    PendingFace& all = faces[0];
    all.dim = static_cast<int>(dim_);
    Generator origin;
    origin.coords.assign(dim_ + 1, BigInt(0));
    origin.coords[0] = BigInt(1);
    origin.tight.assign(infinity / 64 + 1, 0);
    all.generators.push_back(std::move(origin));
    for (size_t c = 0; c < dim_; ++c) {
      IntVec unit(dim_ + 1, BigInt(0));
      unit[c + 1] = BigInt(1);
      all.lineality.push_back(std::move(unit));
    }
  }

  for (size_t i = 0; i < planes_.size(); ++i) {
    // One span per hyperplane insertion: the face count it left behind is
    // the quantity whose growth makes construction exponential.
    TraceSpan split_span("arrangement.split");
    std::vector<PendingFace> next;
    next.reserve(faces.size() + faces.size() / 2);
    for (PendingFace& face : faces) {
      // Arrangement construction is the other input-sensitive hot spot
      // besides QE (face count is worst-case exponential in dim), so each
      // split step is a cancellation + injection site. An unwind here
      // abandons only the local `faces`/`next` vectors; the caller simply
      // never receives a half-built arrangement.
      LCDB_FAILPOINT("arrangement.split");
      GovernorCheckpoint();
      if (SplitFace(std::move(face), planes_[i], i, infinity, &next)) {
        ++splits_;
      }
    }
    faces = std::move(next);
    split_span.Counter("faces", faces.size());
  }
  build_span.Counter("faces", faces.size());

  // Faces are numbered in lexicographic sign-vector order (- < 0 < +), so
  // region indices depend on the arrangement alone and LocateFace can
  // binary-search.
  std::sort(faces.begin(), faces.end(),
            [](const PendingFace& a, const PendingFace& b) {
              return a.sign < b.sign;
            });
  faces_.clear();
  faces_.reserve(faces.size());
  for (PendingFace& face : faces) {
    Face out;
    out.witness = WitnessOf(face, dim_);
    out.dim = face.dim;
    out.bounded = face.lineality.empty();
    for (const Generator& g : face.generators) {
      out.bounded = out.bounded && !g.coords[0].IsZero();
    }
    generators_ += face.generators.size() + face.lineality.size();
    out.sign = std::move(face.sign);
    faces_.push_back(std::move(out));
  }
  build_span.Counter("splits", splits_);
  build_span.Counter("generators", generators_);
}

Conjunction Arrangement::FaceFormulaFor(const Face& face) const {
  if (planes_.empty()) return Conjunction(dim_);  // the single face R^d
  return SignVectorConjunction(planes_, face.sign);
}

Conjunction Arrangement::FaceFormula(size_t index) const {
  return FaceFormulaFor(faces_[index]);
}

size_t Arrangement::LocateFace(const Vec& point) const {
  const SignVector sv = PositionVector(planes_, point);
  // Faces are sorted by sign vector.
  auto it = std::lower_bound(
      faces_.begin(), faces_.end(), sv,
      [](const Face& face, const SignVector& key) { return face.sign < key; });
  LCDB_CHECK_MSG(it != faces_.end() && it->sign == sv,
                 "faces partition R^d; point must be in some face");
  return static_cast<size_t>(it - faces_.begin());
}

bool Arrangement::Adjacent(size_t f, size_t g) const {
  if (f == g) return false;
  const SignVector& a = faces_[f].sign;
  const SignVector& b = faces_[g].sign;
  return InClosureOf(a, b) || InClosureOf(b, a);
}

bool Arrangement::Incident(size_t f, size_t g) const {
  const int df = faces_[f].dim;
  const int dg = faces_[g].dim;
  if (df + 1 != dg && dg + 1 != df) return false;
  return Adjacent(f, g);
}

std::vector<size_t> Arrangement::FaceCountsByDimension() const {
  std::vector<size_t> counts(dim_ + 1, 0);
  for (const Face& face : faces_) {
    counts[static_cast<size_t>(face.dim)]++;
  }
  return counts;
}

}  // namespace lcdb
