#include "plan/region_relations.h"

#include <algorithm>
#include <string>

#include "constraint/canonical.h"
#include "constraint/simplify.h"
#include "core/pfp_cycle.h"
#include "core/resume.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/trace.h"
#include "plan/node_accounting.h"
#include "qe/fourier_motzkin.h"
#include "util/failpoint.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

// ---------------------------------------------------------------------------
// RegionRelation

RegionRelation::RegionRelation(size_t arity, size_t num_regions)
    : arity_(arity), n_(num_regions) {
  const size_t row_bits = arity == 0 ? 1 : num_regions;
  row_words_ = (row_bits + 63) / 64;
  last_mask_ = row_bits % 64 == 0 ? ~uint64_t{0}
                                  : (uint64_t{1} << (row_bits % 64)) - 1;
  rows_ = 1;
  for (size_t i = 1; i < arity; ++i) rows_ *= num_regions;
  words_.assign(rows_ * row_words_, 0);
}

bool RegionRelation::Test(const size_t* tuple) const {
  if (arity_ == 0) return (words_[0] & 1) != 0;
  size_t r = 0;
  for (size_t i = 0; i + 1 < arity_; ++i) r = r * n_ + tuple[i];
  const size_t last = tuple[arity_ - 1];
  return (row(r)[last / 64] >> (last % 64) & 1) != 0;
}

void RegionRelation::Set(const size_t* tuple) {
  if (arity_ == 0) {
    words_[0] = 1;
    return;
  }
  size_t r = 0;
  for (size_t i = 0; i + 1 < arity_; ++i) r = r * n_ + tuple[i];
  const size_t last = tuple[arity_ - 1];
  row(r)[last / 64] |= uint64_t{1} << (last % 64);
}

bool RegionRelation::Empty() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

size_t RegionRelation::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(__builtin_popcountll(w));
  return count;
}

void RegionRelation::Fill() {
  for (size_t r = 0; r < rows_; ++r) {
    uint64_t* words = row(r);
    for (size_t w = 0; w < row_words_; ++w) {
      words[w] = w + 1 == row_words_ ? last_mask_ : ~uint64_t{0};
    }
  }
}

void RegionRelation::Complement() {
  for (size_t r = 0; r < rows_; ++r) {
    uint64_t* words = row(r);
    for (size_t w = 0; w < row_words_; ++w) {
      words[w] = ~words[w] & (w + 1 == row_words_ ? last_mask_ : ~uint64_t{0});
    }
  }
}

void RegionRelation::AndWith(const RegionRelation& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void RegionRelation::OrWith(const RegionRelation& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void RegionRelation::AndNotWith(const RegionRelation& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
}

size_t RegionRelation::CountDifferences(const RegionRelation& other) const {
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count += static_cast<size_t>(__builtin_popcountll(words_[i] ^ other.words_[i]));
  }
  return count;
}

uint64_t RegionRelation::Hash() const {
  return StableHash64(std::string_view(
      reinterpret_cast<const char*>(words_.data()),
      words_.size() * sizeof(uint64_t)));
}

RegionRelation RegionRelation::FromTupleSet(const TupleSet& tuples,
                                            size_t arity,
                                            size_t num_regions) {
  RegionRelation out(arity, num_regions);
  for (const Tuple& t : tuples) out.Set(t.data());
  return out;
}

// ---------------------------------------------------------------------------
// Classification shared with the bytecode lowering.

namespace {

bool TooWide(size_t arity, size_t n) {
  size_t tuples = 1;
  for (size_t i = 0; i < arity; ++i) {
    if (n != 0 && tuples > kMaxRelationTuples / n) return true;
    tuples *= n;
  }
  return tuples > kMaxRelationTuples;
}

bool IsMember(const PlanNode& node) {
  return node.op == PlanOp::kFixpointMember ||
         node.op == PlanOp::kClosureMember;
}

void CollectLeaves(const PlanNode& node, size_t n,
                   std::set<const PlanNode*>* seen,
                   std::vector<const PlanNode*>* out) {
  if (!seen->insert(&node).second) return;
  if (IsOpaqueRegionLeaf(node, n)) {
    out->push_back(&node);
    return;
  }
  for (const PlanPtr& child : node.children) {
    CollectLeaves(*child, n, seen, out);  // member bodies included
  }
}

}  // namespace

bool DecideRegionAtom(const RegionExtension& ext, const PlanNode& atom,
                      size_t r0, size_t r1) {
  switch (atom.source_kind) {
    case NodeKind::kAdjacent:
      return ext.Adjacent(r0, r1);
    case NodeKind::kRegionEq:
      return r0 == r1;
    case NodeKind::kSubsetS:
      return ext.RegionSubsetOfS(r0);
    case NodeKind::kIntersectsS:
      return ext.RegionIntersectsS(r0);
    case NodeKind::kDimAtom:
      return ext.RegionDim(r0) == atom.dim_value;
    case NodeKind::kBoundedAtom:
      return ext.RegionBounded(r0);
    default:
      LCDB_CHECK_MSG(false, "not a region atom");
      return false;
  }
}

bool DecideRbit(const RegionExtension& ext, const PlanNode& node,
                const DnfFormula& body, size_t num_columns, size_t rn,
                size_t rd) {
  const size_t col = node.column;
  for (size_t c = 0; c < num_columns; ++c) {
    if (c != col && VariableOccurs(body, c)) {
      // Cannot happen for type-checked queries.
      LCDB_CHECK_MSG(false, "rBIT body depends on another element variable");
    }
  }
  // Singleton test: nonempty, and implied to equal its witness value.
  Vec witness = body.FindWitness();
  if (witness.empty()) return false;  // empty set: no unique rational
  const Rational a = witness[col];
  Vec point_coeffs(num_columns);
  point_coeffs[col] = Rational(1);
  DnfFormula exactly_a =
      DnfFormula::FromAtom(LinearAtom(point_coeffs, RelOp::kEq, a));
  if (!Implies(body, exactly_a)) return false;  // more than one value

  if (a.IsZero()) {
    return rn == rd && ext.RegionDim(rn) > 0;
  }
  if (ext.RegionDim(rn) != 0 || ext.RegionDim(rd) != 0) return false;
  const size_t i = ext.ZeroDimRank(rn);
  const size_t j = ext.ZeroDimRank(rd);
  return a.num().Bit(i) && a.den().Bit(j);
}

bool IsOpaqueRegionLeaf(const PlanNode& node, size_t num_regions) {
  if (node.op == PlanOp::kNonEmpty || node.op == PlanOp::kRbitMember) {
    return true;
  }
  if (TooWide(node.free_region.size(), num_regions)) return true;
  if (IsMember(node)) return false;  // the child is a body, not an operand
  for (const PlanPtr& child : node.children) {
    if (TooWide(child->free_region.size(), num_regions)) return true;
  }
  return false;
}

void CollectOpaqueRegionLeaves(const PlanNode& body, size_t num_regions,
                               std::vector<const PlanNode*>* out) {
  std::set<const PlanNode*> seen;
  CollectLeaves(body, num_regions, &seen, out);
}

// ---------------------------------------------------------------------------
// RegionRelationEngine

/// Evaluation state of one body pass: the region slots in scope in binding
/// order (bound tuple first, then enclosing quantifiers outermost first —
/// so a quantifier's variable is always the last coordinate of its child's
/// relation), plus the set binding for fixpoint bodies.
struct RegionRelationEngine::BodyFrame {
  std::vector<uint32_t> scope;
  const uint32_t* set_var = nullptr;
  const RegionRelation* stage = nullptr;
  size_t stage_version = 0;
  /// Semi-naive pass: occurrence `delta_occurrence` of the set variable (in
  /// tree pre-order) reads `delta` instead of `stage`.
  const RegionRelation* delta = nullptr;
  size_t delta_occurrence = 0;
  size_t occurrence = 0;
};

namespace {

/// Walks the rows of a relation over `big` and reports, per row, where it
/// lands in a relation over `small` ⊆ big (both ascending scope positions):
/// fn(big_row, small_row, small_bit), where small_bit < 0 means the rows
/// align (big's last coordinate is small's last) and otherwise names the
/// bit of small_row that the whole big row maps to.
template <typename Fn>
void WalkRows(const std::vector<uint32_t>& big,
              const std::vector<uint32_t>& small, size_t n, Fn&& fn) {
  const size_t k = big.size();
  const size_t s = small.size();
  if (k == 0) {
    fn(size_t{0}, size_t{0}, ptrdiff_t{0});
    return;
  }
  const bool aligned = s > 0 && small.back() == big.back();
  // Per prefix coordinate of `big`: its stride in small's row index, or
  // whether it is small's bit coordinate.
  std::vector<size_t> stride(k - 1, 0);
  ptrdiff_t bit_dim = -1;
  for (size_t j = 0; j + 1 < k; ++j) {
    auto it = std::find(small.begin(), small.end(), big[j]);
    if (it == small.end()) continue;
    const size_t pos = static_cast<size_t>(it - small.begin());
    if (pos + 1 == s) {
      bit_dim = static_cast<ptrdiff_t>(j);
      continue;
    }
    size_t st = 1;
    for (size_t i = pos + 1; i + 1 < s; ++i) st *= n;
    stride[j] = st;
  }
  size_t rows = 1;
  for (size_t j = 0; j + 1 < k; ++j) rows *= n;
  std::vector<size_t> digit(k - 1, 0);
  size_t small_row = 0;
  for (size_t r = 0; r < rows; ++r) {
    ptrdiff_t bit = 0;
    if (aligned) {
      bit = -1;
    } else if (bit_dim >= 0) {
      bit = static_cast<ptrdiff_t>(digit[static_cast<size_t>(bit_dim)]);
    }
    fn(r, small_row, bit);
    for (size_t j = k - 1; j-- > 0;) {  // odometer, last prefix fastest
      small_row += stride[j];
      if (++digit[j] < n) break;
      small_row -= stride[j] * n;
      digit[j] = 0;
    }
  }
}

bool RowAny(const uint64_t* words, size_t count) {
  for (size_t w = 0; w < count; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

bool RowAll(const uint64_t* words, size_t count, uint64_t last_mask) {
  for (size_t w = 0; w < count; ++w) {
    const uint64_t full = w + 1 == count ? last_mask : ~uint64_t{0};
    if (words[w] != full) return false;
  }
  return true;
}

void SetBit(uint64_t* row, size_t bit) { row[bit / 64] |= uint64_t{1} << (bit % 64); }
void ClearBit(uint64_t* row, size_t bit) {
  row[bit / 64] &= ~(uint64_t{1} << (bit % 64));
}
bool GetBit(const uint64_t* row, size_t bit) {
  return (row[bit / 64] >> (bit % 64) & 1) != 0;
}

/// Decodes a row index and bit back into a tuple of `arity` coordinates.
void DecodeTuple(size_t row, size_t bit, size_t arity, size_t n,
                 std::vector<size_t>* tuple) {
  tuple->assign(arity, 0);
  if (arity == 0) return;
  (*tuple)[arity - 1] = bit;
  for (size_t i = arity - 1; i-- > 0;) {
    (*tuple)[i] = row % n;
    row /= n;
  }
}

/// Calls fn(row, bit) for every member of `rel`.
template <typename Fn>
void ForEachBit(const RegionRelation& rel, Fn&& fn) {
  for (size_t r = 0; r < rel.rows(); ++r) {
    const uint64_t* words = rel.row(r);
    for (size_t w = 0; w < rel.row_words(); ++w) {
      uint64_t bits = words[w];
      while (bits != 0) {
        const size_t b = static_cast<size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        fn(r, w * 64 + b);
      }
    }
  }
}

}  // namespace

RegionRelation::TupleSet RegionRelation::ToTupleSet() const {
  TupleSet out;
  Tuple tuple;
  ForEachBit(*this, [&](size_t row, size_t bit) {
    DecodeTuple(row, bit, arity_, n_, &tuple);
    out.insert(out.end(), tuple);  // members arrive in tuple order
  });
  return out;
}

RegionRelationEngine::RegionRelationEngine(const RegionExtension& ext,
                                           const Evaluator::Options& options,
                                           Evaluator::Stats* stats,
                                           PlanProfile* profile,
                                           SlotEnv* env,
                                           RegionLeafEvaluator* leaves)
    : ext_(ext), options_(options), stats_(stats), profile_(profile),
      env_(env), leaves_(leaves), n_(ext.num_regions()) {}

void RegionRelationEngine::HarvestResumeState() const {
  ResumeCollector* resume = CurrentResumeCollectorOrNull();
  if (resume == nullptr) return;
  for (const auto& [node, rel] : fixpoints_) {
    if (uint64_t site = resume->SiteKey(node)) {
      resume->CaptureCompletedFixpoint(site, rel.ToTupleSet());
    }
  }
  for (const auto& [node, rel] : closures_) {
    if (uint64_t site = resume->SiteKey(node)) {
      // Resume tokens keep closures as [from][to] bit matrices over tuple
      // indices; the relation's (from, to) tuple order is that layout.
      const size_t m = rel.arity() / 2;
      size_t total = 1;
      for (size_t i = 0; i < m; ++i) total *= n_;
      std::vector<std::vector<bool>> matrix(total,
                                            std::vector<bool>(total, false));
      std::vector<size_t> t;
      ForEachBit(rel, [&](size_t row, size_t bit) {
        DecodeTuple(row, bit, rel.arity(), n_, &t);
        size_t from = 0, to = 0;
        for (size_t i = 0; i < m; ++i) {
          from = from * n_ + t[i];
          to = to * n_ + t[m + i];
        }
        matrix[from][to] = true;
      });
      resume->CaptureCompletedClosure(site, matrix);
    }
  }
}

void RegionRelationEngine::CheckTupleSpace(size_t arity, const char* what,
                                           const char* op) const {
  size_t space = 1;
  for (size_t i = 0; i < arity; ++i) {
    if (space > options_.max_tuple_space / std::max<size_t>(n_, 1)) {
      throw QueryInterrupt(Status::ResourceExhausted(
          std::string(what) + " tuple space exceeds max_tuple_space (" +
          std::to_string(options_.max_tuple_space) + ")"));
    }
    space *= n_;
  }
  GovernorCheckTupleSpace(space, op);
}

RegionRelationEngine::Schema RegionRelationEngine::SchemaOf(
    const PlanNode& node, const BodyFrame& frame) const {
  Schema schema;
  schema.reserve(node.free_region.size());
  for (uint32_t var : node.free_region) {
    auto it = std::find(frame.scope.begin(), frame.scope.end(), var);
    LCDB_CHECK_MSG(it != frame.scope.end(),
                   "fixpoint body variable is not in scope");
    schema.push_back(static_cast<uint32_t>(it - frame.scope.begin()));
  }
  std::sort(schema.begin(), schema.end());
  return schema;
}

std::vector<uint32_t> RegionRelationEngine::Coordinates(
    const std::vector<uint32_t>& vars, const Schema& schema,
    const BodyFrame& frame) const {
  std::vector<uint32_t> coord;
  coord.reserve(vars.size());
  for (uint32_t var : vars) {
    const auto pos = static_cast<uint32_t>(
        std::find(frame.scope.begin(), frame.scope.end(), var) -
        frame.scope.begin());
    coord.push_back(static_cast<uint32_t>(
        std::find(schema.begin(), schema.end(), pos) - schema.begin()));
  }
  return coord;
}

size_t RegionRelationEngine::Occurrences(const PlanNode& node,
                                         uint32_t set_var) {
  if (std::find(node.free_sets.begin(), node.free_sets.end(), set_var) ==
      node.free_sets.end()) {
    return 0;
  }
  if (node.op == PlanOp::kSetMember) return node.set_var == set_var ? 1 : 0;
  auto it = occurrences_.find(&node);
  if (it != occurrences_.end()) return it->second;
  size_t count = 0;
  for (const PlanPtr& child : node.children) {
    count += Occurrences(*child, set_var);
  }
  occurrences_.emplace(&node, count);
  return count;
}

namespace {

/// Semi-naive evaluation is sound for bodies whose set variable occurs only
/// under ∧, ∨ and ∃: such a body distributes over union in every
/// occurrence, so a tuple new at stage i+1 has a derivation that reads a
/// stage-i delta tuple at some occurrence.
bool SemiNaiveEligible(const PlanNode& node, uint32_t set_var, size_t n) {
  if (std::find(node.free_sets.begin(), node.free_sets.end(), set_var) ==
      node.free_sets.end()) {
    return true;
  }
  if (IsOpaqueRegionLeaf(node, n)) return false;
  switch (node.op) {
    case PlanOp::kSetMember:
      return true;
    case PlanOp::kAndBool:
    case PlanOp::kOrBool:
    case PlanOp::kAnyRegion:
      for (const PlanPtr& child : node.children) {
        if (!SemiNaiveEligible(*child, set_var, n)) return false;
      }
      return true;
    default:
      return false;
  }
}

}  // namespace

RegionRelation RegionRelationEngine::Broadcast(const RegionRelation& src,
                                               const Schema& from,
                                               const Schema& to) {
  if (from == to) return src;
  RegionRelation out(to.size(), n_);
  const size_t width = out.row_words();
  WalkRows(to, from, n_, [&](size_t big_row, size_t small_row, ptrdiff_t bit) {
    uint64_t* dst = out.row(big_row);
    if (bit < 0) {
      std::copy(src.row(small_row), src.row(small_row) + width, dst);
    } else if (GetBit(src.row(small_row), static_cast<size_t>(bit))) {
      for (size_t w = 0; w < width; ++w) {
        dst[w] = w + 1 == width ? out.last_mask() : ~uint64_t{0};
      }
    }
  });
  stats_->relation_word_ops += out.num_words();
  return out;
}

RegionRelation RegionRelationEngine::Project(const RegionRelation& src,
                                             const Schema& from,
                                             const Schema& to, bool forall) {
  if (from == to) return src;
  RegionRelation out(to.size(), n_);
  if (forall) out.Fill();
  const size_t width = src.row_words();
  WalkRows(from, to, n_, [&](size_t big_row, size_t small_row, ptrdiff_t bit) {
    const uint64_t* row = src.row(big_row);
    uint64_t* dst = out.row(small_row);
    if (bit < 0) {
      for (size_t w = 0; w < width; ++w) {
        if (forall) {
          dst[w] &= row[w];
        } else {
          dst[w] |= row[w];
        }
      }
    } else if (forall) {
      if (!RowAll(row, width, src.last_mask())) {
        ClearBit(dst, static_cast<size_t>(bit));
      }
    } else if (RowAny(row, width)) {
      SetBit(dst, static_cast<size_t>(bit));
    }
  });
  stats_->relation_word_ops += src.num_words();
  return out;
}

RegionRelation RegionRelationEngine::EvalBody(const PlanNode& body,
                                              const RegionRelation& ctx,
                                              BodyFrame& frame) {
  Schema full(frame.scope.size());
  for (size_t i = 0; i < full.size(); ++i) full[i] = static_cast<uint32_t>(i);
  const Schema schema = SchemaOf(body, frame);
  RegionRelation result =
      Eval(body, schema, Project(ctx, full, schema, /*forall=*/false), frame);
  return Broadcast(result, schema, full);
}

RegionRelation RegionRelationEngine::Eval(const PlanNode& node,
                                          const Schema& schema,
                                          const RegionRelation& ctx,
                                          BodyFrame& frame) {
  if (ctx.Empty()) {
    // No tuple's value matters: skip the subtree, keeping the semi-naive
    // occurrence numbering in step with a full traversal.
    if (frame.set_var != nullptr) {
      frame.occurrence += Occurrences(node, *frame.set_var);
    }
    return RegionRelation(schema.size(), n_);
  }
  GovernorCheckpoint();
  if (profile_ == nullptr) return EvalNode(node, schema, ctx, frame);
  // EXPLAIN ANALYZE: one call per set-at-a-time evaluation; rows is the
  // size of the relation over the context.
  const NodeProfileBracket bracket;
  RegionRelation result = EvalNode(node, schema, ctx, frame);
  PlanNodeProfile& p = (*profile_)[&node];
  ++p.calls;
  bracket.Record(p);
  RegionRelation live = result;
  live.AndWith(ctx);
  p.rows = live.Count();
  return result;
}

RegionRelation RegionRelationEngine::EvalNode(const PlanNode& node,
                                              const Schema& schema,
                                              const RegionRelation& ctx,
                                              BodyFrame& frame) {
  if (IsOpaqueRegionLeaf(node, n_)) {
    return EvalOpaque(node, schema, ctx, frame);
  }
  switch (node.op) {
    case PlanOp::kConstBool: {
      RegionRelation out(0, n_);
      if (node.const_bool) out.Fill();
      return out;
    }
    case PlanOp::kNotBool: {
      RegionRelation out = Eval(*node.children[0], schema, ctx, frame);
      out.Complement();
      stats_->relation_word_ops += out.num_words();
      return out;
    }
    case PlanOp::kAndBool:
    case PlanOp::kOrBool:
    case PlanOp::kImpliesBool:
    case PlanOp::kIffBool: {
      // Left to right in the optimizer's order: the right operand is
      // evaluated only where the left one leaves the result undecided
      // (true for ∧ and →, false for ∨), exactly the tuple path's
      // short-circuits lifted to sets.
      const PlanNode& lhs = *node.children[0];
      const PlanNode& rhs = *node.children[1];
      const Schema ls = SchemaOf(lhs, frame);
      RegionRelation a = Broadcast(
          Eval(lhs, ls, Project(ctx, schema, ls, false), frame), ls, schema);
      RegionRelation rest = ctx;
      if (node.op == PlanOp::kOrBool) {
        rest.AndNotWith(a);
      } else if (node.op != PlanOp::kIffBool) {
        rest.AndWith(a);
      }
      const Schema rs = SchemaOf(rhs, frame);
      RegionRelation b = Broadcast(
          Eval(rhs, rs, Project(rest, schema, rs, false), frame), rs, schema);
      stats_->relation_word_ops += 3 * a.num_words();
      switch (node.op) {
        case PlanOp::kAndBool:
          a.AndWith(b);
          return a;
        case PlanOp::kOrBool:
          a.OrWith(b);
          return a;
        case PlanOp::kImpliesBool:
          a.Complement();
          a.OrWith(b);
          return a;
        default: {  // iff: !(a ^ b)
          RegionRelation both = a;
          both.AndWith(b);
          a.Complement();
          b.Complement();
          a.AndWith(b);
          a.OrWith(both);
          return a;
        }
      }
    }
    case PlanOp::kAnyRegion:
    case PlanOp::kAllRegion: {
      ++stats_->region_expansions;
      const bool forall = node.op == PlanOp::kAllRegion;
      const PlanNode& child = *node.children[0];
      frame.scope.push_back(node.region_var);
      const Schema cs = SchemaOf(child, frame);
      RegionRelation joined;
      if (!forall && JoinProject(child, schema, cs, ctx, frame, &joined)) {
        frame.scope.pop_back();
        return joined;
      }
      RegionRelation body =
          Eval(child, cs, Broadcast(ctx, schema, cs), frame);
      frame.scope.pop_back();
      if (cs.size() == schema.size() && n_ > 0) {
        return body;  // the quantified variable does not occur
      }
      if (cs.size() == schema.size()) {  // empty region sort
        RegionRelation out(schema.size(), n_);
        if (forall) out.Fill();
        return out;
      }
      return Project(body, cs, schema, forall);
    }
    case PlanOp::kRegionAtom:
      return EvalAtom(node, schema, ctx, frame);
    case PlanOp::kSetMember: {
      LCDB_CHECK_MSG(frame.set_var != nullptr && node.set_var == *frame.set_var,
                     "set variable outside its fixpoint body");
      const size_t occurrence = frame.occurrence++;
      const RegionRelation* source =
          frame.delta != nullptr && occurrence == frame.delta_occurrence
              ? frame.delta
              : frame.stage;
      return Gather(*source, node.region_args, schema, frame);
    }
    case PlanOp::kFixpointMember:
      return Gather(Fixpoint(node), node.region_args, schema, frame);
    case PlanOp::kClosureMember: {
      std::vector<uint32_t> args = node.region_args;
      args.insert(args.end(), node.region_args2.begin(),
                  node.region_args2.end());
      return Gather(Closure(node), args, schema, frame);
    }
    default:
      LCDB_CHECK_MSG(false, "symbolic operator in a fixpoint body");
      return RegionRelation(schema.size(), n_);
  }
}

bool RegionRelationEngine::JoinProject(const PlanNode& conj,
                                       const Schema& schema, const Schema& cs,
                                       const RegionRelation& ctx,
                                       BodyFrame& frame, RegionRelation* out) {
  // ∃Z (A(P_a, Z) ∧ B(P_b, Z)) with P_a and P_b splitting the outer
  // variables: a boolean matrix product over rows of Z, which never
  // materializes the |P|+1-ary conjunction. It decides exactly what the
  // general path decides: A on the rows the context reaches, B on the
  // (P_b, Z) tuples that survive A.
  if (conj.op != PlanOp::kAndBool || cs.size() != schema.size() + 1 ||
      IsOpaqueRegionLeaf(conj, n_)) {
    return false;
  }
  const PlanNode& a = *conj.children[0];
  const PlanNode& b = *conj.children[1];
  const Schema sa = SchemaOf(a, frame);
  const Schema sb = SchemaOf(b, frame);
  const uint32_t z = cs.back();
  if (sa.empty() || sb.empty() || sa.back() != z || sb.back() != z ||
      sa.size() + sb.size() != schema.size() + 2) {
    return false;
  }
  // Row strides of each outer coordinate in A's and in B's row index.
  std::vector<size_t> stride_a(schema.size(), 0), stride_b(schema.size(), 0);
  for (size_t j = 0; j < schema.size(); ++j) {
    auto in_a = std::find(sa.begin(), sa.end() - 1, schema[j]);
    auto in_b = std::find(sb.begin(), sb.end() - 1, schema[j]);
    if ((in_a != sa.end() - 1) == (in_b != sb.end() - 1)) return false;
    const Schema& side = in_a != sa.end() - 1 ? sa : sb;
    const size_t pos = static_cast<size_t>(
        (in_a != sa.end() - 1 ? in_a : in_b) - side.begin());
    size_t st = 1;
    for (size_t i = pos + 1; i + 1 < side.size(); ++i) st *= n_;
    (in_a != sa.end() - 1 ? stride_a : stride_b)[j] = st;
  }
  if (profile_ != nullptr) ++(*profile_)[&conj].calls;
  // Calls fn(row_a, row_b, row, bit) for every context tuple: its row in A,
  // its row in B, and its place in the result. The last outer coordinate
  // is the context's bit; the others advance an odometer over its rows.
  const size_t k = schema.size();
  auto for_each_pair = [&](auto&& fn) {
    std::vector<size_t> digit(k > 0 ? k - 1 : 0, 0);
    size_t base_a = 0, base_b = 0;
    const size_t last_a = k > 0 ? stride_a[k - 1] : 0;
    const size_t last_b = k > 0 ? stride_b[k - 1] : 0;
    for (size_t row = 0; row < ctx.rows(); ++row) {
      const uint64_t* words = ctx.row(row);
      for (size_t w = 0; w < ctx.row_words(); ++w) {
        uint64_t bits = words[w];
        while (bits != 0) {
          const size_t bit = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          fn(base_a + bit * last_a, base_b + bit * last_b, row, bit);
        }
      }
      for (size_t j = digit.size(); j-- > 0;) {
        base_a += stride_a[j];
        base_b += stride_b[j];
        if (++digit[j] < n_) break;
        base_a -= stride_a[j] * n_;
        base_b -= stride_b[j] * n_;
        digit[j] = 0;
      }
    }
  };
  RegionRelation ctx_a(sa.size(), n_);
  const size_t width = ctx_a.row_words();
  for_each_pair([&](size_t ia, size_t, size_t, size_t) {
    uint64_t* row = ctx_a.row(ia);
    for (size_t w = 0; w < width; ++w) {
      row[w] = w + 1 == width ? ctx_a.last_mask() : ~uint64_t{0};
    }
  });
  const RegionRelation rel_a = Eval(a, sa, ctx_a, frame);
  // Rows of A with no member (most of them under a semi-naive delta) add
  // nothing to B's context or to the result.
  std::vector<bool> live_a(rel_a.rows());
  for (size_t r = 0; r < rel_a.rows(); ++r) {
    live_a[r] = RowAny(rel_a.row(r), width);
  }
  RegionRelation ctx_b(sb.size(), n_);
  size_t ops = 0;
  for_each_pair([&](size_t ia, size_t ib, size_t, size_t) {
    if (!live_a[ia]) return;
    const uint64_t* from = rel_a.row(ia);
    uint64_t* to = ctx_b.row(ib);
    for (size_t w = 0; w < width; ++w) to[w] |= from[w];
    ops += width;
  });
  const RegionRelation rel_b = Eval(b, sb, ctx_b, frame);
  *out = RegionRelation(schema.size(), n_);
  for_each_pair([&](size_t ia, size_t ib, size_t row, size_t bit) {
    if (!live_a[ia]) return;
    const uint64_t* ra = rel_a.row(ia);
    const uint64_t* rb = rel_b.row(ib);
    ops += width;
    for (size_t w = 0; w < width; ++w) {
      if ((ra[w] & rb[w]) != 0) {
        SetBit(out->row(row), bit);
        break;
      }
    }
  });
  stats_->relation_word_ops += ops;
  return true;
}

RegionRelation RegionRelationEngine::EvalAtom(const PlanNode& node,
                                              const Schema& schema,
                                              const RegionRelation& ctx,
                                              const BodyFrame& frame) {
  const std::vector<uint32_t> coord =
      Coordinates(node.region_args, schema, frame);
  if (node.source_kind == NodeKind::kRegionEq) {
    // No extension call: the diagonal, or everything for R = R.
    RegionRelation out(schema.size(), n_);
    if (coord[0] == coord[1]) {
      out.Fill();
    } else {
      for (size_t r = 0; r < n_; ++r) {
        const size_t t[2] = {r, r};
        out.Set(t);
      }
    }
    return out;
  }
  // Decide each context tuple at most once per query; later evaluations
  // reuse the decided bits.
  AtomCache& cache = atoms_[{&node, coord}];
  if (cache.known.arity() != schema.size() || cache.known.num_regions() != n_) {
    cache.known = RegionRelation(schema.size(), n_);
    cache.value = RegionRelation(schema.size(), n_);
  }
  RegionRelation pending = ctx;
  pending.AndNotWith(cache.known);
  std::vector<size_t> tuple;
  ForEachBit(pending, [&](size_t row, size_t bit) {
    DecodeTuple(row, bit, schema.size(), n_, &tuple);
    const size_t r0 = tuple[coord[0]];
    const size_t r1 = coord.size() > 1 ? tuple[coord[1]] : 0;
    cache.known.row(row)[bit / 64] |= uint64_t{1} << (bit % 64);
    if (DecideRegionAtom(ext_, node, r0, r1)) {
      cache.value.row(row)[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  });
  stats_->relation_word_ops += 2 * ctx.num_words();
  return cache.value;
}

RegionRelation RegionRelationEngine::EvalOpaque(const PlanNode& node,
                                                const Schema& schema,
                                                const RegionRelation& ctx,
                                                const BodyFrame& frame) {
  // The leaf's free slots ascend; the schema follows scope order.
  const std::vector<uint32_t> coord =
      Coordinates(node.free_region, schema, frame);
  const bool reads_set =
      frame.set_var != nullptr &&
      std::find(node.free_sets.begin(), node.free_sets.end(),
                *frame.set_var) != node.free_sets.end();
  RegionRelation out(schema.size(), n_);
  std::vector<size_t> tuple;
  ForEachBit(ctx, [&](size_t row, size_t bit) {
    DecodeTuple(row, bit, schema.size(), n_, &tuple);
    for (size_t i = 0; i < coord.size(); ++i) {
      env_->regions[node.free_region[i]] = tuple[coord[i]];
    }
    if (reads_set) {
      env_->sets[*frame.set_var] = SetBinding{frame.stage, frame.stage_version};
    }
    if (leaves_->EvalOpaqueLeaf(node)) {
      out.row(row)[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  });
  return out;
}

RegionRelation RegionRelationEngine::Gather(
    const RegionRelation& source, const std::vector<uint32_t>& args,
    const Schema& schema, const BodyFrame& frame) {
  const std::vector<uint32_t> coord = Coordinates(args, schema, frame);
  bool identity = args.size() == schema.size();
  for (size_t i = 0; i < coord.size(); ++i) identity &= coord[i] == i;
  stats_->relation_word_ops += source.num_words();
  if (identity) return source;  // arguments are the schema, in order
  RegionRelation out(schema.size(), n_);
  RegionRelation all(schema.size(), n_);
  all.Fill();
  std::vector<size_t> tuple;
  std::vector<size_t> at(args.size());
  ForEachBit(all, [&](size_t row, size_t bit) {
    DecodeTuple(row, bit, schema.size(), n_, &tuple);
    for (size_t i = 0; i < args.size(); ++i) at[i] = tuple[coord[i]];
    if (source.Test(at.data())) out.row(row)[bit / 64] |= uint64_t{1} << (bit % 64);
  });
  return out;
}

const RegionRelation& RegionRelationEngine::Fixpoint(const PlanNode& node) {
  auto cached = fixpoints_.find(&node);
  if (cached != fixpoints_.end()) return cached->second;
  const size_t k = node.bound_vars.size();

  // Resume fast path (core/resume.h): reuse a completed set from a prior
  // interrupted run instead of recomputing it.
  ResumeCollector* resume = CurrentResumeCollectorOrNull();
  const uint64_t site = resume != nullptr ? resume->SiteKey(&node) : 0;
  if (site != 0) {
    if (const auto* done = resume->CompletedFixpoint(site)) {
      ++stats_->resume_sets_restored;
      return fixpoints_
          .emplace(&node, RegionRelation::FromTupleSet(*done, k, n_))
          .first->second;
    }
  }

  TraceSpan span("fixpoint");
  ++stats_->fixpoints_computed;
  const uint64_t kernel_queries_before =
      CurrentKernel().stats().feasibility_queries;
  CheckTupleSpace(k, "fixed-point", "fixed-point");

  const PlanNode& body = *node.children[0];
  const bool is_pfp = node.source_kind == NodeKind::kPfp;
  const bool semi_naive = node.source_kind == NodeKind::kLfp &&
                          SemiNaiveEligible(body, node.set_var, n_);
  const size_t occurrences = semi_naive ? Occurrences(body, node.set_var) : 0;
  BodyFrame frame;
  frame.scope = node.bound_vars;
  frame.set_var = &node.set_var;

  // One stage. LFP/IFP keep the prior stage and evaluate the body only on
  // tuples not yet derived; with `delta` (semi-naive LFP) one pass per
  // occurrence of the set variable, that occurrence reading the last
  // stage's new tuples. PFP evaluates the body everywhere.
  auto stage = [&](const RegionRelation& cur, const RegionRelation* delta) {
    frame.stage = &cur;
    frame.stage_version = ++stage_versions_;
    frame.delta = nullptr;
    frame.occurrence = 0;
    if (is_pfp) {
      RegionRelation all(k, n_);
      all.Fill();
      return EvalBody(body, all, frame);
    }
    RegionRelation next = cur;
    RegionRelation fresh = cur;  // tuples still outside the stage
    fresh.Complement();
    const size_t passes = delta != nullptr ? occurrences : 1;
    for (size_t pass = 0; pass < passes && !fresh.Empty(); ++pass) {
      frame.delta = delta;
      frame.delta_occurrence = pass;
      frame.occurrence = 0;
      RegionRelation found = EvalBody(body, fresh, frame);
      found.AndWith(fresh);
      next.OrWith(found);
      fresh.AndNotWith(found);
      stats_->relation_word_ops += 3 * found.num_words();
    }
    return next;
  };

  auto account = [&] {
    stats_->fixpoint_feasibility_queries +=
        CurrentKernel().stats().feasibility_queries - kernel_queries_before;
  };

  RegionRelation current(k, n_);
  RegionRelation delta;
  bool have_delta = false;
  size_t iteration = 0;
  PfpCycleDetector<RegionRelation> cycle(RegionRelation(k, n_));
  if (site != 0) {
    // Continue an interrupted loop from its last completed stage (pure in
    // the environment by Definition 5.1). The checkpoint carries no delta,
    // so the first resumed stage runs naively.
    FixpointResumePoint point;
    if (resume->TakeInProgress(site, &point)) {
      current = RegionRelation::FromTupleSet(point.approximation, k, n_);
      iteration = point.iteration;
      cycle.SeedHashes(point.pfp_hashes);
      ++stats_->resume_fixpoints_resumed;
      stats_->resume_stages_skipped += point.iteration;
    }
  }
  PlanNodeProfile* profile = profile_ != nullptr ? &(*profile_)[&node] : nullptr;
  try {
    for (;; ++iteration) {
      LCDB_FAILPOINT("fixpoint.stage");
      GovernorOnFixpointIteration();
      if (is_pfp) {
        if (iteration > options_.max_pfp_iterations) {
          throw QueryInterrupt(Status::ResourceExhausted(
              "PFP exceeded max_pfp_iterations (" +
              std::to_string(options_.max_pfp_iterations) + ")"));
        }
        if (cycle.SeenBefore(current, iteration,
                             [&](const RegionRelation& s) {
                               return stage(s, nullptr);
                             })) {
          // Revisited a state without reaching a fixed point: diverges.
          account();
          return fixpoints_.emplace(&node, RegionRelation(k, n_))
              .first->second;
        }
      }
      ++stats_->fixpoint_iterations;
      RegionRelation next;
      size_t changed = 0;
      {
        TraceSpan stage_span("fixpoint.stage");
        next = stage(current, have_delta ? &delta : nullptr);
        changed = next.CountDifferences(current);
        stage_span.Counter("iteration", iteration);
        stage_span.Counter("tuples", next.Count());
        stage_span.Counter("delta", changed);
      }
      stats_->fixpoint_delta_tuples += changed;
      if (profile != nullptr) {
        ++profile->stages;
        profile->stage_deltas.push_back(changed);
      }
      if (changed == 0) break;
      if (semi_naive) {
        delta = next;
        delta.AndNotWith(current);
        have_delta = true;
      }
      current = std::move(next);
    }
  } catch (const QueryInterrupt&) {
    // Checkpoint the last completed stage; a mid-stage interrupt only
    // discards the partial stage.
    if (site != 0) {
      std::vector<uint64_t> pfp_hashes =
          is_pfp ? cycle.ExportHashes(current) : std::vector<uint64_t>{};
      resume->CaptureInProgress(site, current.ToTupleSet(), iteration,
                                std::move(pfp_hashes));
    }
    throw;
  }
  account();
  return fixpoints_.emplace(&node, std::move(current)).first->second;
}

const RegionRelation& RegionRelationEngine::Closure(const PlanNode& node) {
  auto cached = closures_.find(&node);
  if (cached != closures_.end()) return cached->second;
  const size_t m = node.bound_vars.size() / 2;

  // Resume fast path (core/resume.h): completed-matrix granularity only.
  if (ResumeCollector* resume = CurrentResumeCollectorOrNull()) {
    if (uint64_t site = resume->SiteKey(&node)) {
      if (const auto* done = resume->CompletedClosure(site)) {
        ++stats_->resume_sets_restored;
        RegionRelation rel(2 * m, n_);
        std::vector<size_t> tuple(2 * m);
        for (size_t from = 0; from < done->size(); ++from) {
          for (size_t to = 0; to < (*done)[from].size(); ++to) {
            if (!(*done)[from][to]) continue;
            size_t f = from, t = to;
            for (size_t i = m; i-- > 0;) {
              tuple[i] = f % n_;
              tuple[m + i] = t % n_;
              f /= n_;
              t /= n_;
            }
            rel.Set(tuple.data());
          }
        }
        return closures_.emplace(&node, std::move(rel)).first->second;
      }
    }
  }

  TraceSpan span("closure");
  ++stats_->closures_computed;
  const uint64_t kernel_queries_before =
      CurrentKernel().stats().feasibility_queries;
  CheckTupleSpace(m, "TC", "closure");
  size_t total = 1;
  for (size_t i = 0; i < m; ++i) total *= n_;

  // The edge relation over (from, to), one set-at-a-time body evaluation.
  BodyFrame frame;
  frame.scope = node.bound_vars;
  RegionRelation all(2 * m, n_);
  all.Fill();
  RegionRelation closure = EvalBody(*node.children[0], all, frame);

  // Row u of the matrix (the successors of from-tuple u) is a contiguous
  // block of relation rows.
  const size_t block = closure.rows() / std::max<size_t>(total, 1) *
                       closure.row_words();
  auto row_of = [&](size_t u) { return closure.row(0) + u * block; };
  auto test = [&](size_t u, size_t v) {
    return GetBit(row_of(u) + (v / std::max<size_t>(n_, 1)) *
                                  closure.row_words(),
                  v % std::max<size_t>(n_, 1));
  };
  if (node.source_kind == NodeKind::kDtc) {
    // Keep only unique successors.
    for (size_t u = 0; u < total; ++u) {
      uint64_t* row = row_of(u);
      size_t successors = 0;
      for (size_t w = 0; w < block; ++w) {
        successors += static_cast<size_t>(__builtin_popcountll(row[w]));
      }
      if (successors != 1) std::fill(row, row + block, 0);
    }
  }
  // Reflexive-transitive closure: the diagonal (length-one sequences), then
  // Warshall over bit rows. Each pivot row is a failpoint site and a
  // cancellation point.
  for (size_t u = 0; u < total; ++u) {
    SetBit(row_of(u) + (u / std::max<size_t>(n_, 1)) * closure.row_words(),
           u % std::max<size_t>(n_, 1));
  }
  for (size_t pivot = 0; pivot < total; ++pivot) {
    LCDB_FAILPOINT("closure.build");
    GovernorCheckpoint();
    const uint64_t* via = row_of(pivot);
    for (size_t u = 0; u < total; ++u) {
      if (u == pivot || !test(u, pivot)) continue;
      uint64_t* row = row_of(u);
      for (size_t w = 0; w < block; ++w) row[w] |= via[w];
      stats_->relation_word_ops += block;
    }
  }
  stats_->closure_feasibility_queries +=
      CurrentKernel().stats().feasibility_queries - kernel_queries_before;
  return closures_.emplace(&node, std::move(closure)).first->second;
}

}  // namespace lcdb
