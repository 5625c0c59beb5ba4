#ifndef LCDB_PLAN_REGION_RELATIONS_H_
#define LCDB_PLAN_REGION_RELATIONS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "db/region_extension.h"
#include "plan/plan_ir.h"
#include "plan/slot_env.h"

namespace lcdb {

/// A dense relation over regions^arity: one bit per region tuple.
///
/// Layout: the first arity-1 coordinates select a row (mixed radix n, most
/// significant first) and the last coordinate is the bit inside the row.
/// Rows are padded to whole 64-bit words and the padding bits are always 0,
/// so equality, hashing and popcounts work word-wise. Word order is tuple
/// order, which is also the lexicographic order of std::set<Tuple>. An
/// arity-0 relation is a single bit (one row of one word).
class RegionRelation {
 public:
  using Tuple = std::vector<size_t>;
  using TupleSet = std::set<Tuple>;

  RegionRelation() : RegionRelation(0, 0) {}
  /// The empty relation of the given arity over `num_regions` regions.
  RegionRelation(size_t arity, size_t num_regions);

  size_t arity() const { return arity_; }
  size_t num_regions() const { return n_; }
  size_t rows() const { return rows_; }
  size_t row_words() const { return row_words_; }
  size_t num_words() const { return words_.size(); }
  uint64_t* row(size_t r) { return words_.data() + r * row_words_; }
  const uint64_t* row(size_t r) const { return words_.data() + r * row_words_; }
  /// Valid-bit mask of a row's last word (padding bits clear).
  uint64_t last_mask() const { return last_mask_; }

  bool Test(const size_t* tuple) const;
  void Set(const size_t* tuple);
  bool Empty() const;
  size_t Count() const;
  /// Every tuple.
  void Fill();
  void Complement();
  void AndWith(const RegionRelation& other);
  void OrWith(const RegionRelation& other);
  /// this &= ~other
  void AndNotWith(const RegionRelation& other);
  /// Tuples in exactly one of the two relations.
  size_t CountDifferences(const RegionRelation& other) const;
  bool operator==(const RegionRelation& other) const {
    return arity_ == other.arity_ && n_ == other.n_ && words_ == other.words_;
  }
  /// Stable 64-bit hash of the contents (the PFP cycle detector's key).
  uint64_t Hash() const;

  /// Conversions at the resume-token boundary (core/resume.h).
  TupleSet ToTupleSet() const;
  static RegionRelation FromTupleSet(const TupleSet& tuples, size_t arity,
                                     size_t num_regions);

 private:
  size_t arity_ = 0;
  size_t n_ = 0;
  size_t rows_ = 1;
  size_t row_words_ = 1;
  uint64_t last_mask_ = 1;
  std::vector<uint64_t> words_;
};

/// PFP cycle-detector key (core/pfp_cycle.h).
inline uint64_t PfpStateHash(const RegionRelation& state) {
  return state.Hash();
}

/// Relations the engine materializes are capped at this many tuples; a
/// boolean connective or quantifier whose child would be wider is evaluated
/// tuple-at-a-time instead, as an opaque leaf. The river scenario's widest
/// relation, 165^3 tuples, fits; four free region variables over 100+
/// regions do not.
inline constexpr size_t kMaxRelationTuples = size_t{1} << 24;

/// The single region-atom decision (adj / = / subset / meets / dim /
/// bounded) shared by the executors and the engine. `r1` is ignored for
/// unary atoms.
bool DecideRegionAtom(const RegionExtension& ext, const PlanNode& atom,
                      size_t r0, size_t r1);

/// The single rBIT decision (Definition 5.1) shared by the executors, over
/// the already-evaluated body formula of the kRbitMember `node`: when the
/// body defines exactly one rational a in column node.column, whether the
/// region pair (rn, rd) encodes a. See core/rbit.cc, the legacy walk's copy,
/// for the two cases.
bool DecideRbit(const RegionExtension& ext, const PlanNode& node,
                const DnfFormula& body, size_t num_columns, size_t rn,
                size_t rd);

/// True iff the engine evaluates `node`, a boolean node inside a fixpoint or
/// closure body, tuple-at-a-time through the owning executor: element-sort
/// leaves (kNonEmpty, kRbitMember), and connectives or quantifiers whose
/// relation, or a child's, would exceed kMaxRelationTuples.
bool IsOpaqueRegionLeaf(const PlanNode& node, size_t num_regions);

/// The opaque leaves the engine may evaluate for `body` (a fixpoint or
/// closure body), including those of nested member bodies the engine
/// evaluates itself; deduplicated, in pre-order. The bytecode lowering
/// gives each one a procedure.
void CollectOpaqueRegionLeaves(const PlanNode& body, size_t num_regions,
                               std::vector<const PlanNode*>* out);

/// Evaluates opaque leaves for the engine; implemented by the executor that
/// owns it (PlanExecutor, BytecodeVm), through its memoized evaluation.
class RegionLeafEvaluator {
 public:
  /// Evaluates `leaf` under the shared SlotEnv, in which the engine has
  /// bound the leaf's free region slots and, when the leaf reads it, the
  /// enclosing fixpoint's set slot to the current stage.
  virtual bool EvalOpaqueLeaf(const PlanNode& leaf) = 0;

 protected:
  ~RegionLeafEvaluator() = default;
};

/// Set-at-a-time evaluation of fixpoint (kFixpointMember) and closure
/// (kClosureMember) operators over dense bitset relations — the one
/// fixpoint/closure implementation both plan backends call.
///
/// A boolean body compiles node by node into relational algebra over the
/// node's free region variables: region atoms become relations decided at
/// most once per tuple and query, ∧/∨/¬ word operations, any_region /
/// all_region projection and division, set and nested member tests bit
/// tests. Every evaluation carries a context relation — the tuples whose
/// value matters — and conjunctions narrow it left to right, so atoms and
/// opaque leaves are decided only on tuples that survived the conjuncts
/// before them. LFP bodies whose set variable occurs only under ∧/∨/∃
/// iterate semi-naively; other LFP and IFP bodies naively over whole
/// bitsets; PFP computes next = body(cur) with a hashed cycle detector.
/// See DESIGN.md, "Set-at-a-time region engine".
///
/// One engine serves one plan execution and caches each operator's result
/// by node identity. It is constructed only when a plan reaches a fixpoint
/// or closure site, and shares the owning executor's SlotEnv.
class RegionRelationEngine {
 public:
  RegionRelationEngine(const RegionExtension& ext,
                       const Evaluator::Options& options,
                       Evaluator::Stats* stats, PlanProfile* profile,
                       SlotEnv* env, RegionLeafEvaluator* leaves);

  /// The fixpoint set of a kFixpointMember node, over its bound variables
  /// in binding order.
  const RegionRelation& Fixpoint(const PlanNode& node);
  /// The reflexive-transitive closure of a kClosureMember node, over
  /// (from-tuple, to-tuple) in binding order.
  const RegionRelation& Closure(const PlanNode& node);

  /// Deposits completed fixpoint/closure results into the ambient
  /// ResumeCollector; called from the owning executor's unwind path.
  void HarvestResumeState() const;

 private:
  /// Scope positions of a node's free region variables, ascending.
  using Schema = std::vector<uint32_t>;
  struct BodyFrame;

  void CheckTupleSpace(size_t arity, const char* what, const char* op) const;
  RegionRelation EvalBody(const PlanNode& body, const RegionRelation& ctx,
                          BodyFrame& frame);
  RegionRelation Eval(const PlanNode& node, const Schema& schema,
                      const RegionRelation& ctx, BodyFrame& frame);
  RegionRelation EvalNode(const PlanNode& node, const Schema& schema,
                          const RegionRelation& ctx, BodyFrame& frame);
  /// ∃ over a conjunction whose operands split the outer variables and
  /// share the quantified one, as a matrix product; false when the shape
  /// does not apply.
  bool JoinProject(const PlanNode& conj, const Schema& schema,
                   const Schema& cs, const RegionRelation& ctx,
                   BodyFrame& frame, RegionRelation* out);
  RegionRelation EvalAtom(const PlanNode& node, const Schema& schema,
                          const RegionRelation& ctx, const BodyFrame& frame);
  RegionRelation EvalOpaque(const PlanNode& node, const Schema& schema,
                            const RegionRelation& ctx,
                            const BodyFrame& frame);
  /// Tests every tuple of `schema` against `source`, reading the source's
  /// coordinates from the argument slots.
  RegionRelation Gather(const RegionRelation& source,
                        const std::vector<uint32_t>& args,
                        const Schema& schema, const BodyFrame& frame);
  Schema SchemaOf(const PlanNode& node, const BodyFrame& frame) const;
  /// Index within `schema` of each region slot.
  std::vector<uint32_t> Coordinates(const std::vector<uint32_t>& vars,
                                    const Schema& schema,
                                    const BodyFrame& frame) const;
  /// Occurrences of the frame's set variable in the tree expansion of
  /// `node` (semi-naive bookkeeping for skipped subtrees).
  size_t Occurrences(const PlanNode& node, uint32_t set_var);

  RegionRelation Broadcast(const RegionRelation& src, const Schema& from,
                           const Schema& to);
  RegionRelation Project(const RegionRelation& src, const Schema& from,
                         const Schema& to, bool forall);

  const RegionExtension& ext_;
  const Evaluator::Options& options_;
  Evaluator::Stats* stats_;
  PlanProfile* profile_;
  SlotEnv* env_;
  RegionLeafEvaluator* leaves_;
  size_t n_;

  std::map<const PlanNode*, RegionRelation> fixpoints_;
  std::map<const PlanNode*, RegionRelation> closures_;
  /// Lazily decided region atoms, per node and argument-to-schema layout:
  /// which tuples are decided, and which of those hold.
  struct AtomCache {
    RegionRelation known;
    RegionRelation value;
  };
  std::map<std::pair<const PlanNode*, std::vector<uint32_t>>, AtomCache>
      atoms_;
  std::map<const PlanNode*, size_t> occurrences_;
  size_t stage_versions_ = 0;
};

}  // namespace lcdb

#endif  // LCDB_PLAN_REGION_RELATIONS_H_
