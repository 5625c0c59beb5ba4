#include "analysis/plan_cost.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "util/status.h"

namespace lcdb {

namespace {

/// Everything saturates here instead of overflowing to inf: large enough to
/// order any two realistic plans, small enough that sums of many capped
/// terms still fit a double exactly-ish and a uint64 after truncation.
constexpr double kOpsCap = 1e18;
/// Row estimates cap much lower — DNF sizes beyond this are equally "huge"
/// and letting them grow would drown every other term in the ops total.
constexpr double kRowCap = 1e6;
/// Stage-count estimate cap for fixpoint iteration (Kleene reaches the
/// fixed point in at most space+1 stages; PFP may cycle longer but the
/// evaluator bounds it too).
constexpr double kStageCap = 4096.0;

double Capped(double v, double cap) { return v < cap ? v : cap; }

double PowD(double base, size_t exp, double cap) {
  double out = 1.0;
  for (size_t i = 0; i < exp; ++i) {
    out *= base;
    if (out >= cap) return cap;
  }
  return out;
}

std::string Approx(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

/// The tier-2 pass as a class so the traversal state (topological order,
/// stage multipliers) stays together. One instance analyzes one plan.
class CostAnalyzer {
 public:
  CostAnalyzer(const CompiledPlan& plan, const PlanCostOptions& options)
      : plan_(plan),
        options_(options),
        n_(std::max<size_t>(plan.num_regions, 1)),
        m_(std::max<size_t>(plan.num_columns, 1)) {}

  PlanCostReport Run() {
    Postorder(*plan_.root);
    // Bottom-up rows first (children precede parents in postorder) ...
    for (const PlanNode* node : order_) {
      report_.costs[node].est_rows = EstRows(*node);
    }
    // ... then calls top-down: reverse postorder is a topological order of
    // the DAG with every parent before its children, so arrivals are final
    // by the time a node distributes them onward.
    arrivals_[order_.back()] += 1.0;  // the root
    stage_mult_[order_.back()] = 1.0;
    for (size_t i = order_.size(); i-- > 0;) {
      Distribute(*order_[i]);
    }
    Finish();
    return std::move(report_);
  }

 private:
  void Postorder(const PlanNode& node) {
    if (!seen_.insert(&node).second) return;
    for (const PlanPtr& child : node.children) Postorder(*child);
    order_.push_back(&node);
  }

  double Rows(const PlanNode& node) const {
    return report_.costs.at(&node).est_rows;
  }

  /// Result-cardinality estimate: disjuncts for symbolic nodes, 1 for
  /// boolean ones. Mirrors how the DNF algebra combines disjunct counts
  /// (And multiplies, Or adds, Negate can blow up) with hard caps.
  double EstRows(const PlanNode& node) const {
    auto child = [&](size_t i) { return Rows(*node.children[i]); };
    switch (node.op) {
      case PlanOp::kConstFormula:
        return std::max<double>(node.const_formula->disjuncts().size(), 1.0);
      case PlanOp::kInRegion:
      case PlanOp::kLiftBool:
        return 1.0;
      case PlanOp::kNegateSym:
        // CNF->DNF distribution; estimate a doubling rather than the true
        // exponential so one negation does not dominate every total.
        return Capped(2.0 * child(0), kRowCap);
      case PlanOp::kAndSym:
        return Capped(child(0) * child(1), kRowCap);
      case PlanOp::kOrSym:
        return Capped(child(0) + child(1), kRowCap);
      case PlanOp::kImpliesSym:
        return Capped(2.0 * child(0) + child(1), kRowCap);
      case PlanOp::kIffSym:
        return Capped(4.0 * child(0) * child(1), kRowCap);
      case PlanOp::kHull:
        return 1.0;  // a closed convex set is one conjunction
      case PlanOp::kExistsElim:
      case PlanOp::kForallElim:
        return Capped(child(0), kRowCap);
      case PlanOp::kExpandExists:
        return Capped(static_cast<double>(n_) * child(0), kRowCap);
      case PlanOp::kExpandForall:
        return Capped(PowD(child(0), std::min<size_t>(n_, 8), kRowCap),
                      kRowCap);
      default:
        return 1.0;  // boolean operators
    }
  }

  double StageEstimate(const PlanNode& node) const {
    const double space = PowD(static_cast<double>(n_),
                              node.bound_vars.size(), kOpsCap);
    return Capped(space + 1.0, kStageCap);
  }

  /// Memo key space of a cache-marked node: one entry per assignment of
  /// its free region variables; set-dependent nodes key by stage version
  /// too, so the enclosing fixpoint's stage count multiplies in.
  double KeySpace(const PlanNode& node) const {
    double space =
        PowD(static_cast<double>(n_), node.free_region.size(), kOpsCap);
    if (!node.free_sets.empty()) {
      auto it = stage_mult_.find(&node);
      space = Capped(space * (it == stage_mult_.end() ? 1.0 : it->second),
                     kOpsCap);
    }
    return space;
  }

  /// Pushes this node's call count into its children and fixes its own
  /// executions (memo-collapsed). Arrivals of `node` are final here.
  void Distribute(const PlanNode& node) {
    const double arrivals = arrivals_[&node];
    const double stage_mult = stage_mult_[&node];
    PlanCostEstimate& est = report_.costs[&node];
    double executions = arrivals;
    if (node.cache == CachePolicy::kByRegionKey) {
      const double key_space = KeySpace(node);
      executions = std::min(arrivals, key_space);
      // Dead cache: no key can ever repeat, every store is write-once.
      est.dead_cache = arrivals <= key_space + 0.5;
    }
    est.est_calls = executions;
    est.est_bigint_ops = Capped(executions * PerCallOps(node), kOpsCap);

    // Loop multipliers of this node's children.
    double child_mult = executions;
    double child_stage = stage_mult;
    switch (node.op) {
      case PlanOp::kExpandExists:
      case PlanOp::kExpandForall:
      case PlanOp::kAnyRegion:
      case PlanOp::kAllRegion:
        child_mult = Capped(executions * static_cast<double>(n_), kOpsCap);
        break;
      case PlanOp::kFixpointMember: {
        const double space = PowD(static_cast<double>(n_),
                                  node.bound_vars.size(), kOpsCap);
        const double stages = StageEstimate(node);
        child_mult = Capped(executions * stages * space, kOpsCap);
        child_stage = Capped(stage_mult * stages, kOpsCap);
        break;
      }
      case PlanOp::kClosureMember: {
        // One body evaluation per (from, to) tuple pair.
        const double space = PowD(static_cast<double>(n_),
                                  node.bound_vars.size(), kOpsCap);
        child_mult = Capped(executions * space * space, kOpsCap);
        break;
      }
      default:
        break;
    }
    for (const PlanPtr& child : node.children) {
      arrivals_[child.get()] =
          Capped(arrivals_[child.get()] + child_mult, kOpsCap);
      auto [it, inserted] = stage_mult_.emplace(child.get(), child_stage);
      if (!inserted) it->second = std::max(it->second, child_stage);
    }
  }

  /// Node-local BigInt operations of ONE evaluation, as a function of the
  /// children's row estimates and the column count. The formulas price the
  /// dominant inner loops of each operator's implementation, not exact
  /// counts — relative order is what the budget check and the EXPLAIN
  /// column need.
  double PerCallOps(const PlanNode& node) const {
    const double m = static_cast<double>(m_);
    auto child = [&](size_t i) { return Rows(*node.children[i]); };
    switch (node.op) {
      case PlanOp::kConstFormula:
        return Rows(node) * m;  // copy of the stored formula
      case PlanOp::kInRegion:
        return m * m;  // affine substitution through one conjunction
      case PlanOp::kLiftBool:
        return 1.0;
      case PlanOp::kNegateSym:
        return Capped(child(0) * child(0) * m, kOpsCap);
      case PlanOp::kAndSym:
        return Capped(child(0) * child(1) * m, kOpsCap);
      case PlanOp::kOrSym:
        return child(0) + child(1);  // concatenation
      case PlanOp::kImpliesSym:
        return Capped(child(0) * child(0) * m + child(1), kOpsCap);
      case PlanOp::kIffSym:
        return Capped((child(0) * child(0) + child(1) * child(1) +
                       2.0 * child(0) * child(1)) *
                          m,
                      kOpsCap);
      case PlanOp::kHull:
        // Vertex/ray enumeration dominates: cubic in the hull dimension
        // per disjunct of the projected body.
        return Capped(child(0) * m * m * m, kOpsCap);
      case PlanOp::kExistsElim:
        // Fourier-Motzkin pairs upper and lower bounds per disjunct.
        return Capped(child(0) * m * m, kOpsCap);
      case PlanOp::kForallElim:
        return Capped(2.0 * child(0) * m * m, kOpsCap);  // via two negations
      case PlanOp::kExpandExists:
      case PlanOp::kExpandForall:
        // The accumulator re-combines once per region iteration.
        return Capped(static_cast<double>(n_) * Rows(node) * m, kOpsCap);
      case PlanOp::kRegionAtom:
        return 4.0;  // a few rational comparisons against the extension
      case PlanOp::kSetMember:
        return static_cast<double>(node.region_args.size()) + 1.0;
      case PlanOp::kFixpointMember: {
        // Per-stage set bookkeeping (the body formula work is priced at
        // the body nodes via the child multiplier).
        const double space = PowD(static_cast<double>(n_),
                                  node.bound_vars.size(), kOpsCap);
        return Capped(StageEstimate(node) * space, kOpsCap);
      }
      case PlanOp::kClosureMember: {
        const double space = PowD(static_cast<double>(n_),
                                  node.bound_vars.size(), kOpsCap);
        return Capped(space * space, kOpsCap);  // matrix + BFS bookkeeping
      }
      case PlanOp::kRbitMember:
        // Witness extraction + one implication over the body formula,
        // plus the bit reads.
        return Capped(child(0) * m * m + 64.0, kOpsCap);
      case PlanOp::kNonEmpty:
        return Capped(child(0) * m * m, kOpsCap);  // one LP per disjunct
      default:
        return 1.0;  // boolean connectives and constants
    }
  }

  void Finish() {
    double total = 0.0;
    for (const PlanNode* node : order_) {
      const PlanCostEstimate& est = report_.costs.at(node);
      total = Capped(total + est.est_bigint_ops, kOpsCap);
      if (est.dead_cache) {
        ++report_.stats.dead_caches;
        Diagnostic d;
        d.code = "LCDB011";
        d.severity = DiagSeverity::kWarning;
        d.message = std::string("cache-marked subplan '") +
                    PlanOpName(node->op) + "' can never hit: ~" +
                    Approx(report_.costs.at(node).est_calls) +
                    " estimated evaluation(s) over a memo key space of ~" +
                    Approx(KeySpace(*node));
        d.fix =
            "expected for hoisted loop invariants evaluated once per key; "
            "the cache column is not a win here";
        report_.diagnostics.push_back(std::move(d));
      }
    }
    report_.stats.nodes = order_.size();
    report_.stats.total_bigint_ops = static_cast<uint64_t>(total);
    report_.stats.est_answer_rows =
        static_cast<uint64_t>(report_.costs.at(plan_.root.get()).est_rows);
    const double budget =
        options_.ops_per_tuple * static_cast<double>(options_.max_tuple_space);
    if (total > budget) {
      Diagnostic d;
      d.code = "LCDB004";
      d.severity = DiagSeverity::kWarning;
      d.message = "estimated execution cost ~" + Approx(total) +
                  " BigInt operation(s) exceeds the tier-2 budget ~" +
                  Approx(budget) + " (ops_per_tuple x max_tuple_space), "
                  "after memoization collapses repeated evaluations";
      d.fix =
          "narrow region quantifiers or lower the fixpoint arity; raise "
          "max_tuple_space only if the cost is intended";
      report_.diagnostics.push_back(std::move(d));
    }
    report_.stats.warnings = report_.diagnostics.size();
  }

  const CompiledPlan& plan_;
  const PlanCostOptions& options_;
  const size_t n_;  // regions (>= 1 to keep powers meaningful)
  const size_t m_;  // element columns (>= 1)

  PlanCostReport report_;
  std::set<const PlanNode*> seen_;
  std::vector<const PlanNode*> order_;  // postorder: children before parents
  std::map<const PlanNode*, double> arrivals_;
  std::map<const PlanNode*, double> stage_mult_;
};

}  // namespace

PlanCostReport AnalyzePlanCost(const CompiledPlan& plan,
                               const PlanCostOptions& options) {
  LCDB_CHECK(plan.root != nullptr);
  return CostAnalyzer(plan, options).Run();
}

}  // namespace lcdb
