#ifndef LCDB_PLAN_VM_H_
#define LCDB_PLAN_VM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "db/region_extension.h"
#include "plan/bytecode.h"
#include "plan/node_accounting.h"
#include "plan/region_relations.h"
#include "plan/slot_env.h"

namespace lcdb {

class QueryTracer;

/// Register-machine interpreter for lowered plans (plan/bytecode.h) — the
/// `use_bytecode` backend behind the ExecutePlan façade. One flat dispatch
/// loop replaces the tree executor's recursive virtual walk; the semantic
/// contract is byte-identical answer formulas, memo hit patterns, governor
/// checkpoint cadence, kernel query counts and span trees versus
/// PlanExecutor (see plan_equivalence_test.cc). Kernel call sites
/// (kNonEmpty emptiness tests, the rBIT implication) ask the ambient
/// kernel, whose lemma database is the one cache of kernel verdicts.
///
/// Like the tree executor, the VM is single-query: construct, Run() once,
/// read the updated stats. The program must outlive the VM.
class BytecodeVm : private RegionLeafEvaluator {
 public:
  BytecodeVm(const BytecodeProgram& program, const RegionExtension& ext,
             const Evaluator::Options& options, Evaluator::Stats* stats);

  /// Executes proc 0; fires the "plan.execute" failpoint first, exactly
  /// like PlanExecutor::Run. On a QueryInterrupt unwind, open operator
  /// spans are closed innermost-first (matching the tree walk's TraceSpan
  /// destructors) and pending profile frames are discarded (matching
  /// Profiled's skip-on-unwind).
  DnfFormula Run();

  /// EXPLAIN ANALYZE sink, same contract as PlanExecutor::EnableProfiling.
  void EnableProfiling(PlanProfile* profile) {
    profile_ = profile;
    memo_.EnableProfiling(profile);
  }

 private:
  /// One in-flight profiled node evaluation (Enter .. Leave), the VM's
  /// form of PlanExecutor::Profiled.
  struct ProfileFrame {
    const PlanNode* node = nullptr;
    NodeProfileBracket bracket;
  };

  /// Runs `proc_id` in a fresh register frame; the result convention is
  /// frame-local register 0.
  DnfFormula CallSymProc(uint32_t proc_id);
  bool CallBoolProc(uint32_t proc_id);
  /// The dispatch loop over one proc's code, registers based at the given
  /// frame offsets.
  void Dispatch(const VmProc& proc, size_t sb, size_t bb, size_t ib);

  /// The fixpoint/closure engine shared with the tree executor,
  /// constructed on the first member site.
  RegionRelationEngine& Relations();
  /// Engine callback: runs the leaf's proc under the slots the engine
  /// bound.
  bool EvalOpaqueLeaf(const PlanNode& leaf) override;

  const BytecodeProgram& program_;
  const RegionExtension& ext_;
  const Evaluator::Options& options_;
  Evaluator::Stats* stats_;
  PlanProfile* profile_ = nullptr;
  size_t num_columns_;

  // Register stacks; Call instructions extend them by the callee's frame.
  std::vector<DnfFormula> sregs_;
  std::vector<uint8_t> bregs_;
  std::vector<size_t> iregs_;

  // The planner's slot environment and the memo, both shared in kind with
  // the tree executor (plan/slot_env.h).
  SlotEnv env_;
  PlanMemo memo_;

  /// The tracer installed at Run(), and the ids of the operator spans open
  /// on it: an Enter that misses the memo opens its node's span
  /// (AccountOp), the matching Leave closes it.
  QueryTracer* tracer_ = nullptr;
  std::vector<uint64_t> op_spans_;
  std::vector<ProfileFrame> profile_stack_;

  std::map<const PlanNode*, uint32_t> leaf_index_;  ///< into leaf_sites
  std::unique_ptr<RegionRelationEngine> relations_;
};

/// Thin façade selecting the plan backend: the bytecode VM when
/// `options.use_bytecode` (lowering under a "plan.lower" trace span, program
/// shape published into stats->vm), the tree-walk PlanExecutor otherwise.
/// Both backends fire the "plan.execute" failpoint at their Run entry.
DnfFormula ExecutePlan(const CompiledPlan& plan, const RegionExtension& ext,
                       const Evaluator::Options& options,
                       Evaluator::Stats* stats, PlanProfile* profile);

}  // namespace lcdb

#endif  // LCDB_PLAN_VM_H_
