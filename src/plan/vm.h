#ifndef LCDB_PLAN_VM_H_
#define LCDB_PLAN_VM_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "db/region_extension.h"
#include "engine/kernel_stats.h"
#include "plan/bytecode.h"
#include "plan/region_relations.h"

namespace lcdb {

class ConstraintKernel;
class QueryTracer;

/// Register-machine interpreter for lowered plans (plan/bytecode.h) — the
/// `use_bytecode` backend behind the ExecutePlan façade. One flat dispatch
/// loop replaces the tree executor's recursive virtual walk; the semantic
/// contract is byte-identical answer formulas, memo hit patterns, governor
/// checkpoint cadence and op.*/trace telemetry versus PlanExecutor (the
/// tree walk stays one release as the equivalence oracle; see
/// plan_equivalence_test.cc).
///
/// The one *permitted* divergence is kernel query counts: kernel call sites
/// (kNonEmpty emptiness tests, the rBIT implication) carry per-site inline
/// caches — a verdict slot keyed by the full canonical encoding of the
/// queried system and owned by the kernel it was filled against. A hit
/// skips the kernel entirely (no lock, no LRU touch); a kernel swap
/// (ScopedKernel) invalidates on first touch; formulas wider than
/// kIcacheMaxDisjuncts bypass the cache so fingerprinting can never cost
/// more than the short-circuiting oracle walk it replaces. Hit/miss/
/// invalidation/bypass counts land in Stats::vm and reset per Evaluate.
///
/// Like the tree executor, the VM is single-query: construct, Run() once,
/// read the updated stats. The program must outlive the VM.
class BytecodeVm : private RegionLeafEvaluator {
 public:
  BytecodeVm(const BytecodeProgram& program, const RegionExtension& ext,
             const Evaluator::Options& options, Evaluator::Stats* stats);

  /// Executes proc 0; fires the "plan.execute" failpoint first, exactly
  /// like PlanExecutor::Run. On a QueryInterrupt unwind, open operator
  /// timers are closed (recording their partial wall-clock, matching the
  /// tree walk's ScopedOpTimer destructors) and pending profile frames are
  /// discarded (matching Profiled's skip-on-unwind).
  DnfFormula Run();

  /// EXPLAIN ANALYZE sink, same contract as PlanExecutor::EnableProfiling.
  void EnableProfiling(PlanProfile* profile) { profile_ = profile; }

  /// Cap on disjuncts an inline-cache key will fingerprint; wider formulas
  /// bypass the cache (counted in Stats::vm.icache_bypasses).
  static constexpr size_t kIcacheMaxDisjuncts = 8;

 private:
  using Tuple = std::vector<size_t>;
  /// A set variable bound to the engine's current fixpoint stage.
  struct SetBinding {
    const RegionRelation* relation = nullptr;
    size_t version = 0;
  };
  /// One open kBeginOp(kOpTimed) bracket: closed by kEndOp or by the
  /// unwind handler in Run().
  struct OpFrame {
    PlanOp op;
    std::chrono::steady_clock::time_point start;
    uint64_t span_id = 0;
    QueryTracer* tracer = nullptr;
  };
  /// One in-flight profiled node evaluation (Enter .. Leave), mirroring
  /// PlanExecutor::Profiled's before-snapshots.
  struct ProfileFrame {
    const PlanNode* node = nullptr;
    std::chrono::steady_clock::time_point start;
    KernelStats kernel_before;
    uint64_t checkpoints_before = 0;
    bool governed = false;
  };
  /// Per-site kernel verdict slot. `kernel` identifies the owning kernel
  /// (CurrentKernel() at fill time) and `epoch` pins its
  /// ConstraintKernel::CacheEpoch() at fill time — a ScopedKernel swap,
  /// ClearCache(), or lemma-database invalidation moves one of the two and
  /// drops the slot, so a cleared kernel never serves a stale hit. `key`
  /// is the *full* canonical encoding, compared exactly — a colliding hash
  /// can therefore never break tree/VM byte-identity.
  struct IcacheSlot {
    const ConstraintKernel* kernel = nullptr;
    uint64_t epoch = 0;
    std::string key;
    bool verdict = false;
  };

  /// Runs `proc_id` in a fresh register frame; the result convention is
  /// frame-local register 0.
  DnfFormula CallSymProc(uint32_t proc_id);
  bool CallBoolProc(uint32_t proc_id);
  /// The dispatch loop over one proc's code, registers based at the given
  /// frame offsets.
  void Dispatch(const VmProc& proc, size_t sb, size_t bb, size_t ib);

  /// Builds the memo key of `desc` from the current slot environments —
  /// the same value sequence PlanExecutor::CacheKey pushes.
  void BuildKey(const VmMemoDesc& desc, Tuple* key) const;

  /// Concatenated canonical encodings of the formula's disjuncts (the
  /// inline-cache fingerprint). Only called for formulas under the
  /// disjunct cap.
  std::string Fingerprint(const DnfFormula& f) const;
  bool IcacheLookup(uint32_t slot, const std::string& key, bool* verdict);
  void IcacheStore(uint32_t slot, std::string key, bool verdict);

  /// The fixpoint/closure engine shared with the tree executor,
  /// constructed on the first member site.
  RegionRelationEngine& Relations();
  /// Engine callback: binds the leaf's slots and runs its proc.
  bool EvalOpaqueLeaf(const PlanNode& leaf, const std::vector<size_t>& values,
                      const RegionRelation* stage,
                      size_t stage_version) override;
  bool EvalRbitFinish(const VmInstr& in, const DnfFormula& body);

  void PushOpFrame(const PlanNode& node);
  void CloseOpFrame();

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

  // Flat slot environments (lowering resolves names to slots).
  std::vector<size_t> renv_;
  std::vector<SetBinding> senv_;

  std::vector<IcacheSlot> icache_;
  std::vector<OpFrame> op_stack_;
  std::vector<ProfileFrame> profile_stack_;

  // Memo caches, keyed by node identity like the tree executor's.
  std::map<const PlanNode*, std::map<Tuple, DnfFormula>> memo_;
  std::map<const PlanNode*, std::map<Tuple, bool>> bool_memo_;
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
