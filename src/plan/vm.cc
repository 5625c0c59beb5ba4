#include "plan/vm.h"

#include <string>
#include <utility>

#include "analysis/bytecode_verify.h"
#include "engine/governor.h"
#include "engine/trace.h"
#include "geometry/convex_closure.h"
#include "plan/executor.h"
#include "qe/fourier_motzkin.h"
#include "util/failpoint.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

BytecodeVm::BytecodeVm(const BytecodeProgram& program,
                       const RegionExtension& ext,
                       const Evaluator::Options& options,
                       Evaluator::Stats* stats)
    : program_(program), ext_(ext), options_(options), stats_(stats),
      num_columns_(program.num_columns), env_(program.plan),
      memo_(options, stats) {
  for (size_t i = 0; i < program.leaf_sites.size(); ++i) {
    leaf_index_.emplace(program.leaf_sites[i].node, static_cast<uint32_t>(i));
  }
}

DnfFormula BytecodeVm::Run() {
  // The VM trusts operand bounds and bracket balance on its hot path (no
  // per-dispatch checks), so it refuses programs the tier-3 verifier has
  // not accepted. Options::verify off waives the gate for the ablation.
  if (options_.verify && !program_.verified) {
    throw QueryInterrupt(Status::Internal(
        "LCDB012: refusing to execute unverified bytecode program (run "
        "VerifyBytecode and set BytecodeProgram::verified)"));
  }
  // Same named injection site as PlanExecutor::Run — the backends are
  // interchangeable behind it (failpoint_test.cc, vm_test.cc).
  LCDB_FAILPOINT("plan.execute");
  tracer_ = ActiveTracerOrNull();
  try {
    DnfFormula result = CallSymProc(0);
    LCDB_CHECK(op_spans_.empty());
    return result;
  } catch (...) {
    // Close open operator spans innermost-first — what the tree walk's
    // TraceSpan destructors do during an unwind. Pending profile frames are
    // discarded instead, matching Profiled: a tripped node never produced
    // a result to attribute.
    for (; !op_spans_.empty(); op_spans_.pop_back()) {
      tracer_->EndSpan(op_spans_.back());
    }
    profile_stack_.clear();
    // The VM dies with this unwind; deposit completed fixpoint/closure
    // entries into the ambient resume collector (core/resume.h).
    if (relations_ != nullptr) relations_->HarvestResumeState();
    throw;
  }
}

RegionRelationEngine& BytecodeVm::Relations() {
  if (relations_ == nullptr) {
    RegionLeafEvaluator* leaves = this;
    relations_ = std::make_unique<RegionRelationEngine>(
        ext_, options_, stats_, profile_, &env_, leaves);
  }
  return *relations_;
}

bool BytecodeVm::EvalOpaqueLeaf(const PlanNode& leaf) {
  auto it = leaf_index_.find(&leaf);
  LCDB_CHECK_MSG(it != leaf_index_.end(), "opaque leaf without a proc");
  return CallBoolProc(program_.leaf_sites[it->second].proc);
}

DnfFormula BytecodeVm::CallSymProc(uint32_t proc_id) {
  const VmProc& proc = program_.procs[proc_id];
  const size_t sb = sregs_.size(), bb = bregs_.size(), ib = iregs_.size();
  sregs_.resize(sb + proc.num_sregs, DnfFormula::False(0));
  bregs_.resize(bb + proc.num_bregs, 0);
  iregs_.resize(ib + proc.num_iregs, 0);
  Dispatch(proc, sb, bb, ib);
  DnfFormula result = std::move(sregs_[sb]);
  sregs_.erase(sregs_.begin() + sb, sregs_.end());
  bregs_.erase(bregs_.begin() + bb, bregs_.end());
  iregs_.erase(iregs_.begin() + ib, iregs_.end());
  return result;
}

bool BytecodeVm::CallBoolProc(uint32_t proc_id) {
  const VmProc& proc = program_.procs[proc_id];
  const size_t sb = sregs_.size(), bb = bregs_.size(), ib = iregs_.size();
  sregs_.resize(sb + proc.num_sregs, DnfFormula::False(0));
  bregs_.resize(bb + proc.num_bregs, 0);
  iregs_.resize(ib + proc.num_iregs, 0);
  Dispatch(proc, sb, bb, ib);
  const bool result = bregs_[bb] != 0;
  sregs_.erase(sregs_.begin() + sb, sregs_.end());
  bregs_.erase(bregs_.begin() + bb, bregs_.end());
  iregs_.erase(iregs_.begin() + ib, iregs_.end());
  return result;
}

void BytecodeVm::Dispatch(const VmProc& proc, size_t sb, size_t bb,
                          size_t ib) {
  const VmInstr* code = proc.code.data();
  const size_t n = proc.code.size();
  // Frame-relative register views. The stacks never reallocate inside one
  // Dispatch: every growth happens inside a nested Call/member helper,
  // which restores the exact size before returning — so raw pointers would
  // be safe, but index math keeps the unwind paths trivially correct.
  auto S = [&](uint32_t r) -> DnfFormula& { return sregs_[sb + r]; };
  auto B = [&](uint32_t r) -> uint8_t& { return bregs_[bb + r]; };
  auto I = [&](uint32_t r) -> size_t& { return iregs_[ib + r]; };

  PlanMemo::Key key;
  std::vector<size_t> tuple;
  size_t pc = 0;
  while (pc < n) {
    const VmInstr& in = code[pc];
    ++stats_->vm.instructions;
    switch (in.op) {
      // ---- Node entry / exit.
      case VmOp::kEnterSym:
      case VmOp::kEnterBool: {
        const bool symbolic = in.op == VmOp::kEnterSym;
        GovernorCheckpoint();
        if (symbolic) {
          ++stats_->node_evaluations;
        } else {
          ++stats_->bool_evaluations;
        }
        const PlanNode* node = in.node;
        if (profile_ != nullptr) ++(*profile_)[node].calls;
        if (memo_.KeyOf(*node, env_, &key)) {
          if (symbolic) {
            if (const DnfFormula* hit = memo_.Find<DnfFormula>(*node, key)) {
              S(in.a) = *hit;
              pc = in.b;
              continue;
            }
          } else if (const bool* hit = memo_.Find<bool>(*node, key)) {
            B(in.a) = *hit ? 1 : 0;
            pc = in.b;
            continue;
          }
        }
        if (profile_ != nullptr) {
          profile_stack_.push_back(ProfileFrame{node, NodeProfileBracket()});
        }
        const char* span = AccountOp(node->op, stats_);
        if (span != nullptr && tracer_ != nullptr) {
          op_spans_.push_back(tracer_->BeginSpan(span));
        }
        break;
      }
      case VmOp::kLeaveSym:
      case VmOp::kLeaveBool: {
        const bool symbolic = in.op == VmOp::kLeaveSym;
        if (tracer_ != nullptr && AccountingOf(in.node->op).span) {
          tracer_->EndSpan(op_spans_.back());
          op_spans_.pop_back();
        }
        if (profile_ != nullptr) {
          const ProfileFrame& frame = profile_stack_.back();
          PlanNodeProfile& p = (*profile_)[frame.node];
          frame.bracket.Record(p);
          profile_stack_.pop_back();
          p.rows = symbolic ? S(in.a).disjuncts().size() : (B(in.a) ? 1 : 0);
        }
        // Rebuilding the key here is sound: the node's free variables are
        // bound by *ancestors*, and the typechecker's no-shadowing rule
        // means no descendant loop can have rewritten their slots.
        if (memo_.KeyOf(*in.node, env_, &key)) {
          if (symbolic) {
            memo_.Store(*in.node, std::move(key), S(in.a));
          } else {
            memo_.Store(*in.node, std::move(key), B(in.a) != 0);
          }
        }
        break;
      }
      // ---- Symbolic producers.
      case VmOp::kConstFormula:
        S(in.a) = *in.node->const_formula;
        break;
      case VmOp::kInRegion: {
        const Conjunction& region =
            ext_.RegionFormula(env_.regions[in.node->region_args[0]]);
        DnfFormula region_formula(region.num_vars(), {region});
        S(in.a) = region_formula.Substitute(in.node->subst, num_columns_);
        break;
      }
      case VmOp::kLiftBool:
        S(in.a) = B(in.b) != 0 ? DnfFormula::True(num_columns_)
                               : DnfFormula::False(num_columns_);
        break;
      case VmOp::kNegSym:
        S(in.a) = S(in.a).Negate();
        break;
      case VmOp::kAndSym:
        S(in.a) = S(in.a).And(S(in.b));
        break;
      case VmOp::kOrSym:
        S(in.a) = S(in.a).Or(S(in.b));
        break;
      case VmOp::kIffSym: {
        const DnfFormula& a = S(in.a);
        const DnfFormula& b = S(in.b);
        DnfFormula result = a.And(b).Or(a.Negate().And(b.Negate()));
        S(in.a) = std::move(result);
        break;
      }
      case VmOp::kLoadTrueSym:
        S(in.a) = DnfFormula::True(num_columns_);
        break;
      case VmOp::kLoadFalseSym:
        S(in.a) = DnfFormula::False(num_columns_);
        break;
      case VmOp::kHullFinish: {
        DnfFormula projected =
            S(in.b).Substitute(in.node->hull_project, in.node->hull_arity);
        Result<DnfFormula> hull = ConvexClosure(projected);
        LCDB_CHECK_MSG(hull.ok(), "convex closure failed");
        S(in.a) = hull->Substitute(in.node->subst, num_columns_);
        break;
      }
      case VmOp::kQeExists:
        S(in.a) = ExistsVariable(S(in.b), in.node->column);
        break;
      case VmOp::kQeForall:
        S(in.a) = ForallVariable(S(in.b), in.node->column);
        break;
      // ---- Boolean producers.
      case VmOp::kLoadBool:
        B(in.a) = static_cast<uint8_t>(in.imm);
        break;
      case VmOp::kNotBool:
        B(in.a) = B(in.a) != 0 ? 0 : 1;
        break;
      case VmOp::kEqBool:
        B(in.a) = (B(in.a) != 0) == (B(in.b) != 0) ? 1 : 0;
        break;
      case VmOp::kRegionAtom: {
        const std::vector<uint32_t>& args = in.node->region_args;
        B(in.a) = DecideRegionAtom(
                      ext_, *in.node, env_.regions[args[0]],
                      args.size() > 1 ? env_.regions[args[1]] : 0)
                      ? 1
                      : 0;
        break;
      }
      case VmOp::kSetMember:
      case VmOp::kFixpointMember:
      case VmOp::kClosureMember: {
        tuple.clear();
        for (uint32_t r : in.node->region_args) {
          tuple.push_back(env_.regions[r]);
        }
        for (uint32_t r : in.node->region_args2) {
          tuple.push_back(env_.regions[r]);
        }
        const RegionRelation& relation =
            in.op == VmOp::kSetMember ? *env_.sets[in.node->set_var].relation
            : in.op == VmOp::kFixpointMember
                ? Relations().Fixpoint(*in.node)
                : Relations().Closure(*in.node);
        B(in.a) = relation.Test(tuple.data()) ? 1 : 0;
        break;
      }
      case VmOp::kRbitFinish: {
        const std::vector<uint32_t>& args = in.node->region_args;
        B(in.a) = DecideRbit(ext_, *in.node, S(in.b), num_columns_,
                             env_.regions[args[0]], env_.regions[args[1]])
                      ? 1
                      : 0;
        break;
      }
      case VmOp::kNonEmpty:
        B(in.a) = S(in.b).IsEmpty() ? 0 : 1;
        break;
      // ---- Control flow.
      case VmOp::kJmp:
        pc = in.b;
        continue;
      case VmOp::kJmpIfSymFalse:
        if (S(in.a).IsSyntacticallyFalse()) {
          pc = in.b;
          continue;
        }
        break;
      case VmOp::kJmpIfSymTrue:
        if (S(in.a).IsSyntacticallyTrue()) {
          pc = in.b;
          continue;
        }
        break;
      case VmOp::kJmpIfFalseBool:
        if (B(in.a) == 0) {
          pc = in.b;
          continue;
        }
        break;
      case VmOp::kJmpIfTrueBool:
        if (B(in.a) != 0) {
          pc = in.b;
          continue;
        }
        break;
      case VmOp::kLoadImm:
        I(in.a) = in.imm;
        break;
      case VmOp::kLoopHead:
        if (I(in.a) >= ext_.num_regions()) {
          pc = in.b;
          continue;
        }
        // The lowering emits stride 0 (body Enter instructions already
        // checkpoint at the tree cadence); a nonzero stride adds an extra
        // checkpoint every `imm` iterations for bodies without Enter sites.
        if (in.imm != 0 && I(in.a) % in.imm == 0) GovernorCheckpoint();
        break;
      case VmOp::kLoopNext:
        ++I(in.a);
        pc = in.b;
        continue;
      case VmOp::kSetRegion:
        env_.regions[in.node->region_var] = I(in.b);
        break;
      // ---- Procedures.
      case VmOp::kCallSym:
        S(in.a) = CallSymProc(in.imm);
        break;
      case VmOp::kCallBool:
        B(in.a) = CallBoolProc(in.imm) ? 1 : 0;
        break;
      case VmOp::kRet:
      case VmOp::kHalt:
        return;
    }
    ++pc;
  }
}

DnfFormula ExecutePlan(const CompiledPlan& plan, const RegionExtension& ext,
                       const Evaluator::Options& options,
                       Evaluator::Stats* stats, PlanProfile* profile) {
  if (options.use_bytecode) {
    BytecodeProgram program;
    {
      TraceSpan span("plan.lower");
      program = CompileToBytecode(plan);
      span.Counter("procs", program.procs.size());
      span.Counter("instructions", program.TotalInstructions());
    }
    stats->vm.procs = program.procs.size();
    stats->vm.code_instructions = program.TotalInstructions();
    // Tier-3 gate at lowering: the VM below refuses unverified programs,
    // so a lowering bug becomes a clean LCDB012 instead of a register-file
    // overrun inside the dispatch loop.
    if (options.verify) {
      TraceSpan span("bytecode.verify");
      BytecodeVerifyResult verdict = VerifyBytecode(program);
      AccumulateVerifyStats(verdict, &stats->verify);
      if (!verdict.status.ok()) throw QueryInterrupt(verdict.status);
      span.Counter("instructions", verdict.instructions_verified);
      program.verified = true;
    }
    BytecodeVm vm(program, ext, options, stats);
    if (profile != nullptr) vm.EnableProfiling(profile);
    return vm.Run();
  }
  PlanExecutor executor(plan, ext, options, stats);
  if (profile != nullptr) executor.EnableProfiling(profile);
  return executor.Run();
}

}  // namespace lcdb
