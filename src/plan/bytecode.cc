#include "plan/bytecode.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "plan/region_relations.h"
#include "util/status.h"

namespace lcdb {

const char* VmOpName(VmOp op) {
  switch (op) {
    case VmOp::kEnterSym: return "enter.sym";
    case VmOp::kLeaveSym: return "leave.sym";
    case VmOp::kEnterBool: return "enter.bool";
    case VmOp::kLeaveBool: return "leave.bool";
    case VmOp::kConstFormula: return "const.formula";
    case VmOp::kInRegion: return "in_region";
    case VmOp::kLiftBool: return "lift_bool";
    case VmOp::kNegSym: return "neg.sym";
    case VmOp::kAndSym: return "and.sym";
    case VmOp::kOrSym: return "or.sym";
    case VmOp::kIffSym: return "iff.sym";
    case VmOp::kLoadTrueSym: return "load.true";
    case VmOp::kLoadFalseSym: return "load.false";
    case VmOp::kHullFinish: return "hull.finish";
    case VmOp::kQeExists: return "qe.exists";
    case VmOp::kQeForall: return "qe.forall";
    case VmOp::kLoadBool: return "load.bool";
    case VmOp::kNotBool: return "not.bool";
    case VmOp::kEqBool: return "eq.bool";
    case VmOp::kRegionAtom: return "region_atom";
    case VmOp::kSetMember: return "set_member";
    case VmOp::kFixpointMember: return "fixpoint";
    case VmOp::kClosureMember: return "closure";
    case VmOp::kRbitFinish: return "rbit.finish";
    case VmOp::kNonEmpty: return "nonempty";
    case VmOp::kJmp: return "jmp";
    case VmOp::kJmpIfSymFalse: return "jmp.sym_false";
    case VmOp::kJmpIfSymTrue: return "jmp.sym_true";
    case VmOp::kJmpIfFalseBool: return "jmp.false";
    case VmOp::kJmpIfTrueBool: return "jmp.true";
    case VmOp::kLoadImm: return "load.imm";
    case VmOp::kLoopHead: return "loop.head";
    case VmOp::kLoopNext: return "loop.next";
    case VmOp::kSetRegion: return "set_region";
    case VmOp::kCallSym: return "call.sym";
    case VmOp::kCallBool: return "call.bool";
    case VmOp::kRet: return "ret";
    case VmOp::kHalt: return "halt";
  }
  return "?";
}

namespace {

/// Lowers the plan DAG into a BytecodeProgram. Registers are allocated with
/// a simple depth counter per proc (the plan inside one proc is a tree —
/// shared nodes become proc calls), so the frame size equals the deepest
/// operand chain. Jump targets are patched within each proc.
class Lowerer {
 public:
  explicit Lowerer(const CompiledPlan& plan) : plan_(plan) {
    program_.plan = plan;
    program_.num_columns = plan.num_columns;
    program_.num_regions = plan.num_regions;
  }

  BytecodeProgram Lower() {
    Scan(*plan_.root);
    // Proc 0: the main program evaluating the (always symbolic) root.
    builds_.emplace_back();
    builds_[0].symbolic = true;
    stack_.push_back(0);
    const uint32_t dest = AllocS();
    LowerSym(*plan_.root, dest);
    FreeS();
    Emit(VmOp::kHalt);
    stack_.pop_back();
    for (ProcBuild& b : builds_) {
      VmProc proc;
      proc.code = std::move(b.code);
      proc.num_sregs = b.max_s;
      proc.num_bregs = b.max_b;
      proc.num_iregs = b.max_i;
      proc.symbolic = b.symbolic;
      proc.origin = b.origin;
      program_.procs.push_back(std::move(proc));
    }
    return std::move(program_);
  }

 private:
  struct ProcBuild {
    std::vector<VmInstr> code;
    uint32_t cur_s = 0, max_s = 0;
    uint32_t cur_b = 0, max_b = 0;
    uint32_t cur_i = 0, max_i = 0;
    bool symbolic = true;
    const PlanNode* origin = nullptr;
  };

  // ---- Pass 1: use counts. ----

  void Scan(const PlanNode& node) {
    if (++use_count_[&node] > 1) return;
    for (const PlanPtr& child : node.children) Scan(*child);
  }

  // ---- Emit helpers. ----

  ProcBuild& Cur() { return builds_[stack_.back()]; }

  size_t Emit(VmOp op, uint32_t a = 0, uint32_t b = 0, uint32_t c = 0,
              uint32_t imm = 0, const PlanNode* node = nullptr) {
    Cur().code.push_back(VmInstr{op, a, b, c, imm, node});
    return Cur().code.size() - 1;
  }

  uint32_t Here() { return static_cast<uint32_t>(Cur().code.size()); }
  void PatchB(size_t pc) { Cur().code[pc].b = Here(); }

  uint32_t AllocS() {
    ProcBuild& p = Cur();
    p.max_s = std::max(p.max_s, ++p.cur_s);
    return p.cur_s - 1;
  }
  void FreeS() { --Cur().cur_s; }
  uint32_t AllocB() {
    ProcBuild& p = Cur();
    p.max_b = std::max(p.max_b, ++p.cur_b);
    return p.cur_b - 1;
  }
  void FreeB() { --Cur().cur_b; }
  uint32_t AllocI() {
    ProcBuild& p = Cur();
    p.max_i = std::max(p.max_i, ++p.cur_i);
    return p.cur_i - 1;
  }
  void FreeI() { --Cur().cur_i; }

  /// Proc for a shared node or a fixpoint/closure body; created on first
  /// request. Creation switches the emit context onto the new proc, so
  /// nested shared nodes recurse naturally.
  uint32_t ProcFor(const PlanNode& node, bool symbolic) {
    auto it = proc_ids_.find(&node);
    if (it != proc_ids_.end()) return it->second;
    builds_.emplace_back();
    const uint32_t id = static_cast<uint32_t>(builds_.size() - 1);
    builds_[id].symbolic = symbolic;
    builds_[id].origin = &node;
    proc_ids_.emplace(&node, id);
    stack_.push_back(id);
    if (symbolic) {
      const uint32_t dest = AllocS();
      EmitSymNode(node, dest);
      FreeS();
    } else {
      const uint32_t dest = AllocB();
      EmitBoolNode(node, dest);
      FreeB();
    }
    Emit(VmOp::kRet);
    stack_.pop_back();
    return id;
  }

  // ---- Node lowering. ----

  void LowerSym(const PlanNode& node, uint32_t dest) {
    if (use_count_.at(&node) > 1) {
      Emit(VmOp::kCallSym, dest, 0, 0, ProcFor(node, /*symbolic=*/true),
           &node);
      return;
    }
    EmitSymNode(node, dest);
  }

  void LowerBool(const PlanNode& node, uint32_t dest) {
    if (use_count_.at(&node) > 1) {
      Emit(VmOp::kCallBool, dest, 0, 0, ProcFor(node, /*symbolic=*/false),
           &node);
      return;
    }
    EmitBoolNode(node, dest);
  }

  /// Symbolic node: Enter (checkpoint/counters/memo probe), the operator
  /// body in the exact tree-walk evaluation order, Leave (memo store).
  void EmitSymNode(const PlanNode& node, uint32_t dest) {
    const size_t enter = Emit(VmOp::kEnterSym, dest, 0, 0, 0, &node);
    switch (node.op) {
      case PlanOp::kConstFormula:
        Emit(VmOp::kConstFormula, dest, 0, 0, 0, &node);
        break;
      case PlanOp::kInRegion:
        Emit(VmOp::kInRegion, dest, 0, 0, 0, &node);
        break;
      case PlanOp::kLiftBool: {
        const uint32_t b = AllocB();
        LowerBool(*node.children[0], b);
        Emit(VmOp::kLiftBool, dest, b, 0, 0, &node);
        FreeB();
        break;
      }
      case PlanOp::kNegateSym:
        LowerSym(*node.children[0], dest);
        Emit(VmOp::kNegSym, dest, 0, 0, 0, &node);
        break;
      case PlanOp::kAndSym: {
        LowerSym(*node.children[0], dest);
        const size_t skip = Emit(VmOp::kJmpIfSymFalse, dest);
        const uint32_t rhs = AllocS();
        LowerSym(*node.children[1], rhs);
        Emit(VmOp::kAndSym, dest, rhs, 0, 0, &node);
        FreeS();
        PatchB(skip);
        break;
      }
      case PlanOp::kOrSym: {
        LowerSym(*node.children[0], dest);
        const size_t skip = Emit(VmOp::kJmpIfSymTrue, dest);
        const uint32_t rhs = AllocS();
        LowerSym(*node.children[1], rhs);
        Emit(VmOp::kOrSym, dest, rhs, 0, 0, &node);
        FreeS();
        PatchB(skip);
        break;
      }
      case PlanOp::kImpliesSym: {
        // a false => True(m); otherwise !a | b, negating before the rhs
        // evaluates — the tree's `a.Negate().Or(Eval(rhs))` sequencing.
        LowerSym(*node.children[0], dest);
        const size_t to_true = Emit(VmOp::kJmpIfSymFalse, dest);
        Emit(VmOp::kNegSym, dest, 0, 0, 0, &node);
        const uint32_t rhs = AllocS();
        LowerSym(*node.children[1], rhs);
        Emit(VmOp::kOrSym, dest, rhs, 0, 0, &node);
        FreeS();
        const size_t to_end = Emit(VmOp::kJmp);
        PatchB(to_true);
        Emit(VmOp::kLoadTrueSym, dest, 0, 0, 0, &node);
        PatchB(to_end);
        break;
      }
      case PlanOp::kIffSym: {
        LowerSym(*node.children[0], dest);
        const uint32_t rhs = AllocS();
        LowerSym(*node.children[1], rhs);
        Emit(VmOp::kIffSym, dest, rhs, 0, 0, &node);
        FreeS();
        break;
      }
      case PlanOp::kHull: {
        const uint32_t src = AllocS();
        LowerSym(*node.children[0], src);
        Emit(VmOp::kHullFinish, dest, src, 0, 0, &node);
        FreeS();
        break;
      }
      case PlanOp::kExistsElim:
      case PlanOp::kForallElim: {
        const uint32_t src = AllocS();
        LowerSym(*node.children[0], src);
        Emit(node.op == PlanOp::kExistsElim ? VmOp::kQeExists
                                            : VmOp::kQeForall,
             dest, src, 0, 0, &node);
        FreeS();
        break;
      }
      case PlanOp::kExpandExists:
      case PlanOp::kExpandForall: {
        const bool exists = node.op == PlanOp::kExpandExists;
        Emit(exists ? VmOp::kLoadFalseSym : VmOp::kLoadTrueSym, dest, 0, 0, 0,
             &node);
        const uint32_t ir = AllocI();
        Emit(VmOp::kLoadImm, ir, 0, 0, 0, &node);
        const uint32_t head = Here();
        // Stride 0: body Enter instructions already checkpoint at the tree
        // walk's per-iteration cadence (DESIGN.md, "Governor checkpoints").
        const size_t loop = Emit(VmOp::kLoopHead, ir, 0, 0, 0, &node);
        Emit(VmOp::kSetRegion, 0, ir, 0, 0, &node);
        const uint32_t src = AllocS();
        LowerSym(*node.children[0], src);
        Emit(exists ? VmOp::kOrSym : VmOp::kAndSym, dest, src, 0, 0, &node);
        FreeS();
        const size_t brk =
            Emit(exists ? VmOp::kJmpIfSymTrue : VmOp::kJmpIfSymFalse, dest);
        Emit(VmOp::kLoopNext, ir, head, 0, 0, &node);
        PatchB(loop);
        PatchB(brk);
        FreeI();
        break;
      }
      default:
        LCDB_CHECK_MSG(false, "boolean operator in symbolic lowering");
    }
    Emit(VmOp::kLeaveSym, dest, 0, 0, 0, &node);
    Cur().code[enter].b = Here();  // memo hit resumes after Leave
  }

  void EmitBoolNode(const PlanNode& node, uint32_t dest) {
    const size_t enter = Emit(VmOp::kEnterBool, dest, 0, 0, 0, &node);
    switch (node.op) {
      case PlanOp::kConstBool:
        Emit(VmOp::kLoadBool, dest, 0, 0, node.const_bool ? 1 : 0, &node);
        break;
      case PlanOp::kNotBool:
        LowerBool(*node.children[0], dest);
        Emit(VmOp::kNotBool, dest, 0, 0, 0, &node);
        break;
      case PlanOp::kAndBool: {
        LowerBool(*node.children[0], dest);
        const size_t skip = Emit(VmOp::kJmpIfFalseBool, dest);
        LowerBool(*node.children[1], dest);
        PatchB(skip);
        break;
      }
      case PlanOp::kOrBool: {
        LowerBool(*node.children[0], dest);
        const size_t skip = Emit(VmOp::kJmpIfTrueBool, dest);
        LowerBool(*node.children[1], dest);
        PatchB(skip);
        break;
      }
      case PlanOp::kImpliesBool: {
        LowerBool(*node.children[0], dest);
        const size_t to_true = Emit(VmOp::kJmpIfFalseBool, dest);
        LowerBool(*node.children[1], dest);
        const size_t to_end = Emit(VmOp::kJmp);
        PatchB(to_true);
        Emit(VmOp::kLoadBool, dest, 0, 0, 1, &node);
        PatchB(to_end);
        break;
      }
      case PlanOp::kIffBool: {
        LowerBool(*node.children[0], dest);
        const uint32_t rhs = AllocB();
        LowerBool(*node.children[1], rhs);
        Emit(VmOp::kEqBool, dest, rhs, 0, 0, &node);
        FreeB();
        break;
      }
      case PlanOp::kAnyRegion:
      case PlanOp::kAllRegion: {
        const bool any = node.op == PlanOp::kAnyRegion;
        Emit(VmOp::kLoadBool, dest, 0, 0, any ? 0 : 1, &node);
        const uint32_t ir = AllocI();
        Emit(VmOp::kLoadImm, ir, 0, 0, 0, &node);
        const uint32_t head = Here();
        const size_t loop = Emit(VmOp::kLoopHead, ir, 0, 0, 0, &node);
        Emit(VmOp::kSetRegion, 0, ir, 0, 0, &node);
        LowerBool(*node.children[0], dest);
        const size_t brk =
            Emit(any ? VmOp::kJmpIfTrueBool : VmOp::kJmpIfFalseBool, dest);
        Emit(VmOp::kLoopNext, ir, head, 0, 0, &node);
        PatchB(loop);
        PatchB(brk);
        FreeI();
        break;
      }
      case PlanOp::kRegionAtom:
        Emit(VmOp::kRegionAtom, dest, 0, 0, 0, &node);
        break;
      case PlanOp::kSetMember:
        Emit(VmOp::kSetMember, dest, 0, 0, 0, &node);
        break;
      case PlanOp::kFixpointMember: {
        // The set itself is computed by the set-at-a-time engine; only the
        // body's opaque leaves are lowered, as procs it calls back into.
        program_.fixpoint_sites.push_back(
            VmMemberSite{LeafSites(*node.children[0])});
        Emit(VmOp::kFixpointMember, dest, 0, 0,
             static_cast<uint32_t>(program_.fixpoint_sites.size() - 1),
             &node);
        break;
      }
      case PlanOp::kClosureMember: {
        program_.closure_sites.push_back(
            VmMemberSite{LeafSites(*node.children[0])});
        Emit(VmOp::kClosureMember, dest, 0, 0,
             static_cast<uint32_t>(program_.closure_sites.size() - 1), &node);
        break;
      }
      case PlanOp::kRbitMember: {
        const uint32_t src = AllocS();
        LowerSym(*node.children[0], src);
        Emit(VmOp::kRbitFinish, dest, src, 0, 0, &node);
        FreeS();
        break;
      }
      case PlanOp::kNonEmpty: {
        const uint32_t src = AllocS();
        LowerSym(*node.children[0], src);
        Emit(VmOp::kNonEmpty, dest, src, 0, 0, &node);
        FreeS();
        break;
      }
      default:
        LCDB_CHECK_MSG(false, "symbolic operator in boolean lowering");
    }
    Emit(VmOp::kLeaveBool, dest, 0, 0, 0, &node);
    Cur().code[enter].b = Here();
  }

  /// Leaf-site ids of the opaque leaves of a member body, each lowered to a
  /// boolean proc on first request.
  std::vector<uint32_t> LeafSites(const PlanNode& body) {
    std::vector<const PlanNode*> leaves;
    CollectOpaqueRegionLeaves(body, program_.num_regions, &leaves);
    std::vector<uint32_t> ids;
    for (const PlanNode* leaf : leaves) {
      auto it = leaf_ids_.find(leaf);
      if (it == leaf_ids_.end()) {
        program_.leaf_sites.push_back(
            VmLeafSite{leaf, ProcFor(*leaf, /*symbolic=*/false)});
        it = leaf_ids_
                 .emplace(leaf, static_cast<uint32_t>(
                                    program_.leaf_sites.size() - 1))
                 .first;
      }
      ids.push_back(it->second);
    }
    return ids;
  }

  const CompiledPlan& plan_;
  BytecodeProgram program_;
  std::vector<ProcBuild> builds_;
  std::vector<uint32_t> stack_;  ///< emit-context proc indices
  std::map<const PlanNode*, size_t> use_count_;
  std::map<const PlanNode*, uint32_t> proc_ids_;
  std::map<const PlanNode*, uint32_t> leaf_ids_;
};

std::string Pc(size_t pc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04zu", pc);
  return buf;
}

}  // namespace

BytecodeProgram CompileToBytecode(const CompiledPlan& plan) {
  LCDB_CHECK(plan.root != nullptr);
  return Lowerer(plan).Lower();
}

std::string DisassembleBytecode(const BytecodeProgram& program) {
  // Stable node ids in first-listing order — never pointers, so the
  // disassembly is byte-identical across runs (the goldens pin it).
  std::map<const PlanNode*, int> ids;
  auto node_ref = [&](const PlanNode* node) -> std::string {
    if (node == nullptr) return "";
    auto it = ids.find(node);
    if (it == ids.end()) {
      it = ids.emplace(node, static_cast<int>(ids.size())).first;
    }
    return "#" + std::to_string(it->second);
  };
  const std::vector<std::string>& region_names = program.plan.region_names;
  auto rnames = [&](const std::vector<uint32_t>& slots) {
    return JoinSlotNames(slots, region_names, ",");
  };
  auto memoized = [](const VmInstr& in) {
    return in.node->cache == CachePolicy::kByRegionKey;
  };
  auto leaves = [&](const std::vector<uint32_t>& ids) {
    std::string text = " leaves={";
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) text += ",";
      text += ids[i] < program.leaf_sites.size()
                  ? "proc" + std::to_string(program.leaf_sites[ids[i]].proc)
                  : "?";
    }
    return text + "}";
  };

  std::string out;
  for (size_t p = 0; p < program.procs.size(); ++p) {
    const VmProc& proc = program.procs[p];
    out += "proc " + std::to_string(p);
    if (proc.origin == nullptr) {
      out += " (main)";
    } else {
      out += " (" + std::string(PlanOpName(proc.origin->op)) + " " +
             node_ref(proc.origin) + ")";
    }
    out += ": " + std::string(proc.symbolic ? "sym" : "bool");
    out += " sregs=" + std::to_string(proc.num_sregs);
    out += " bregs=" + std::to_string(proc.num_bregs);
    out += " iregs=" + std::to_string(proc.num_iregs);
    out += "\n";
    for (size_t pc = 0; pc < proc.code.size(); ++pc) {
      const VmInstr& in = proc.code[pc];
      out += "  " + Pc(pc) + "  ";
      std::string line = VmOpName(in.op);
      line.resize(std::max<size_t>(line.size(), 14), ' ');
      switch (in.op) {
        case VmOp::kEnterSym:
        case VmOp::kEnterBool:
          line += (in.op == VmOp::kEnterSym ? "s" : "b") +
                  std::to_string(in.a) + " " + node_ref(in.node) + " " +
                  PlanOpName(in.node->op);
          if (memoized(in)) {
            line += " memo={" + rnames(in.node->free_region) + "}";
            if (!in.node->free_sets.empty()) {
              line += " sets={" +
                      JoinSlotNames(in.node->free_sets, program.plan.set_names,
                                    ",") +
                      "}";
            }
            line += " skip->" + Pc(in.b);
          }
          break;
        case VmOp::kLeaveSym:
        case VmOp::kLeaveBool:
          line += (in.op == VmOp::kLeaveSym ? "s" : "b") +
                  std::to_string(in.a);
          if (memoized(in)) line += " memo";
          break;
        case VmOp::kConstFormula: {
          std::string f = in.node->const_formula->ToString();
          if (f.size() > 32) f = f.substr(0, 29) + "...";
          line += "s" + std::to_string(in.a) + " {" + f + "}";
          break;
        }
        case VmOp::kInRegion:
          line += "s" + std::to_string(in.a) + " " +
                  rnames(in.node->region_args);
          break;
        case VmOp::kLiftBool:
          line += "s" + std::to_string(in.a) + " b" + std::to_string(in.b);
          break;
        case VmOp::kNegSym:
        case VmOp::kLoadTrueSym:
        case VmOp::kLoadFalseSym:
          line += "s" + std::to_string(in.a);
          break;
        case VmOp::kAndSym:
        case VmOp::kOrSym:
        case VmOp::kIffSym:
          line += "s" + std::to_string(in.a) + " s" + std::to_string(in.b);
          break;
        case VmOp::kHullFinish:
        case VmOp::kQeExists:
        case VmOp::kQeForall:
          line += "s" + std::to_string(in.a) + " s" + std::to_string(in.b);
          if (in.op != VmOp::kHullFinish) {
            line += " col" + std::to_string(in.node->column);
          }
          break;
        case VmOp::kLoadBool:
          line += "b" + std::to_string(in.a) + " " +
                  (in.imm != 0 ? "true" : "false");
          break;
        case VmOp::kNotBool:
          line += "b" + std::to_string(in.a);
          break;
        case VmOp::kEqBool:
          line += "b" + std::to_string(in.a) + " b" + std::to_string(in.b);
          break;
        case VmOp::kRegionAtom:
          line += "b" + std::to_string(in.a) + " " +
                  rnames(in.node->region_args);
          break;
        case VmOp::kSetMember:
          line += "b" + std::to_string(in.a) + " " +
                  SlotName(in.node->set_var, program.plan.set_names) + "(" +
                  rnames(in.node->region_args) + ")";
          break;
        case VmOp::kFixpointMember:
          line += "b" + std::to_string(in.a) + " site=f" +
                  std::to_string(in.imm) +
                  leaves(program.fixpoint_sites[in.imm].leaves);
          break;
        case VmOp::kClosureMember:
          line += "b" + std::to_string(in.a) + " site=c" +
                  std::to_string(in.imm) +
                  leaves(program.closure_sites[in.imm].leaves);
          break;
        case VmOp::kRbitFinish:
        case VmOp::kNonEmpty:
          line += "b" + std::to_string(in.a) + " s" + std::to_string(in.b);
          break;
        case VmOp::kJmp:
          line += "->" + Pc(in.b);
          break;
        case VmOp::kJmpIfSymFalse:
        case VmOp::kJmpIfSymTrue:
          line += "s" + std::to_string(in.a) + " ->" + Pc(in.b);
          break;
        case VmOp::kJmpIfFalseBool:
        case VmOp::kJmpIfTrueBool:
          line += "b" + std::to_string(in.a) + " ->" + Pc(in.b);
          break;
        case VmOp::kLoadImm:
          line += "i" + std::to_string(in.a) + " " + std::to_string(in.imm);
          break;
        case VmOp::kLoopHead:
          line += "i" + std::to_string(in.a) + " exit->" + Pc(in.b) +
                  " stride=" + std::to_string(in.imm);
          break;
        case VmOp::kLoopNext:
          line += "i" + std::to_string(in.a) + " ->" + Pc(in.b);
          break;
        case VmOp::kSetRegion:
          line += SlotName(in.node->region_var, region_names) + " = i" +
                  std::to_string(in.b);
          break;
        case VmOp::kCallSym:
        case VmOp::kCallBool:
          line += (in.op == VmOp::kCallSym ? "s" : "b") +
                  std::to_string(in.a) + " proc" + std::to_string(in.imm) +
                  " " + node_ref(in.node);
          break;
        case VmOp::kRet:
        case VmOp::kHalt:
          break;
      }
      out += line + "\n";
    }
  }
  out += "-- " + std::to_string(program.procs.size()) + " proc(s), " +
         std::to_string(program.TotalInstructions()) + " instruction(s)\n";
  return out;
}

}  // namespace lcdb
