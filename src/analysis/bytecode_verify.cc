#include "analysis/bytecode_verify.h"

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace lcdb {

namespace {

Status Fail(const std::string& reason) {
  return Status::Internal("LCDB012: bytecode verification failed: " + reason);
}

Status FailAt(size_t proc, size_t pc, const VmInstr& in,
              const std::string& reason) {
  return Fail(reason + " [proc " + std::to_string(proc) + " pc " +
              std::to_string(pc) + " " + VmOpName(in.op) + "]");
}

// ---------------------------------------------------------------------------
// Abstract domain.

/// Constant lattice for jump pruning: kLoadBool / kLoadTrueSym /
/// kLoadFalseSym produce known truth values; any other write is kUnknown.
enum class Tri : uint8_t { kUnknown, kFalse, kTrue };

Tri JoinTri(Tri a, Tri b) { return a == b ? a : Tri::kUnknown; }

/// One open Enter bracket: the Leave that closes it must match mode,
/// destination register and plan node (the node's memo key).
struct AbsFrame {
  bool symbolic = true;
  uint32_t reg = 0;
  const PlanNode* node = nullptr;
  bool operator==(const AbsFrame& o) const {
    return symbolic == o.symbolic && reg == o.reg && node == o.node;
  }
};

/// Whether an Enter/Leave instruction probes / stores the memo; the VM
/// asks the same question of the same node.
bool Memoized(const VmInstr& in) {
  return in.node->cache == CachePolicy::kByRegionKey;
}

struct AbsState {
  std::vector<uint8_t> sdef, bdef, idef;  // defined-before-use bits
  std::vector<Tri> sval, bval;            // constants for edge pruning
  std::vector<AbsFrame> brackets;         // open Enter frames

  static AbsState Entry(const VmProc& proc) {
    AbsState st;
    st.sdef.assign(proc.num_sregs, 0);
    st.bdef.assign(proc.num_bregs, 0);
    st.idef.assign(proc.num_iregs, 0);
    st.sval.assign(proc.num_sregs, Tri::kUnknown);
    st.bval.assign(proc.num_bregs, Tri::kUnknown);
    return st;
  }
};

/// Merges `from` into `*into`. Returns false (bracket conflict) when the
/// two paths disagree on open Enter frames — the VM's profile and span
/// stacks would diverge. Sets `*changed` when `*into` moved.
bool Join(AbsState* into, const AbsState& from, bool* changed) {
  if (into->brackets != from.brackets) return false;
  for (size_t r = 0; r < into->sdef.size(); ++r) {
    if (into->sdef[r] && !from.sdef[r]) {
      into->sdef[r] = 0;
      *changed = true;
    }
    Tri joined = JoinTri(into->sval[r], from.sval[r]);
    if (joined != into->sval[r]) {
      into->sval[r] = joined;
      *changed = true;
    }
  }
  for (size_t r = 0; r < into->bdef.size(); ++r) {
    if (into->bdef[r] && !from.bdef[r]) {
      into->bdef[r] = 0;
      *changed = true;
    }
    Tri joined = JoinTri(into->bval[r], from.bval[r]);
    if (joined != into->bval[r]) {
      into->bval[r] = joined;
      *changed = true;
    }
  }
  for (size_t r = 0; r < into->idef.size(); ++r) {
    if (into->idef[r] && !from.idef[r]) {
      into->idef[r] = 0;
      *changed = true;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Static (flow-insensitive) per-instruction checks.

class ProcChecker {
 public:
  ProcChecker(const BytecodeProgram& program, size_t proc_id)
      : program_(program), proc_(program.procs[proc_id]), proc_id_(proc_id) {}

  /// Operand bounds, payload presence, jump-target sanity and back-edge
  /// discipline for every instruction, reachable or not.
  Status CheckStatic(size_t* loops_verified) {
    const auto& code = proc_.code;
    if (code.empty()) {
      return Fail("proc " + std::to_string(proc_id_) + " has no code");
    }
    for (size_t pc = 0; pc < code.size(); ++pc) {
      Status s = CheckInstr(pc, loops_verified);
      if (!s.ok()) return s;
      // No proc may fall off the end: the last instruction of every
      // fallthrough path must be ret/halt (or an unconditional transfer).
      if (pc + 1 == code.size() && FallsThrough(code[pc].op)) {
        return FailAt(proc_id_, pc, code[pc],
                      "control falls off the end of the proc");
      }
    }
    return Status::Ok();
  }

 private:
  static bool FallsThrough(VmOp op) {
    switch (op) {
      case VmOp::kJmp:
      case VmOp::kLoopNext:
      case VmOp::kRet:
      case VmOp::kHalt:
        return false;
      default:
        return true;
    }
  }

  Status S(size_t pc, uint32_t r) {
    if (r >= proc_.num_sregs) {
      return FailAt(proc_id_, pc, proc_.code[pc],
                    "s-register out of range: s" + std::to_string(r) +
                        " of " + std::to_string(proc_.num_sregs));
    }
    return Status::Ok();
  }
  Status B(size_t pc, uint32_t r) {
    if (r >= proc_.num_bregs) {
      return FailAt(proc_id_, pc, proc_.code[pc],
                    "b-register out of range: b" + std::to_string(r) +
                        " of " + std::to_string(proc_.num_bregs));
    }
    return Status::Ok();
  }
  Status I(size_t pc, uint32_t r) {
    if (r >= proc_.num_iregs) {
      return FailAt(proc_id_, pc, proc_.code[pc],
                    "i-register out of range: i" + std::to_string(r) +
                        " of " + std::to_string(proc_.num_iregs));
    }
    return Status::Ok();
  }
  Status Forward(size_t pc, uint32_t target) {
    const VmInstr& in = proc_.code[pc];
    if (target >= proc_.code.size()) {
      return FailAt(proc_id_, pc, in,
                    "jump target out of range: " + std::to_string(target) +
                        " of " + std::to_string(proc_.code.size()));
    }
    if (target <= pc) {
      return FailAt(proc_id_, pc, in,
                    "backward jump is not a loop back-edge (target " +
                        std::to_string(target) + ")");
    }
    return Status::Ok();
  }
  Status Node(size_t pc) {
    if (proc_.code[pc].node == nullptr) {
      return FailAt(proc_id_, pc, proc_.code[pc],
                    "missing node payload");
    }
    return Status::Ok();
  }

  Status CheckInstr(size_t pc, size_t* loops_verified) {
    const VmInstr& in = proc_.code[pc];
    Status s = Status::Ok();
    auto all = [&](std::initializer_list<Status> checks) {
      for (const Status& c : checks) {
        if (!c.ok()) return c;
      }
      return Status::Ok();
    };
    switch (in.op) {
      case VmOp::kEnterSym:
        s = all({S(pc, in.a), Node(pc)});
        if (s.ok() && Memoized(in)) s = Forward(pc, in.b);
        return s;
      case VmOp::kLeaveSym:
        return all({S(pc, in.a), Node(pc)});
      case VmOp::kEnterBool:
        s = all({B(pc, in.a), Node(pc)});
        if (s.ok() && Memoized(in)) s = Forward(pc, in.b);
        return s;
      case VmOp::kLeaveBool:
        return all({B(pc, in.a), Node(pc)});
      case VmOp::kConstFormula:
        s = all({S(pc, in.a), Node(pc)});
        if (s.ok() && !in.node->const_formula.has_value()) {
          s = FailAt(proc_id_, pc, in, "const.formula node has no formula");
        }
        return s;
      case VmOp::kInRegion:
        return all({S(pc, in.a), Node(pc)});
      case VmOp::kLiftBool:
        return all({S(pc, in.a), B(pc, in.b)});
      case VmOp::kNegSym:
      case VmOp::kLoadTrueSym:
      case VmOp::kLoadFalseSym:
        return S(pc, in.a);
      case VmOp::kAndSym:
      case VmOp::kOrSym:
      case VmOp::kIffSym:
        return all({S(pc, in.a), S(pc, in.b)});
      case VmOp::kHullFinish:
        return all({S(pc, in.a), S(pc, in.b), Node(pc)});
      case VmOp::kQeExists:
      case VmOp::kQeForall:
        s = all({S(pc, in.a), S(pc, in.b), Node(pc)});
        if (s.ok() && in.node->column >= program_.num_columns) {
          s = FailAt(proc_id_, pc, in,
                     "column out of range: " + std::to_string(in.node->column) +
                         " of " + std::to_string(program_.num_columns));
        }
        return s;
      case VmOp::kLoadBool:
      case VmOp::kNotBool:
        return B(pc, in.a);
      case VmOp::kEqBool:
        return all({B(pc, in.a), B(pc, in.b)});
      case VmOp::kRegionAtom: {
        s = all({B(pc, in.a), Node(pc)});
        if (!s.ok()) return s;
        switch (in.node->source_kind) {
          case NodeKind::kAdjacent:
          case NodeKind::kRegionEq:
          case NodeKind::kSubsetS:
          case NodeKind::kIntersectsS:
          case NodeKind::kDimAtom:
          case NodeKind::kBoundedAtom:
            return Status::Ok();
          default:
            return FailAt(proc_id_, pc, in,
                          "node kind is not a region predicate");
        }
      }
      case VmOp::kSetMember:
        return all({B(pc, in.a), Node(pc)});
      case VmOp::kFixpointMember:
        s = all({B(pc, in.a), Node(pc)});
        if (s.ok() && in.imm >= program_.fixpoint_sites.size()) {
          s = FailAt(proc_id_, pc, in,
                     "fixpoint site id out of range: " + std::to_string(in.imm) +
                         " of " +
                         std::to_string(program_.fixpoint_sites.size()));
        }
        return s;
      case VmOp::kClosureMember:
        s = all({B(pc, in.a), Node(pc)});
        if (s.ok() && in.imm >= program_.closure_sites.size()) {
          s = FailAt(proc_id_, pc, in,
                     "closure site id out of range: " + std::to_string(in.imm) +
                         " of " + std::to_string(program_.closure_sites.size()));
        }
        return s;
      case VmOp::kRbitFinish:
        return all({B(pc, in.a), S(pc, in.b), Node(pc)});
      case VmOp::kNonEmpty:
        return all({B(pc, in.a), S(pc, in.b)});
      case VmOp::kJmp:
        return Forward(pc, in.b);
      case VmOp::kJmpIfSymFalse:
      case VmOp::kJmpIfSymTrue:
        return all({S(pc, in.a), Forward(pc, in.b)});
      case VmOp::kJmpIfFalseBool:
      case VmOp::kJmpIfTrueBool:
        return all({B(pc, in.a), Forward(pc, in.b)});
      case VmOp::kLoadImm:
        return I(pc, in.a);
      case VmOp::kLoopHead:
        return all({I(pc, in.a), Forward(pc, in.b)});
      case VmOp::kLoopNext: {
        s = I(pc, in.a);
        if (!s.ok()) return s;
        if (in.b >= proc_.code.size()) {
          return FailAt(proc_id_, pc, in,
                        "jump target out of range: " + std::to_string(in.b) +
                            " of " + std::to_string(proc_.code.size()));
        }
        const VmInstr& head = proc_.code[in.b];
        if (head.op != VmOp::kLoopHead) {
          return FailAt(proc_id_, pc, in,
                        "loop back-edge does not target its loop.head");
        }
        if (head.a != in.a) {
          return FailAt(proc_id_, pc, in,
                        "loop back-edge counter mismatch: i" +
                            std::to_string(in.a) + " vs head i" +
                            std::to_string(head.a));
        }
        if (in.b < pc) {
          // Governor discipline: the cycle [head, next] must contain a
          // checkpoint source — a nonzero head stride, or an Enter /
          // member / call instruction in the body (Enters checkpoint at
          // the tree cadence; member engines and callee procs open with
          // Enters of their own).
          bool checkpointed = head.imm != 0;
          for (size_t body = in.b + 1; !checkpointed && body < pc; ++body) {
            switch (proc_.code[body].op) {
              case VmOp::kEnterSym:
              case VmOp::kEnterBool:
              case VmOp::kFixpointMember:
              case VmOp::kClosureMember:
              case VmOp::kCallSym:
              case VmOp::kCallBool:
                checkpointed = true;
                break;
              default:
                break;
            }
          }
          if (!checkpointed) {
            return FailAt(proc_id_, pc, in,
                          "loop without a governor checkpoint: head stride is "
                          "0 and the body has no Enter/member/call site");
          }
          ++*loops_verified;
        }
        return Status::Ok();
      }
      case VmOp::kSetRegion:
        return all({I(pc, in.b), Node(pc)});
      case VmOp::kCallSym:
      case VmOp::kCallBool: {
        const bool symbolic = in.op == VmOp::kCallSym;
        s = symbolic ? S(pc, in.a) : B(pc, in.a);
        if (!s.ok()) return s;
        if (in.imm >= program_.procs.size()) {
          return FailAt(proc_id_, pc, in,
                        "proc id out of range: " + std::to_string(in.imm) +
                            " of " + std::to_string(program_.procs.size()));
        }
        const VmProc& callee = program_.procs[in.imm];
        if (callee.symbolic != symbolic) {
          return FailAt(proc_id_, pc, in,
                        "mode confusion: " +
                            std::string(symbolic ? "call.sym" : "call.bool") +
                            " targets a " +
                            (callee.symbolic ? "symbolic" : "boolean") +
                            " proc");
        }
        const uint32_t result_regs =
            symbolic ? callee.num_sregs : callee.num_bregs;
        if (result_regs == 0) {
          return FailAt(proc_id_, pc, in,
                        "callee has no result register 0");
        }
        return Status::Ok();
      }
      case VmOp::kRet:
        if (proc_id_ == 0) {
          return FailAt(proc_id_, pc, in, "ret in the entry proc");
        }
        return Status::Ok();
      case VmOp::kHalt:
        if (proc_id_ != 0) {
          return FailAt(proc_id_, pc, in, "halt outside the entry proc");
        }
        return Status::Ok();
    }
    return FailAt(proc_id_, pc, in, "unknown opcode");
  }

  const BytecodeProgram& program_;
  const VmProc& proc_;
  const size_t proc_id_;
};

// ---------------------------------------------------------------------------
// Flow-sensitive dataflow (typestate + brackets) per proc.

class ProcDataflow {
 public:
  ProcDataflow(const BytecodeProgram& program, size_t proc_id)
      : program_(program),
        proc_(program.procs[proc_id]),
        proc_id_(proc_id),
        states_(proc_.code.size()),
        reachable_(proc_.code.size(), false) {}

  Status Run() {
    Propagate(0, AbsState::Entry(proc_));
    if (!status_.ok()) return status_;
    while (!worklist_.empty()) {
      const size_t pc = worklist_.front();
      worklist_.pop_front();
      in_worklist_.erase(pc);
      Step(pc);
      if (!status_.ok()) return status_;
    }
    return Status::Ok();
  }

  const std::vector<bool>& reachable() const { return reachable_; }

 private:
  Status ReadS(size_t pc, const AbsState& st, uint32_t r) {
    if (!st.sdef[r]) {
      return FailAt(proc_id_, pc, proc_.code[pc],
                    "read of undefined s-register s" + std::to_string(r));
    }
    return Status::Ok();
  }
  Status ReadB(size_t pc, const AbsState& st, uint32_t r) {
    if (!st.bdef[r]) {
      return FailAt(proc_id_, pc, proc_.code[pc],
                    "read of undefined b-register b" + std::to_string(r));
    }
    return Status::Ok();
  }
  Status ReadI(size_t pc, const AbsState& st, uint32_t r) {
    if (!st.idef[r]) {
      return FailAt(proc_id_, pc, proc_.code[pc],
                    "read of undefined i-register i" + std::to_string(r));
    }
    return Status::Ok();
  }

  static void WriteS(AbsState* st, uint32_t r, Tri value = Tri::kUnknown) {
    st->sdef[r] = 1;
    st->sval[r] = value;
  }
  static void WriteB(AbsState* st, uint32_t r, Tri value = Tri::kUnknown) {
    st->bdef[r] = 1;
    st->bval[r] = value;
  }
  static void WriteI(AbsState* st, uint32_t r) { st->idef[r] = 1; }

  void Propagate(size_t target, AbsState state) {
    if (!reachable_[target]) {
      reachable_[target] = true;
      states_[target] = std::move(state);
      Enqueue(target);
      return;
    }
    bool changed = false;
    if (!Join(&states_[target], state, &changed)) {
      status_ = FailAt(proc_id_, target, proc_.code[target],
                       "inconsistent memo bracket depth at join");
      return;
    }
    if (changed) Enqueue(target);
  }

  void Enqueue(size_t pc) {
    if (in_worklist_.insert(pc).second) worklist_.push_back(pc);
  }

  void Step(size_t pc) {
    const VmInstr& in = proc_.code[pc];
    AbsState st = states_[pc];  // copy: transfer below mutates
    switch (in.op) {
      case VmOp::kEnterSym:
      case VmOp::kEnterBool: {
        const bool symbolic = in.op == VmOp::kEnterSym;
        if (Memoized(in)) {
          // Memo-hit edge: dest defined, bracket NOT pushed (the VM jumps
          // past the Leave).
          AbsState hit = st;
          if (symbolic) {
            WriteS(&hit, in.a);
          } else {
            WriteB(&hit, in.a);
          }
          Propagate(in.b, std::move(hit));
          if (!status_.ok()) return;
        }
        st.brackets.push_back(AbsFrame{symbolic, in.a, in.node});
        Propagate(pc + 1, std::move(st));
        return;
      }
      case VmOp::kLeaveSym:
      case VmOp::kLeaveBool: {
        const bool symbolic = in.op == VmOp::kLeaveSym;
        status_ = symbolic ? ReadS(pc, st, in.a) : ReadB(pc, st, in.a);
        if (!status_.ok()) return;
        if (st.brackets.empty()) {
          status_ = FailAt(proc_id_, pc, in,
                           "memo bracket underflow: leave without enter");
          return;
        }
        const AbsFrame expect{symbolic, in.a, in.node};
        if (!(st.brackets.back() == expect)) {
          status_ = FailAt(proc_id_, pc, in,
                           "memo bracket mismatch: leave does not match the "
                           "open enter");
          return;
        }
        st.brackets.pop_back();
        Propagate(pc + 1, std::move(st));
        return;
      }
      case VmOp::kConstFormula:
      case VmOp::kInRegion:
        WriteS(&st, in.a);
        break;
      case VmOp::kLiftBool:
        status_ = ReadB(pc, st, in.b);
        if (!status_.ok()) return;
        WriteS(&st, in.a, st.bval[in.b]);
        break;
      case VmOp::kNegSym:
        status_ = ReadS(pc, st, in.a);
        if (!status_.ok()) return;
        WriteS(&st, in.a);
        break;
      case VmOp::kAndSym:
      case VmOp::kOrSym:
      case VmOp::kIffSym:
        status_ = ReadS(pc, st, in.a);
        if (status_.ok()) status_ = ReadS(pc, st, in.b);
        if (!status_.ok()) return;
        WriteS(&st, in.a);
        break;
      case VmOp::kLoadTrueSym:
        WriteS(&st, in.a, Tri::kTrue);
        break;
      case VmOp::kLoadFalseSym:
        WriteS(&st, in.a, Tri::kFalse);
        break;
      case VmOp::kHullFinish:
      case VmOp::kQeExists:
      case VmOp::kQeForall:
        status_ = ReadS(pc, st, in.b);
        if (!status_.ok()) return;
        WriteS(&st, in.a);
        break;
      case VmOp::kLoadBool:
        WriteB(&st, in.a, in.imm != 0 ? Tri::kTrue : Tri::kFalse);
        break;
      case VmOp::kNotBool: {
        status_ = ReadB(pc, st, in.a);
        if (!status_.ok()) return;
        Tri v = st.bval[in.a];
        Tri flipped = v == Tri::kTrue    ? Tri::kFalse
                      : v == Tri::kFalse ? Tri::kTrue
                                         : Tri::kUnknown;
        WriteB(&st, in.a, flipped);
        break;
      }
      case VmOp::kEqBool:
        status_ = ReadB(pc, st, in.a);
        if (status_.ok()) status_ = ReadB(pc, st, in.b);
        if (!status_.ok()) return;
        WriteB(&st, in.a);
        break;
      case VmOp::kRegionAtom:
      case VmOp::kSetMember:
      case VmOp::kFixpointMember:
      case VmOp::kClosureMember:
        WriteB(&st, in.a);
        break;
      case VmOp::kRbitFinish:
      case VmOp::kNonEmpty:
        status_ = ReadS(pc, st, in.b);
        if (!status_.ok()) return;
        WriteB(&st, in.a);
        break;
      case VmOp::kJmp:
        Propagate(in.b, std::move(st));
        return;
      case VmOp::kJmpIfSymFalse:
      case VmOp::kJmpIfSymTrue: {
        status_ = ReadS(pc, st, in.a);
        if (!status_.ok()) return;
        const Tri v = st.sval[in.a];
        const Tri taken_on = in.op == VmOp::kJmpIfSymTrue ? Tri::kTrue
                                                          : Tri::kFalse;
        // A constant-loaded register prunes the edge that cannot fire.
        // (Only syntactic constants: LoadTrue/LoadFalse survive to here
        // untouched, matching IsSyntacticallyTrue/False at runtime.)
        if (v == Tri::kUnknown || v == taken_on) {
          Propagate(in.b, st);
          if (!status_.ok()) return;
        }
        if (v == Tri::kUnknown || v != taken_on) {
          Propagate(pc + 1, std::move(st));
        }
        return;
      }
      case VmOp::kJmpIfFalseBool:
      case VmOp::kJmpIfTrueBool: {
        status_ = ReadB(pc, st, in.a);
        if (!status_.ok()) return;
        const Tri v = st.bval[in.a];
        const Tri taken_on = in.op == VmOp::kJmpIfTrueBool ? Tri::kTrue
                                                           : Tri::kFalse;
        if (v == Tri::kUnknown || v == taken_on) {
          Propagate(in.b, st);
          if (!status_.ok()) return;
        }
        if (v == Tri::kUnknown || v != taken_on) {
          Propagate(pc + 1, std::move(st));
        }
        return;
      }
      case VmOp::kLoadImm:
        WriteI(&st, in.a);
        break;
      case VmOp::kLoopHead:
        // Exit edge (i >= |Reg|) and body edge (fallthrough).
        status_ = ReadI(pc, st, in.a);
        if (!status_.ok()) return;
        Propagate(in.b, st);
        if (!status_.ok()) return;
        break;
      case VmOp::kLoopNext:
        status_ = ReadI(pc, st, in.a);
        if (!status_.ok()) return;
        Propagate(in.b, std::move(st));
        return;
      case VmOp::kSetRegion:
        status_ = ReadI(pc, st, in.b);
        if (!status_.ok()) return;
        break;
      case VmOp::kCallSym:
        WriteS(&st, in.a);
        break;
      case VmOp::kCallBool:
        WriteB(&st, in.a);
        break;
      case VmOp::kRet:
      case VmOp::kHalt: {
        if (!st.brackets.empty()) {
          status_ = FailAt(proc_id_, pc, in,
                           "unclosed enter bracket at proc exit");
          return;
        }
        // Result convention: frame-local register 0 of the proc's mode.
        status_ = proc_.symbolic ? ReadS(pc, st, 0) : ReadB(pc, st, 0);
        if (!status_.ok()) {
          status_ = FailAt(proc_id_, pc, in,
                           "result register 0 undefined at proc exit");
        }
        return;
      }
    }
    Propagate(pc + 1, std::move(st));
  }

  const BytecodeProgram& program_;
  const VmProc& proc_;
  const size_t proc_id_;
  std::vector<AbsState> states_;
  std::vector<bool> reachable_;
  std::deque<size_t> worklist_;
  std::unordered_set<size_t> in_worklist_;
  Status status_ = Status::Ok();
};

// ---------------------------------------------------------------------------
// Program-level checks: side tables, call graph, proc reachability.

Status CheckSideTables(const BytecodeProgram& p) {
  auto check_leaves = [&](const char* kind, size_t i,
                          const std::vector<uint32_t>& leaves) {
    for (uint32_t leaf : leaves) {
      if (leaf >= p.leaf_sites.size()) {
        return Fail(std::string(kind) + " site " + std::to_string(i) +
                    ": leaf site id out of range");
      }
    }
    return Status::Ok();
  };
  for (size_t i = 0; i < p.fixpoint_sites.size(); ++i) {
    LCDB_RETURN_IF_ERROR(
        check_leaves("fixpoint", i, p.fixpoint_sites[i].leaves));
  }
  for (size_t i = 0; i < p.closure_sites.size(); ++i) {
    LCDB_RETURN_IF_ERROR(
        check_leaves("closure", i, p.closure_sites[i].leaves));
  }
  for (size_t i = 0; i < p.leaf_sites.size(); ++i) {
    const VmLeafSite& site = p.leaf_sites[i];
    if (site.proc >= p.procs.size()) {
      return Fail("leaf site " + std::to_string(i) + ": proc id out of range");
    }
    if (p.procs[site.proc].symbolic) {
      return Fail("leaf site " + std::to_string(i) +
                  ": leaf proc must be boolean");
    }
    if (site.node == nullptr) {
      return Fail("leaf site " + std::to_string(i) + ": no leaf node");
    }
  }
  return Status::Ok();
}

/// Callee procs referenced by one instruction (call ops and member sites).
/// Operand bounds are already verified when this runs.
void AppendCallees(const BytecodeProgram& p, const VmInstr& in,
                   std::vector<uint32_t>* out) {
  switch (in.op) {
    case VmOp::kCallSym:
    case VmOp::kCallBool:
      out->push_back(in.imm);
      break;
    case VmOp::kFixpointMember:
      for (uint32_t leaf : p.fixpoint_sites[in.imm].leaves) {
        out->push_back(p.leaf_sites[leaf].proc);
      }
      break;
    case VmOp::kClosureMember:
      for (uint32_t leaf : p.closure_sites[in.imm].leaves) {
        out->push_back(p.leaf_sites[leaf].proc);
      }
      break;
    default:
      break;
  }
}

Status CheckCallGraphAcyclic(const BytecodeProgram& p) {
  // Colours: 0 white, 1 grey (on stack), 2 black.
  std::vector<uint8_t> colour(p.procs.size(), 0);
  std::vector<uint32_t> callees;
  // Iterative DFS: (proc, next-callee-index) frames.
  for (uint32_t root = 0; root < p.procs.size(); ++root) {
    if (colour[root] != 0) continue;
    std::vector<std::pair<uint32_t, size_t>> stack{{root, 0}};
    std::vector<std::vector<uint32_t>> callee_stack;
    callees.clear();
    for (const VmInstr& in : p.procs[root].code) {
      AppendCallees(p, in, &callees);
    }
    callee_stack.push_back(callees);
    colour[root] = 1;
    while (!stack.empty()) {
      auto& [proc, next] = stack.back();
      if (next >= callee_stack.back().size()) {
        colour[proc] = 2;
        stack.pop_back();
        callee_stack.pop_back();
        continue;
      }
      const uint32_t callee = callee_stack.back()[next++];
      if (colour[callee] == 1) {
        return Fail("proc call graph contains a cycle (proc " +
                    std::to_string(callee) + ")");
      }
      if (colour[callee] != 0) continue;
      colour[callee] = 1;
      callees.clear();
      for (const VmInstr& in : p.procs[callee].code) {
        AppendCallees(p, in, &callees);
      }
      stack.emplace_back(callee, 0);
      callee_stack.push_back(callees);
    }
  }
  return Status::Ok();
}

/// Cache-marked plan nodes whose every memo Enter site is unreachable: the
/// cache can never hit because the node is never executed — LCDB011's
/// heuristic verdict, proved.
size_t CountProvedDeadCaches(
    const BytecodeProgram& p, const std::vector<bool>& proc_reachable,
    const std::vector<std::vector<bool>>& instr_reachable) {
  // Memo sites per cache-marked node across all procs.
  std::unordered_map<const PlanNode*, std::pair<size_t, size_t>> sites;
  for (size_t proc = 0; proc < p.procs.size(); ++proc) {
    for (size_t pc = 0; pc < p.procs[proc].code.size(); ++pc) {
      const VmInstr& in = p.procs[proc].code[pc];
      if ((in.op != VmOp::kEnterSym && in.op != VmOp::kEnterBool) ||
          !Memoized(in)) {
        continue;
      }
      auto& [total, dead] = sites[in.node];
      ++total;
      if (!proc_reachable[proc] || !instr_reachable[proc][pc]) ++dead;
    }
  }
  size_t proved = 0;
  for (const auto& [node, counts] : sites) {
    if (counts.first > 0 && counts.first == counts.second) ++proved;
  }
  return proved;
}

}  // namespace

BytecodeVerifyResult VerifyBytecode(const BytecodeProgram& program) {
  BytecodeVerifyResult result;
  result.proc_reachable.assign(program.procs.size(), false);
  if (program.procs.empty()) {
    result.status = Fail("program has no procs");
    return result;
  }
  if (!program.procs[0].symbolic) {
    result.status = Fail("entry proc must be symbolic");
    return result;
  }
  result.status = CheckSideTables(program);
  if (!result.status.ok()) return result;

  std::vector<std::vector<bool>> instr_reachable(program.procs.size());
  for (size_t proc = 0; proc < program.procs.size(); ++proc) {
    ProcChecker checker(program, proc);
    result.status = checker.CheckStatic(&result.loops_verified);
    if (!result.status.ok()) return result;

    ProcDataflow dataflow(program, proc);
    result.status = dataflow.Run();
    if (!result.status.ok()) return result;
    instr_reachable[proc] = dataflow.reachable();
    ++result.procs_verified;
    result.instructions_verified += program.procs[proc].code.size();
  }

  result.status = CheckCallGraphAcyclic(program);
  if (!result.status.ok()) return result;

  // Proc reachability from the entry proc, following call / member-site
  // edges located at dataflow-reachable instructions only.
  std::deque<uint32_t> queue{0};
  result.proc_reachable[0] = true;
  std::vector<uint32_t> callees;
  while (!queue.empty()) {
    const uint32_t proc = queue.front();
    queue.pop_front();
    for (size_t pc = 0; pc < program.procs[proc].code.size(); ++pc) {
      if (!instr_reachable[proc][pc]) continue;
      callees.clear();
      AppendCallees(program, program.procs[proc].code[pc], &callees);
      for (uint32_t callee : callees) {
        if (!result.proc_reachable[callee]) {
          result.proc_reachable[callee] = true;
          queue.push_back(callee);
        }
      }
    }
  }
  for (bool reachable : result.proc_reachable) {
    if (!reachable) ++result.unreachable_procs;
  }
  result.dead_caches_proved =
      CountProvedDeadCaches(program, result.proc_reachable, instr_reachable);
  return result;
}

void AccumulateVerifyStats(const BytecodeVerifyResult& result,
                           VerifyStats* stats) {
  ++stats->programs_verified;
  stats->procs_verified += result.procs_verified;
  stats->instructions_verified += result.instructions_verified;
  stats->loops_verified += result.loops_verified;
  stats->unreachable_procs += result.unreachable_procs;
  stats->dead_caches_proved += result.dead_caches_proved;
  if (!result.status.ok()) ++stats->violations;
}

}  // namespace lcdb
