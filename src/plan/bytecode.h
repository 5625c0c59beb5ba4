#ifndef LCDB_PLAN_BYTECODE_H_
#define LCDB_PLAN_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan_ir.h"

namespace lcdb {

/// Register bytecode for optimized query plans — the flattened execution
/// format the BytecodeVm (plan/vm.h) interprets. The lowering pass
/// (CompileToBytecode) turns the optimized plan DAG into dense fixed-width
/// instructions over three typed register files:
///
///  * `s` registers hold DnfFormula values (symbolic operators),
///  * `b` registers hold booleans (boolean operators),
///  * `i` registers hold loop counters (region-sort iteration).
///
/// The lowering mirrors the tree executor's recursion instruction for
/// instruction: every plan node opens with an Enter instruction (governor
/// checkpoint, node counters, EXPLAIN ANALYZE call accounting, memo probe;
/// on a miss, the operator's counter and span, AccountOp) and closes with a
/// Leave instruction (operator span close, profile settle, memo store), and
/// it keeps the same short-circuit jump structure the tree's && / || /
/// break statements produce — so answers, memo hit patterns, governor
/// checkpoint cadence and span trees are byte-identical to the tree walk
/// (see DESIGN.md, "Plan bytecode and the VM").
enum class VmOp : uint8_t {
  // ---- Node entry / exit (checkpoint + counters + memo + profile + span).
  kEnterSym,   ///< a=dest s, b=skip pc on a memo hit (cache-marked node)
  kLeaveSym,   ///< a=dest s; stores the result of a cache-marked node
  kEnterBool,  ///< a=dest b, b=skip pc on a memo hit (cache-marked node)
  kLeaveBool,  ///< a=dest b; stores the result of a cache-marked node
  // ---- Symbolic producers (results in s registers).
  kConstFormula,  ///< s[a] = *node->const_formula
  kInRegion,      ///< s[a] = region(env[arg 0]) substituted through subst
  kLiftBool,      ///< s[a] = b[b] ? True(m) : False(m)
  kNegSym,        ///< s[a] = s[a].Negate()
  kAndSym,        ///< s[a] = s[a].And(s[b])
  kOrSym,         ///< s[a] = s[a].Or(s[b])
  kIffSym,        ///< s[a] = s[a]&s[b] | !s[a]&!s[b]  (tree-exact order)
  kLoadTrueSym,   ///< s[a] = True(m)
  kLoadFalseSym,  ///< s[a] = False(m)
  kHullFinish,    ///< s[a] = hull(project(s[b])) substituted to columns
  kQeExists,      ///< s[a] = ExistsVariable(s[b], node->column)
  kQeForall,      ///< s[a] = ForallVariable(s[b], node->column)
  // ---- Boolean producers (results in b registers).
  kLoadBool,        ///< b[a] = imm
  kNotBool,         ///< b[a] = !b[a]
  kEqBool,          ///< b[a] = (b[a] == b[b])
  kRegionAtom,      ///< b[a] = atom(node->source_kind, env[args])
  kSetMember,       ///< b[a] = env[args] in the set slot's current stage
  kFixpointMember,  ///< b[a] = env[args] in fixpoint(site imm)
  kClosureMember,   ///< b[a] = closure(site imm)[env[args]][env[args2]]
  kRbitFinish,      ///< b[a] = rBIT verdict of body s[b] at env[args]
  kNonEmpty,        ///< b[a] = !s[b].IsEmpty()
  // ---- Control flow (jump targets are within-proc pcs).
  kJmp,            ///< pc = b
  kJmpIfSymFalse,  ///< if s[a].IsSyntacticallyFalse() pc = b
  kJmpIfSymTrue,   ///< if s[a].IsSyntacticallyTrue() pc = b
  kJmpIfFalseBool, ///< if !b[a] pc = b
  kJmpIfTrueBool,  ///< if b[a] pc = b
  kLoadImm,        ///< i[a] = imm
  kLoopHead,       ///< if i[a] >= |Reg| pc = b; imm = governor stride
  kLoopNext,       ///< ++i[a]; pc = b
  kSetRegion,      ///< env[node->region_var] = i[b]
  // ---- Procedures (shared CSE nodes; opaque leaves of member bodies).
  kCallSym,   ///< s[a] = result reg 0 of proc imm
  kCallBool,  ///< b[a] = result reg 0 of proc imm
  kRet,       ///< return from proc (result is frame-local reg 0)
  kHalt,      ///< end of the main proc
};

/// One fixed-width instruction. `node` points into the compiled plan (kept
/// alive by BytecodeProgram::plan) for payload access — the region and set
/// slots included, so no slot operand is duplicated here — cache identity
/// and profile attribution.
struct VmInstr {
  VmOp op = VmOp::kHalt;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  uint32_t imm = 0;
  const PlanNode* node = nullptr;
};

/// One opaque leaf of a fixpoint or closure body (plan/region_relations.h):
/// a node the set-at-a-time engine evaluates tuple-at-a-time by calling
/// back into the VM, which runs `proc` under the slots the engine bound.
struct VmLeafSite {
  const PlanNode* node = nullptr;
  uint32_t proc = 0;
};

/// Payload of one kFixpointMember or kClosureMember site: the opaque leaves
/// (leaf_sites ids) the engine may call back for while computing the set.
struct VmMemberSite {
  std::vector<uint32_t> leaves;
};

/// One procedure: the main program (proc 0), one proc per CSE-shared plan
/// node, and one boolean proc per opaque leaf of a fixpoint / closure body
/// (invoked by the set-at-a-time engine behind the member instructions). Jumps are within-proc indices;
/// the result convention is frame-local register 0.
struct VmProc {
  std::vector<VmInstr> code;
  uint32_t num_sregs = 0;
  uint32_t num_bregs = 0;
  uint32_t num_iregs = 0;
  bool symbolic = true;          ///< result in s0 (else b0)
  const PlanNode* origin = nullptr;  ///< nullptr for the main proc
};

/// A lowered plan: procedures plus the side tables instructions index into.
/// Owns (a copy of the shared_ptr spine of) the source plan so instruction
/// node pointers stay valid for the program's lifetime.
struct BytecodeProgram {
  std::vector<VmProc> procs;  ///< procs[0] is the entry point
  std::vector<VmMemberSite> fixpoint_sites;
  std::vector<VmMemberSite> closure_sites;
  std::vector<VmLeafSite> leaf_sites;
  size_t num_columns = 0;
  size_t num_regions = 0;
  /// Keepalive for the node pointers above, and the slot name tables.
  CompiledPlan plan;
  /// Set by the caller after analysis/bytecode_verify.h accepts the
  /// program; BytecodeVm refuses to run unverified programs unless
  /// Options::verify is off.
  bool verified = false;

  size_t TotalInstructions() const {
    size_t n = 0;
    for (const VmProc& p : procs) n += p.code.size();
    return n;
  }
};

/// Lowers an *optimized* plan to bytecode. The pass requires the optimizer
/// pipeline to have run (callers enforce Options::optimize; the Evaluator
/// rejects use_bytecode without optimize as kInvalidArgument) because the
/// lowering trusts the pass-maintained cache marks that raw plans carry
/// unset.
BytecodeProgram CompileToBytecode(const CompiledPlan& plan);

/// Instruction mnemonic (disassembly, tests).
const char* VmOpName(VmOp op);

/// Deterministic human-readable listing of the whole program: one block per
/// proc with register counts, one line per instruction with slot names
/// from the plan's tables, memo keys and 4-digit jump targets. Byte-stable
/// across runs (node references use lowering-order ids, never pointers) —
/// the format `lcdbq --explain-bytecode` prints and the goldens pin.
std::string DisassembleBytecode(const BytecodeProgram& program);

}  // namespace lcdb

#endif  // LCDB_PLAN_BYTECODE_H_
