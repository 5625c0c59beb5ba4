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
/// Region and set *environments* — std::map<std::string,...> on the tree
/// path — become flat slot arrays resolved at lowering time: the type
/// checker rejects variable shadowing, so every region/set variable name in
/// a plan denotes exactly one binding and gets exactly one slot.
///
/// The lowering mirrors the tree executor's recursion instruction for
/// instruction: every plan node opens with an Enter instruction (governor
/// checkpoint, node counters, EXPLAIN ANALYZE call accounting, memo probe)
/// and closes with a Leave instruction (profile settle, memo store), the
/// same short-circuit jump structure the tree's && / || / break statements
/// produce, and the same operator-accounting brackets ScopedOpTimer emits —
/// so answers, memo hit patterns, governor checkpoint cadence and op.*
/// metrics are byte-identical to the tree walk (see DESIGN.md, "Plan
/// bytecode and the VM").
enum class VmOp : uint8_t {
  // ---- Node entry / exit (checkpoint + counters + memo + profile).
  kEnterSym,   ///< a=dest s, b=skip pc on memo hit, imm=memo desc id (+1)
  kLeaveSym,   ///< a=dest s, imm=memo desc id (+1)
  kEnterBool,  ///< a=dest b, b=skip pc on memo hit, imm=memo desc id (+1)
  kLeaveBool,  ///< a=dest b, imm=memo desc id (+1)
  // ---- Symbolic producers (results in s registers).
  kConstFormula,  ///< s[a] = *node->const_formula
  kInRegion,      ///< s[a] = region(renv[b]) substituted through node->subst
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
  kRegionAtom,      ///< b[a] = atom(node->source_kind, renv[b] [, renv[c]])
  kSetMember,       ///< b[a] = tuple(list imm) in senv[b]'s current stage
  kFixpointMember,  ///< b[a] = tuple in the engine's fixpoint set (site imm)
  kClosureMember,   ///< b[a] = closure(site imm)[from][to]
  kRbitFinish,      ///< b[a] = rBIT verdict of body s[b]; site imm
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
  kSetRegion,      ///< renv[a] = i[b]
  // ---- Operator accounting (ScopedOpTimer / counter brackets).
  kBeginOp,  ///< imm = OpFlags; timed ops push a timer + trace span
  kEndOp,    ///< pops the matching timer, records into op_timings
  // ---- Procedures (shared CSE nodes; opaque leaves of member bodies).
  kCallSym,   ///< s[a] = result reg 0 of proc imm
  kCallBool,  ///< b[a] = result reg 0 of proc imm
  kRet,       ///< return from proc (result is frame-local reg 0)
  kHalt,      ///< end of the main proc
};

/// kBeginOp accounting flags (bitwise-orable).
enum OpFlags : uint32_t {
  kOpTimed = 1,        ///< wall-clock into op_timings + "op" trace span
  kOpCountQe = 2,      ///< ++stats.qe_eliminations
  kOpCountExpand = 4,  ///< ++stats.region_expansions
};

/// One fixed-width instruction. `node` points into the compiled plan (kept
/// alive by BytecodeProgram::plan) for payload access, cache identity and
/// profile attribution.
struct VmInstr {
  VmOp op = VmOp::kHalt;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  uint32_t imm = 0;
  const PlanNode* node = nullptr;
};

/// Memo-key layout of one cacheable node: region slots in the node's
/// name-sorted free_region order, then set slots in free_sets order — the
/// exact key the tree executor's CacheKey builds, so hit patterns match.
struct VmMemoDesc {
  std::vector<uint32_t> region_slots;
  std::vector<uint32_t> set_slots;
};

/// Region-slot operands of a kSetMember tuple (arbitrary arity).
using VmSlotList = std::vector<uint32_t>;

/// One opaque leaf of a fixpoint or closure body (plan/region_relations.h):
/// a node the set-at-a-time engine evaluates tuple-at-a-time by calling
/// back into the VM, which binds the leaf's free region variables (and the
/// enclosing set variable, when the leaf reads it) and runs `proc`.
struct VmLeafSite {
  const PlanNode* node = nullptr;
  uint32_t proc = 0;
  std::vector<uint32_t> region_slots;  ///< node->free_region order
  bool reads_set = false;
  uint32_t set_slot = 0;               ///< valid when reads_set
};

/// Payload of one kFixpointMember site: the applied arguments and the
/// opaque leaves (leaf_sites ids) the engine may call back for while
/// computing the set.
struct VmFixpointSite {
  std::vector<uint32_t> arg_slots;
  std::vector<uint32_t> leaves;
};

/// Payload of one kClosureMember site: both applied tuples and the body's
/// opaque leaves.
struct VmClosureSite {
  std::vector<uint32_t> arg_slots;
  std::vector<uint32_t> arg2_slots;
  std::vector<uint32_t> leaves;
};

/// Payload of one kRbitFinish site: the region slots of (R_n, R_d).
struct VmRbitSite {
  uint32_t rn_slot = 0;
  uint32_t rd_slot = 0;
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
  std::vector<std::string> region_slot_names;
  std::vector<std::string> set_slot_names;
  std::vector<VmMemoDesc> memo_descs;
  std::vector<VmSlotList> slot_lists;
  std::vector<VmFixpointSite> fixpoint_sites;
  std::vector<VmClosureSite> closure_sites;
  std::vector<VmLeafSite> leaf_sites;
  std::vector<VmRbitSite> rbit_sites;
  size_t num_columns = 0;
  size_t num_regions = 0;
  CompiledPlan plan;  ///< keepalive for the node pointers above
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
/// lowering trusts the pass-maintained annotations — cache marks, name-
/// sorted free-variable lists — that raw plans carry unset.
BytecodeProgram CompileToBytecode(const CompiledPlan& plan);

/// Instruction mnemonic (disassembly, tests).
const char* VmOpName(VmOp op);

/// Deterministic human-readable listing of the whole program: one block per
/// proc with register counts, one line per instruction with resolved slot
/// names and 4-digit jump targets, plus the side tables. Byte-stable across
/// runs (node references use lowering-order ids, never pointers) — the
/// format `lcdbq --explain-bytecode` prints and the goldens pin.
std::string DisassembleBytecode(const BytecodeProgram& program);

}  // namespace lcdb

#endif  // LCDB_PLAN_BYTECODE_H_
