#ifndef LCDB_ANALYSIS_BYTECODE_VERIFY_H_
#define LCDB_ANALYSIS_BYTECODE_VERIFY_H_

#include <cstddef>
#include <vector>

#include "analysis/verify_stats.h"
#include "plan/bytecode.h"
#include "util/status.h"

namespace lcdb {

/// Outcome of one bytecode verification run. Besides the pass/fail Status,
/// the abstract interpretation leaves behind facts the tier-2 analyzer can
/// lean on: which procs are provably unreachable from the entry proc, and
/// which cache-marked nodes can *never* hit because every one of their memo
/// sites sits in unreachable code.
struct BytecodeVerifyResult {
  /// Ok, or a kInternal Status whose message starts with `LCDB012:` and
  /// names the proc, pc and opcode of the first violation.
  Status status;
  /// Per-proc: reachable from proc 0 through call sites / fixpoint /
  /// closure bodies located in reachable code.
  std::vector<bool> proc_reachable;
  size_t procs_verified = 0;
  size_t instructions_verified = 0;
  /// Back-edges whose governor-checkpoint discipline was proved: either a
  /// nonzero `loop.head` stride or an Enter / member / call checkpoint
  /// source inside the loop body.
  size_t loops_verified = 0;
  size_t unreachable_procs = 0;
  /// Cache-marked plan nodes all of whose memo Enter sites are in
  /// unreachable code — the LCDB011 "can never hit" verdict upgraded from
  /// heuristic to proved.
  size_t dead_caches_proved = 0;
};

/// Tier-3 static verification of lowered bytecode (LCDB012) — a JVM-style
/// abstract interpreter over every proc of the program:
///
///  * **Operand bounds** — every register operand is inside the proc's
///    s/b/i register files, every site / proc index is inside its table,
///    jump targets are inside the proc (checked for all instructions,
///    reachable or not). Region and set slots are not operands: the VM
///    reads them from the instruction's plan node, whose slots VerifyPlan
///    (analysis/plan_verify.h) bounds-checks.
///  * **Typestate dataflow** — forward abstract interpretation with a
///    worklist: registers are defined before use on all paths (bit-vector
///    states, intersection at joins), and conditional jumps on
///    constant-loaded registers prune provably dead edges.
///  * **Memo-bracket balance** — Enter pushes an abstract frame (mode,
///    register, plan node), Leave pops a matching one, the memo-hit skip
///    edge carries the pre-Enter stack; stacks must agree at joins and be
///    empty at ret/halt. The VM's operator spans open and close at the
///    same Enter / Leave, so they balance with the brackets.
///  * **Control discipline** — every backward jump is a kLoopNext
///    targeting its kLoopHead (same counter register), every such cycle
///    contains a governor checkpoint source (nonzero head stride, or an
///    Enter / member / call in the body), no proc's control falls off the
///    end, halt only in the entry proc, ret only outside it.
///  * **Call graph** — kCallSym/kCallBool callees exist and match the
///    caller's mode, fixpoint/closure body procs are boolean, and the
///    whole proc call graph (member-site edges included) is acyclic.
///
/// Verification is read-only and runs once per lowering; `BytecodeVm`
/// refuses to run a program whose `verified` flag the caller has not set
/// (see plan/bytecode.h) unless `Options::verify` is off.
BytecodeVerifyResult VerifyBytecode(const BytecodeProgram& program);

/// Folds a verification result into the `analysis.verify.*` telemetry.
void AccumulateVerifyStats(const BytecodeVerifyResult& result,
                           VerifyStats* stats);

}  // namespace lcdb

#endif  // LCDB_ANALYSIS_BYTECODE_VERIFY_H_
