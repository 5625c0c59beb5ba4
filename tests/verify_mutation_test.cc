// Mutation harness for the tier-3 static verifiers: seeded mutants over the
// compiled corpus (every data/*.lcdb seed database x the canned queries from
// core/queries.h) must each be rejected by VerifyPlan / VerifyBytecode with
// the expected LCDB012 sub-reason, and the *unmutated* corpus must verify
// cleanly and evaluate identically on the tree and bytecode backends (the
// zero-false-positive half of the contract).
//
// The mutant sample is seeded from LCDB_VERIFY_SEED (CI passes
// GITHUB_RUN_ID, so every CI run probes a different sample); any seed must
// pass. Mutation operators edit one instruction / one plan node in place,
// verify, then restore — a final re-verification per program proves the
// restore was exact. LCDB_TEST_DATA_DIR is injected by CMake.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/bytecode_verify.h"
#include "analysis/plan_verify.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "core/typecheck.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "plan/bytecode.h"
#include "plan/optimizer.h"
#include "plan/plan_ir.h"
#include "plan/planner.h"
#include "util/status.h"

namespace lcdb {
namespace {

#ifndef LCDB_TEST_DATA_DIR
#define LCDB_TEST_DATA_DIR "data"
#endif

/// At most this many mutants per (program, operator) pair; positions are
/// sampled with the run seed so different CI runs probe different sites.
constexpr size_t kSitesPerOperator = 4;

uint64_t RunSeed() {
  static const uint64_t seed = [] {
    uint64_t s = 0xc0ffee;  // fixed default for local runs
    if (const char* env = std::getenv("LCDB_VERIFY_SEED");
        env != nullptr && *env != '\0') {
      s = std::strtoull(env, nullptr, 10);
    }
    std::cerr << "[verify_mutation] LCDB_VERIFY_SEED=" << s << "\n";
    return s;
  }();
  return seed;
}

/// The corpus: every seed database in data/ with every canned query that
/// typechecks against it (mirrors the analyzer / plan-equivalence sweeps).
struct CorpusEntry {
  std::string label;
  std::string text;
  std::shared_ptr<RegionExtension> ext;
};

void BuildCorpus(std::vector<CorpusEntry>* corpus) {
  for (const char* name : {"comb.lcdb", "intervals.lcdb", "pentagon.lcdb",
                           "triangle.lcdb", "wedge.lcdb"}) {
    auto db =
        LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) + "/" + name);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    std::shared_ptr<RegionExtension> ext = MakeArrangementExtension(*db);
    const std::vector<std::string> texts = {
        RegionConnQueryText(),
        RegionConnTcQueryText(false),
        RegionConnTcQueryText(true),
        ConnQueryText(db->arity()),
        RiverPollutionQueryText(),
        "exists R R' . [rbit x : x > 0](R, R')",
    };
    for (const std::string& text : texts) {
      auto query = ParseQuery(text, db->relation_name());
      if (!query.ok()) continue;
      auto info = TypeCheck(**query, *db);
      if (!info.ok()) continue;  // e.g. arity-mismatched canned query
      corpus->push_back({std::string(name) + " :: " + text, text, ext});
    }
  }
  ASSERT_FALSE(corpus->empty());
}

CompiledPlan CompileEntry(const CorpusEntry& entry) {
  auto query = ParseQuery(entry.text, entry.ext->database().relation_name());
  EXPECT_TRUE(query.ok()) << entry.label;
  auto info = TypeCheck(**query, entry.ext->database());
  EXPECT_TRUE(info.ok()) << entry.label;
  CompiledPlan plan = BuildPlan(**query, *info, *entry.ext);
  PlanPassStats pass_stats;
  OptimizePlan(&plan, &pass_stats);
  return plan;
}

bool MessageMatches(const std::string& message,
                    const std::vector<std::string>& expected) {
  for (const std::string& want : expected) {
    if (message.find(want) != std::string::npos) return true;
  }
  return false;
}

/// Fisher-Yates shuffle, then keep the first kSitesPerOperator sites.
template <typename T>
std::vector<T> Sample(std::vector<T> sites, std::mt19937_64& rng) {
  for (size_t i = sites.size(); i > 1; --i) {
    std::uniform_int_distribution<size_t> pick(0, i - 1);
    std::swap(sites[i - 1], sites[pick(rng)]);
  }
  if (sites.size() > kSitesPerOperator) sites.resize(kSitesPerOperator);
  return sites;
}

// ---------------------------------------------------------------------------
// Bytecode mutation operators. Each edits one VmInstr in place; the caller
// snapshots and restores it around the verification run.

struct CodeSite {
  size_t proc = 0;
  size_t pc = 0;
};

struct BytecodeMutation {
  const char* name;
  std::function<bool(const BytecodeProgram&, const VmProc&, size_t pc,
                     const VmInstr&)>
      eligible;
  std::function<void(const BytecodeProgram&, const VmProc&, VmInstr&)> apply;
  /// Any one of these substrings in the rejection message kills the mutant.
  std::vector<std::string> expected;
};

bool WritesSReg(VmOp op) {
  switch (op) {
    case VmOp::kEnterSym:
    case VmOp::kLeaveSym:
    case VmOp::kConstFormula:
    case VmOp::kInRegion:
    case VmOp::kLiftBool:
    case VmOp::kNegSym:
    case VmOp::kAndSym:
    case VmOp::kOrSym:
    case VmOp::kIffSym:
    case VmOp::kLoadTrueSym:
    case VmOp::kLoadFalseSym:
    case VmOp::kHullFinish:
    case VmOp::kQeExists:
    case VmOp::kQeForall:
    case VmOp::kCallSym:
      return true;
    default:
      return false;
  }
}

bool WritesBReg(VmOp op) {
  switch (op) {
    case VmOp::kEnterBool:
    case VmOp::kLeaveBool:
    case VmOp::kLoadBool:
    case VmOp::kNotBool:
    case VmOp::kEqBool:
    case VmOp::kRegionAtom:
    case VmOp::kSetMember:
    case VmOp::kFixpointMember:
    case VmOp::kClosureMember:
    case VmOp::kRbitFinish:
    case VmOp::kNonEmpty:
    case VmOp::kCallBool:
      return true;
    default:
      return false;
  }
}

bool IsJump(VmOp op) {
  switch (op) {
    case VmOp::kJmp:
    case VmOp::kJmpIfSymFalse:
    case VmOp::kJmpIfSymTrue:
    case VmOp::kJmpIfFalseBool:
    case VmOp::kJmpIfTrueBool:
      return true;
    default:
      return false;
  }
}

bool IsCheckpointSource(VmOp op) {
  switch (op) {
    case VmOp::kEnterSym:
    case VmOp::kEnterBool:
    case VmOp::kFixpointMember:
    case VmOp::kClosureMember:
    case VmOp::kCallSym:
    case VmOp::kCallBool:
      return true;
    default:
      return false;
  }
}

std::vector<BytecodeMutation> BytecodeMutations() {
  std::vector<BytecodeMutation> ops;
  // Flip a destination register index out of the register file (the
  // "flip register indices" class of the acceptance experiment).
  ops.push_back(
      {"sreg-out-of-range",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return WritesSReg(in.op);
       },
       [](const BytecodeProgram&, const VmProc& proc, VmInstr& in) {
         in.a = proc.num_sregs + 17;
       },
       {"s-register out of range"}});
  ops.push_back(
      {"breg-out-of-range",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return WritesBReg(in.op);
       },
       [](const BytecodeProgram&, const VmProc& proc, VmInstr& in) {
         in.a = proc.num_bregs + 17;
       },
       {"b-register out of range"}});
  ops.push_back(
      {"ireg-out-of-range",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return in.op == VmOp::kLoadImm || in.op == VmOp::kLoopHead;
       },
       [](const BytecodeProgram&, const VmProc& proc, VmInstr& in) {
         in.a = proc.num_iregs + 3;
       },
       {"i-register out of range"}});
  // Aim a jump outside the proc.
  ops.push_back(
      {"jump-out-of-range",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return IsJump(in.op);
       },
       [](const BytecodeProgram&, const VmProc& proc, VmInstr& in) {
         in.b = static_cast<uint32_t>(proc.code.size()) + 9;
       },
       {"jump target out of range"}});
  // Turn a forward jump backward: only loop.next may jump backward.
  ops.push_back(
      {"jump-backward",
       [](const BytecodeProgram&, const VmProc&, size_t pc,
          const VmInstr& in) { return IsJump(in.op) && pc > 0; },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) { in.b = 0; },
       {"backward jump is not a loop back-edge"}});
  // Drop a Leave: replace it with an in-place rewrite of its (defined)
  // result register, so the matching Enter's bracket never closes on any
  // path.
  ops.push_back(
      {"drop-leave",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return in.op == VmOp::kLeaveSym || in.op == VmOp::kLeaveBool;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) {
         in.op = in.op == VmOp::kLeaveSym ? VmOp::kNegSym : VmOp::kNotBool;
       },
       {"bracket"}});
  // Retype an Enter: its Leave no longer matches the open bracket, the
  // destination lands outside the b-register file, or the memo-hit edge
  // defines the wrong register file and a downstream read of the s-value
  // (or the proc's result register) is flagged undefined.
  ops.push_back(
      {"retype-enter",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return in.op == VmOp::kEnterSym;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) {
         in.op = VmOp::kEnterBool;
       },
       {"bracket", "register out of range", "undefined"}});
  // Corrupt side-table indices. (Region and set slots are not bytecode
  // operands: the plan mutations below corrupt them where they live.)
  ops.push_back(
      {"site-id-out-of-range",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return in.op == VmOp::kFixpointMember ||
                in.op == VmOp::kClosureMember;
       },
       [](const BytecodeProgram& program, const VmProc&, VmInstr& in) {
         in.imm = static_cast<uint32_t>(in.op == VmOp::kFixpointMember
                                            ? program.fixpoint_sites.size()
                                            : program.closure_sites.size()) +
                  1;
       },
       {"site id out of range"}});
  ops.push_back(
      {"proc-id-out-of-range",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return in.op == VmOp::kCallSym || in.op == VmOp::kCallBool;
       },
       [](const BytecodeProgram& program, const VmProc&, VmInstr& in) {
         in.imm = static_cast<uint32_t>(program.procs.size()) + 1;
       },
       {"proc id out of range"}});
  // Retype a call: the callee's mode no longer matches (or the destination
  // register lands outside the other register file).
  ops.push_back(
      {"retype-call",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return in.op == VmOp::kCallSym || in.op == VmOp::kCallBool;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) {
         in.op = in.op == VmOp::kCallSym ? VmOp::kCallBool : VmOp::kCallSym;
       },
       {"mode confusion", "register out of range"}});
  // Retarget a loop back-edge off its loop.head.
  ops.push_back(
      {"retarget-back-edge",
       [](const BytecodeProgram&, const VmProc&, size_t pc,
          const VmInstr& in) {
         return in.op == VmOp::kLoopNext && in.b < pc;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) { in.b += 1; },
       {"loop back-edge", "jump target out of range"}});
  // Flip the back-edge counter register off the head's counter.
  ops.push_back(
      {"back-edge-counter-flip",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return in.op == VmOp::kLoopNext;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) { in.a += 1; },
       {"loop back-edge counter mismatch", "i-register out of range"}});
  // Strip the governor stride from a loop whose body has no other
  // checkpoint source (the "strip strides" class): the cycle becomes
  // governor-invisible and the verifier must prove that. The eligible site
  // is the back-edge; the *head* it targets is the instruction mutated
  // (see mutate_pc in MutateBytecode).
  ops.push_back(
      {"strip-stride",
       [](const BytecodeProgram&, const VmProc& proc, size_t pc,
          const VmInstr& in) {
         if (in.op != VmOp::kLoopNext || in.b >= pc) return false;
         const VmInstr& head = proc.code[in.b];
         if (head.op != VmOp::kLoopHead || head.imm == 0) return false;
         for (size_t body = in.b + 1; body < pc; ++body) {
           if (IsCheckpointSource(proc.code[body].op)) return false;
         }
         return true;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) { in.imm = 0; },
       {"loop without a governor checkpoint"}});
  // Swap the terminator class: ret only in callee procs, halt only in the
  // entry proc.
  ops.push_back(
      {"ret-in-entry",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return in.op == VmOp::kHalt;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) {
         in.op = VmOp::kRet;
       },
       {"ret in the entry proc"}});
  ops.push_back(
      {"halt-in-callee",
       [](const BytecodeProgram&, const VmProc&, size_t, const VmInstr& in) {
         return in.op == VmOp::kRet;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) {
         in.op = VmOp::kHalt;
       },
       {"halt outside the entry proc"}});
  // Make the terminator fall through: control falls off the end.
  ops.push_back(
      {"fall-off-end",
       [](const BytecodeProgram&, const VmProc& proc, size_t pc,
          const VmInstr& in) {
         return pc + 1 == proc.code.size() &&
                (in.op == VmOp::kRet || in.op == VmOp::kHalt);
       },
       [](const BytecodeProgram&, const VmProc& proc, VmInstr& in) {
         in = VmInstr{};
         in.op = proc.symbolic ? VmOp::kLoadTrueSym : VmOp::kLoadBool;
       },
       {"control falls off the end"}});
  // Replace the entry instruction with a read: nothing is defined at proc
  // entry, so the typestate dataflow must flag the use (the
  // defined-before-use / "retype registers" class).
  ops.push_back(
      {"undefined-sread-at-entry",
       [](const BytecodeProgram&, const VmProc& proc, size_t pc,
          const VmInstr& in) {
         return pc == 0 && proc.num_sregs > 0 && in.op != VmOp::kLoopHead;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) {
         in = VmInstr{};
         in.op = VmOp::kNegSym;  // reads s0, which is undefined at entry
         in.a = 0;
       },
       {"read of undefined s-register", "control falls off the end"}});
  ops.push_back(
      {"undefined-bread-at-entry",
       [](const BytecodeProgram&, const VmProc& proc, size_t pc,
          const VmInstr& in) {
         return pc == 0 && proc.num_bregs > 0 && in.op != VmOp::kLoopHead;
       },
       [](const BytecodeProgram&, const VmProc&, VmInstr& in) {
         in = VmInstr{};
         in.op = VmOp::kNotBool;  // reads b0, which is undefined at entry
         in.a = 0;
       },
       {"read of undefined b-register", "control falls off the end"}});
  return ops;
}

/// Runs every bytecode mutation operator against one program. Returns the
/// number of mutants generated; EXPECTs that each one is killed with the
/// right sub-reason and that the restored program verifies cleanly.
size_t MutateBytecode(BytecodeProgram& program, const std::string& label,
                      std::mt19937_64& rng) {
  size_t mutants = 0;
  for (const BytecodeMutation& mutation : BytecodeMutations()) {
    std::vector<CodeSite> sites;
    for (size_t p = 0; p < program.procs.size(); ++p) {
      const VmProc& proc = program.procs[p];
      for (size_t pc = 0; pc < proc.code.size(); ++pc) {
        if (mutation.eligible(program, proc, pc, proc.code[pc])) {
          sites.push_back({p, pc});
        }
      }
    }
    for (const CodeSite& site : Sample(std::move(sites), rng)) {
      VmProc& proc = program.procs[site.proc];
      const size_t mutate_pc =
          std::string_view(mutation.name) == "strip-stride"
              ? proc.code[site.pc].b
              : site.pc;
      const VmInstr snapshot = proc.code[mutate_pc];
      mutation.apply(program, proc, proc.code[mutate_pc]);
      BytecodeVerifyResult verdict = VerifyBytecode(program);
      EXPECT_FALSE(verdict.status.ok())
          << label << ": mutant survived operator " << mutation.name
          << " at proc " << site.proc << " pc " << site.pc;
      if (!verdict.status.ok()) {
        EXPECT_TRUE(
            MessageMatches(verdict.status.message(), mutation.expected))
            << label << ": operator " << mutation.name
            << " killed with the wrong sub-reason:\n"
            << verdict.status.ToString();
      }
      proc.code[mutate_pc] = snapshot;
      ++mutants;
    }
  }
  // The restores must be exact: the unmutated program still verifies.
  EXPECT_TRUE(VerifyBytecode(program).status.ok()) << label;
  return mutants;
}

// ---------------------------------------------------------------------------
// Plan mutation operators: mutate one node field in place, verify, restore.

struct PlanMutation {
  const char* name;
  std::function<bool(const PlanNode&)> eligible;
  /// Mutates the node of `plan` and returns the undo closure.
  std::function<std::function<void()>(const CompiledPlan& plan, PlanNode&)>
      apply;
  std::vector<std::string> expected;
};

bool BindsRegion(const PlanNode& n) {
  return n.op == PlanOp::kExpandExists || n.op == PlanOp::kExpandForall ||
         n.op == PlanOp::kAnyRegion || n.op == PlanOp::kAllRegion;
}

std::vector<PlanMutation> PlanMutations() {
  std::vector<PlanMutation> ops;
  // Stale annotation: clear a nonempty free-region set (would corrupt memo
  // keys silently at runtime).
  ops.push_back({"clear-free-region",
                 [](const PlanNode& n) { return !n.free_region.empty(); },
                 [](const CompiledPlan&,
                    PlanNode& n) -> std::function<void()> {
                   auto saved = n.free_region;
                   n.free_region.clear();
                   return [&n, saved] { n.free_region = saved; };
                 },
                 {"annotation mismatch"}});
  ops.push_back({"bump-est-fanout",
                 [](const PlanNode&) { return true; },
                 [](const CompiledPlan&,
                    PlanNode& n) -> std::function<void()> {
                   const size_t saved = n.est_fanout;
                   n.est_fanout = saved + 17;
                   return [&n, saved] { n.est_fanout = saved; };
                 },
                 {"annotation mismatch"}});
  // Ill-formed cache key: cache-mark a constant.
  ops.push_back({"cache-mark-constant",
                 [](const PlanNode& n) {
                   return (n.op == PlanOp::kConstFormula ||
                           n.op == PlanOp::kConstBool) &&
                          n.cache == CachePolicy::kNone;
                 },
                 [](const CompiledPlan&,
                    PlanNode& n) -> std::function<void()> {
                   n.cache = CachePolicy::kByRegionKey;
                   return [&n] { n.cache = CachePolicy::kNone; };
                 },
                 {"cache key ill-formed"}});
  // Slots past the plan's name tables: the executors index their flat slot
  // environments with these unchecked, so VerifyPlan must catch them.
  ops.push_back({"region-binder-out-of-range", BindsRegion,
                 [](const CompiledPlan& plan,
                    PlanNode& n) -> std::function<void()> {
                   const uint32_t saved = n.region_var;
                   n.region_var =
                       static_cast<uint32_t>(plan.region_names.size()) + 2;
                   return [&n, saved] { n.region_var = saved; };
                 },
                 {"region slot out of range"}});
  ops.push_back({"region-arg-out-of-range",
                 [](const PlanNode& n) { return !n.region_args.empty(); },
                 [](const CompiledPlan& plan,
                    PlanNode& n) -> std::function<void()> {
                   const uint32_t saved = n.region_args[0];
                   n.region_args[0] =
                       static_cast<uint32_t>(plan.region_names.size()) + 2;
                   return [&n, saved] { n.region_args[0] = saved; };
                 },
                 {"region slot out of range"}});
  ops.push_back({"set-slot-out-of-range",
                 [](const PlanNode& n) {
                   return n.op == PlanOp::kSetMember ||
                          n.op == PlanOp::kFixpointMember;
                 },
                 [](const CompiledPlan& plan,
                    PlanNode& n) -> std::function<void()> {
                   const uint32_t saved = n.set_var;
                   n.set_var = static_cast<uint32_t>(plan.set_names.size()) + 2;
                   return [&n, saved] { n.set_var = saved; };
                 },
                 {"set slot out of range"}});
  // Mode confusion: swap a symbolic connective for its boolean twin, so
  // its (symbolic) children no longer match the operator's mode.
  ops.push_back({"retype-connective",
                 [](const PlanNode& n) {
                   return n.op == PlanOp::kAndSym || n.op == PlanOp::kOrSym;
                 },
                 [](const CompiledPlan&,
                    PlanNode& n) -> std::function<void()> {
                   const PlanOp saved = n.op;
                   n.op = saved == PlanOp::kAndSym ? PlanOp::kAndBool
                                                   : PlanOp::kOrBool;
                   return [&n, saved] { n.op = saved; };
                 },
                 {"mode confusion"}});
  return ops;
}

/// Preorder over the plan DAG, each distinct node once.
void CollectNodes(PlanNode* node, std::unordered_set<PlanNode*>* seen,
                  std::vector<PlanNode*>* out) {
  if (node == nullptr || !seen->insert(node).second) return;
  out->push_back(node);
  for (const PlanPtr& child : node->children) {
    CollectNodes(child.get(), seen, out);
  }
}

size_t MutatePlan(CompiledPlan& plan, const std::string& label,
                  std::mt19937_64& rng) {
  std::vector<PlanNode*> nodes;
  std::unordered_set<PlanNode*> seen;
  CollectNodes(plan.root.get(), &seen, &nodes);
  size_t mutants = 0;
  for (const PlanMutation& mutation : PlanMutations()) {
    std::vector<PlanNode*> sites;
    for (PlanNode* node : nodes) {
      if (mutation.eligible(*node)) sites.push_back(node);
    }
    for (PlanNode* node : Sample(std::move(sites), rng)) {
      std::function<void()> undo = mutation.apply(plan, *node);
      Status verdict = VerifyPlan(plan, "mutation");
      EXPECT_FALSE(verdict.ok())
          << label << ": plan mutant survived operator " << mutation.name
          << " on " << PlanOpName(node->op);
      if (!verdict.ok()) {
        EXPECT_TRUE(MessageMatches(verdict.message(), mutation.expected))
            << label << ": plan operator " << mutation.name
            << " killed with the wrong sub-reason:\n"
            << verdict.ToString();
      }
      undo();
      ++mutants;
    }
  }
  EXPECT_TRUE(VerifyPlan(plan, "mutation").ok()) << label;
  return mutants;
}

// ---------------------------------------------------------------------------

TEST(VerifyMutationTest, CorpusHasNoFalsePositivesOnEitherBackend) {
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  std::vector<CorpusEntry> corpus;
  BuildCorpus(&corpus);
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE(entry.label);
    // Static acceptance.
    CompiledPlan plan = CompileEntry(entry);
    EXPECT_TRUE(VerifyPlan(plan, "corpus").ok());
    BytecodeProgram program = CompileToBytecode(plan);
    BytecodeVerifyResult verdict = VerifyBytecode(program);
    EXPECT_TRUE(verdict.status.ok()) << verdict.status.ToString();
    // End-to-end acceptance with the verifier gates armed, tree vs VM.
    Evaluator::Options options;
    auto tree = EvaluateQueryText(*entry.ext, entry.text, options);
    options.use_bytecode = true;
    auto vm = EvaluateQueryText(*entry.ext, entry.text, options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_TRUE(vm.ok()) << vm.status().ToString();
    EXPECT_EQ(tree->ToString(), vm->ToString());
  }
}

TEST(VerifyMutationTest, SeededMutantsAllKilled) {
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  std::mt19937_64 rng(RunSeed());
  std::vector<CorpusEntry> corpus;
  BuildCorpus(&corpus);
  size_t total = 0;
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE(entry.label);
    CompiledPlan plan = CompileEntry(entry);
    total += MutatePlan(plan, entry.label, rng);
    BytecodeProgram program = CompileToBytecode(plan);
    ASSERT_TRUE(VerifyBytecode(program).status.ok()) << entry.label;
    total += MutateBytecode(program, entry.label, rng);
  }
  std::cerr << "[verify_mutation] mutants=" << total << "\n";
  EXPECT_GE(total, 300u);
}

}  // namespace
}  // namespace lcdb
