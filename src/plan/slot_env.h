#ifndef LCDB_PLAN_SLOT_ENV_H_
#define LCDB_PLAN_SLOT_ENV_H_

#include <cstdint>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "constraint/dnf_formula.h"
#include "core/evaluator.h"
#include "plan/plan_ir.h"
#include "plan/plan_stats.h"

namespace lcdb {

class RegionRelation;

/// A set variable bound to the set-at-a-time engine's current fixpoint
/// stage; the version stamps memo keys of set-dependent nodes per stage.
struct SetBinding {
  const RegionRelation* relation = nullptr;
  size_t version = 0;
};

/// The region and set environment of one plan execution, indexed by the
/// planner's slots (CompiledPlan::region_names / set_names). The executor
/// that owns it and its region engine share one instance: the engine binds
/// the free slots of every opaque leaf it calls back for. Slots are never
/// unbound — a verified plan is closed, so every slot it reads was written
/// by an enclosing binder first.
struct SlotEnv {
  explicit SlotEnv(const CompiledPlan& plan)
      : regions(plan.region_names.size(), 0), sets(plan.set_names.size()) {}

  std::vector<size_t> regions;
  std::vector<SetBinding> sets;
};

/// The memo of cache-marked plan nodes (CachePolicy::kByRegionKey), shared
/// by the tree walk and the bytecode VM: one key layout, one probe and one
/// store with one hit accounting, so the two backends' memo hit patterns
/// agree by construction.
class PlanMemo {
 public:
  using Key = std::vector<size_t>;

  PlanMemo(const Evaluator::Options& options, Evaluator::Stats* stats)
      : memoize_(options.memoize), stats_(stats) {}

  /// EXPLAIN ANALYZE: hits are also counted per node into `profile`.
  void EnableProfiling(PlanProfile* profile) { profile_ = profile; }

  /// Whether `node`'s results are memoized. If so, `*key` becomes its key
  /// under `env`: the values of its free region slots, then the stage
  /// versions of its free set slots, both ascending (that is, name order).
  bool KeyOf(const PlanNode& node, const SlotEnv& env, Key* key) const {
    if (!memoize_ || node.cache != CachePolicy::kByRegionKey) return false;
    key->clear();
    for (uint32_t slot : node.free_region) key->push_back(env.regions[slot]);
    for (uint32_t slot : node.free_sets) {
      key->push_back(env.sets[slot].version);
    }
    return true;
  }

  /// The stored result (DnfFormula or bool) of `node` under `key`, counting
  /// the memo hit; null on a miss.
  template <typename V>
  const V* Find(const PlanNode& node, const Key& key) {
    auto& table = Table<V>();
    auto per_node = table.find(&node);
    if (per_node == table.end()) return nullptr;
    auto it = per_node->second.find(key);
    if (it == per_node->second.end()) return nullptr;
    ++stats_->memo_hits;
    if (profile_ != nullptr) ++(*profile_)[&node].memo_hits;
    return &it->second;
  }

  template <typename V>
  void Store(const PlanNode& node, Key key, V value) {
    Table<V>()[&node].emplace(std::move(key), std::move(value));
  }

 private:
  template <typename V>
  std::map<const PlanNode*, std::map<Key, V>>& Table() {
    if constexpr (std::is_same_v<V, bool>) {
      return bools_;
    } else {
      return formulas_;
    }
  }

  bool memoize_;
  Evaluator::Stats* stats_;
  PlanProfile* profile_ = nullptr;
  std::map<const PlanNode*, std::map<Key, DnfFormula>> formulas_;
  std::map<const PlanNode*, std::map<Key, bool>> bools_;
};

}  // namespace lcdb

#endif  // LCDB_PLAN_SLOT_ENV_H_
