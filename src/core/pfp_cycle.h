#ifndef LCDB_CORE_PFP_CYCLE_H_
#define LCDB_CORE_PFP_CYCLE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "constraint/canonical.h"

namespace lcdb {

/// Stable hash of a tuple-set stage (the legacy walk's representation).
inline uint64_t PfpStateHash(const std::set<std::vector<size_t>>& state) {
  std::string bytes;
  for (const auto& tuple : state) {
    for (size_t v : tuple) {
      bytes += std::to_string(v);
      bytes += ',';
    }
    bytes += ';';
  }
  return StableHash64(bytes);
}

/// PFP cycle detection shared by the legacy walk (core/fixpoint.cc, over
/// tuple sets) and the set-at-a-time engine (plan/region_relations.cc, over
/// bitset relations). `State` needs operator== and a PfpStateHash overload.
///
/// The naive scheme kept every stage's full serialization in an
/// unordered_set<string>; for a diverging PFP over a large tuple space that
/// is O(iterations × |state|) resident bytes. This detector mirrors the
/// kernel's canonical-key scheme instead: it stores one 64-bit stable hash
/// per stage, and resolves hash hits *exactly* — not by keeping the old
/// states, but by replaying the deterministic stage sequence from the empty
/// 0th stage and comparing states directly. A replay costs at most one extra
/// pass of stages; it runs only when a hash repeats, which is either the
/// real revisit that ends a diverging PFP (once per such operator) or a
/// 64-bit collision (essentially never, and counted when it happens).
template <typename State = std::set<std::vector<size_t>>>
class PfpCycleDetector {
 public:
  /// Given stage i's state, returns stage i+1's. Must be the same pure
  /// function the main loop applies (the executors guarantee this: stage
  /// evaluation depends only on the current set binding).
  using StageFn = std::function<State(const State&)>;

  /// `empty` is the 0th stage replays start from.
  explicit PfpCycleDetector(State empty = State()) : empty_(std::move(empty)) {}

  /// Returns true iff `state` — the `iteration`-th stage, 0-based — is
  /// identical to some earlier stage (PFP divergence). Records the state's
  /// hash either way.
  bool SeenBefore(const State& state, size_t iteration,
                  const StageFn& replay_stage) {
    if (hashes_.insert(PfpStateHash(state)).second) return false;  // fresh
    ++exact_replays_;
    State replayed = empty_;
    // Divergence means some stage j < iteration equals `state`; replaying
    // past that point would only re-derive `state` itself (the sequence is
    // deterministic), so a full pass without a match is a hash collision.
    for (size_t i = 0; i < iteration; ++i) {
      if (replayed == state) return true;
      replayed = replay_stage(replayed);
    }
    ++hash_collisions_;  // two distinct states shared a 64-bit hash
    return false;
  }

  /// Checkpoint support (core/resume.h): the recorded history minus the
  /// hash of `resume_state` — the interrupted loop's current approximation,
  /// whose hash the resumed loop's first SeenBefore call re-records. (The
  /// interrupt may land before or after that call within an iteration, so
  /// whether the hash is present here is not knowable at capture time;
  /// exporting without it makes the seeded detector's state canonical.)
  std::vector<uint64_t> ExportHashes(const State& resume_state) const {
    const uint64_t current = PfpStateHash(resume_state);
    std::vector<uint64_t> out;
    out.reserve(hashes_.size());
    bool dropped = false;
    for (uint64_t h : hashes_) {
      if (!dropped && h == current) {
        dropped = true;
        continue;
      }
      out.push_back(h);
    }
    return out;
  }

  /// Seeds a fresh detector with an exported history.
  void SeedHashes(const std::vector<uint64_t>& hashes) {
    hashes_.insert(hashes.begin(), hashes.end());
  }

  uint64_t exact_replays() const { return exact_replays_; }
  uint64_t hash_collisions() const { return hash_collisions_; }

 private:
  State empty_;
  std::unordered_set<uint64_t> hashes_;
  uint64_t exact_replays_ = 0;
  uint64_t hash_collisions_ = 0;
};

}  // namespace lcdb

#endif  // LCDB_CORE_PFP_CYCLE_H_
