// Workload definitions of the end-to-end benchmark: which databases each
// workload builds, which queries it streams, and the independent reference
// every answer is checked against.

#ifndef LCDB_PERFBENCH_WORKLOADS_H_
#define LCDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "db/database.h"
#include "db/region_extension.h"
#include "util/status.h"

namespace lcdb::perfbench {

enum class ExtensionKind { kArrangement, kDecomposition };

struct DatabaseSpec {
  std::string name;  // e.g. "comb(4)", "data/triangle.lcdb"
  ConstraintDatabase db;
  ExtensionKind kind = ExtensionKind::kArrangement;
};

/// Membership test of a hand-written expected answer set, over the answer's
/// free variables in column order.
using PointPredicate = std::function<bool(const Vec&)>;

/// The reference an answer is checked against. It never goes through the
/// evaluator: it is a generator's known truth, a hand-written value or
/// formula, or a graph algorithm over the region extension.
struct Expectation {
  bool is_sentence = true;
  bool truth = false;                     // sentences
  std::vector<std::string> free_vars;     // formulas: expected column names
  std::vector<size_t> probe_coords;       // formulas: witness coordinates
  PointPredicate member;                  // formulas: expected answer set
  std::string source;                     // where the reference comes from
};

/// Resolves a query's reference against a reference extension of its
/// database (built separately from every timed extension).
using ExpectationFn = std::function<Expectation(const RegionExtension&)>;

struct QuerySpec {
  size_t database = 0;  // index into Workload::databases
  std::string text;
  ExpectationFn expect;
};

struct Workload {
  std::string name;
  std::vector<DatabaseSpec> databases;
  std::vector<QuerySpec> queries;  // one round, in stream order
  /// Fewest rounds of an untraced run, fixed per workload so the tail
  /// percentile (chosen from this many samples) is the same in every run.
  /// Each value puts that percentile near the middle of one query's
  /// samples rather than between two queries of different cost.
  size_t min_rounds = 2;
};

/// Builds the named workload. `seed` drives MakeRandomSlabs; the query order
/// is fixed. `data_dir` holds the data/*.lcdb files.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const std::string& data_dir);

/// Builds the extension a database spec asks for.
Result<std::unique_ptr<RegionExtension>> BuildExtension(
    const DatabaseSpec& spec);

/// Checks an answer against its reference at the reference extension's
/// region witness points. Returns an empty string when it matches, and a
/// description of the first mismatch otherwise.
std::string CheckAnswer(const Expectation& expected, const QueryAnswer& answer,
                        const RegionExtension& reference);

}  // namespace lcdb::perfbench

#endif  // LCDB_PERFBENCH_WORKLOADS_H_
