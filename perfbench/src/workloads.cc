#include "perfbench/src/workloads.h"

#include <utility>

#include "core/queries.h"
#include "db/geometric_baselines.h"
#include "db/io.h"
#include "db/workloads.h"
#include "engine/kernel.h"

namespace lcdb::perfbench {

namespace {

// The canned corpus's element-level queries and its fixed sentences.
constexpr char kUnboundedQuery[] = "exists R . (subset(R) & !(bounded(R)))";
constexpr char kAdjOrEqQuery[] =
    "forall R . (subset(R) -> exists R' . (adj(R, R') | R = R'))";
constexpr char kRbitQuery[] = "exists R R' . [rbit x : x > 0](R, R')";
constexpr char kInRegion1[] = "exists R . (subset(R) & in(x; R))";
constexpr char kHull1[] = "forall y . ([hull u : S(u)](y) -> y = y)";
constexpr char kProject1[] = "exists y . (S(y) & y >= 0)";
constexpr char kInRegion2[] = "exists R . (subset(R) & in(x, y; R))";
constexpr char kProject2[] = "exists x . S(x, y)";
constexpr char kCover2[] =
    "forall x y . (S(x, y) -> exists R . (in(x, y; R) & subset(R)))";

/// Hand-written facts about each data/*.lcdb file, read off the file's
/// formula (see the comments in the files themselves).
struct DataFileFacts {
  const char* file;
  bool connected;
  bool unbounded;
  /// Arity-2 files: the projection of S onto y, as a predicate.
  bool (*y_range)(const Rational& y);
};

const DataFileFacts kDataFiles[] = {
    // x >= 0 & y >= 0 & x + y <= 4.
    {"triangle.lcdb", true, false,
     [](const Rational& y) { return y >= Rational(0) && y <= Rational(4); }},
    // Two bars over y in [0, 2] joined by a spine over y in [2, 3].
    {"comb.lcdb", true, false,
     [](const Rational& y) { return y >= Rational(0) && y <= Rational(3); }},
    // (0, 1) | (2, 3) | {5}: three components.
    {"intervals.lcdb", false, false, nullptr},
    // Vertices (0,0), (0,2), (2,3), (3,1), (2,-1).
    {"pentagon.lcdb", true, false,
     [](const Rational& y) { return y >= Rational(-1) && y <= Rational(3); }},
    // x >= 0 & y >= 0 & x + y >= 1.
    {"wedge.lcdb", true, true,
     [](const Rational& y) { return y >= Rational(0); }},
};

ExpectationFn Truth(bool truth, std::string source) {
  return [truth, source = std::move(source)](const RegionExtension&) {
    Expectation e;
    e.truth = truth;
    e.source = source;
    return e;
  };
}

/// Region connectivity decided by union-find over the extension's
/// adjacency graph (db/geometric_baselines.h).
ExpectationFn ConnectivityBaseline() {
  return [](const RegionExtension& ext) {
    Expectation e;
    e.truth = SpatialConnectivityBaseline(ext);
    e.source = "SpatialConnectivityBaseline";
    return e;
  };
}

/// The DTC connectivity sentence decided by a direct graph computation:
/// keep the edges of sub-S adjacent regions whose source has exactly one
/// successor, then require every sub-S pair to be linked reflexively-
/// transitively (Definition 7.2).
ExpectationFn DtcConnectivityReference() {
  return [](const RegionExtension& ext) {
    const size_t n = ext.num_regions();
    std::vector<size_t> inside;
    for (size_t r = 0; r < n; ++r) {
      if (ext.RegionSubsetOfS(r)) inside.push_back(r);
    }
    std::vector<size_t> successor(n, n);  // n: no unique successor
    for (size_t u : inside) {
      size_t count = 0;
      for (size_t v : inside) {
        if (ext.Adjacent(u, v)) {
          ++count;
          successor[u] = v;
        }
      }
      if (count != 1) successor[u] = n;
    }
    bool all_linked = true;
    for (size_t from : inside) {
      std::vector<bool> reached(n, false);
      for (size_t at = from; at < n && !reached[at]; at = successor[at]) {
        reached[at] = true;
      }
      for (size_t to : inside) all_linked = all_linked && reached[to];
    }
    Expectation e;
    e.truth = all_linked;
    e.source = "unique-successor graph walk";
    return e;
  };
}

ExpectationFn Formula(std::vector<std::string> free_vars,
                      std::vector<size_t> probe_coords, PointPredicate member,
                      std::string source) {
  return [=](const RegionExtension&) {
    Expectation e;
    e.is_sentence = false;
    e.free_vars = free_vars;
    e.probe_coords = probe_coords;
    e.member = member;
    e.source = source;
    return e;
  };
}

ExpectationFn MembershipInS(const ConstraintDatabase& db) {
  std::vector<size_t> coords;
  for (size_t i = 0; i < db.arity(); ++i) coords.push_back(i);
  std::vector<std::string> vars =
      db.arity() == 1 ? std::vector<std::string>{"x"}
                      : std::vector<std::string>{"x", "y"};
  return Formula(vars, coords, [db](const Vec& p) { return db.Contains(p); },
                 "the database formula S");
}

/// The element-level queries of the canned corpus for one data file.
void AddElementQueries(Workload& w, size_t db_index,
                       const DataFileFacts& facts) {
  if (w.databases[db_index].db.arity() == 1) {
    w.queries.push_back({db_index, kHull1, Truth(true, "tautology")});
    w.queries.push_back(
        {db_index, kProject1, Truth(true, "hand-written: S has points >= 0")});
    return;
  }
  auto y_range = facts.y_range;
  w.queries.push_back(
      {db_index, kProject2,
       Formula({"y"}, {1}, [y_range](const Vec& p) { return y_range(p[0]); },
               "hand-written y-range of S")});
  w.queries.push_back(
      {db_index, kCover2, Truth(true, "regions inside S cover S")});
}

/// The whole 9-query canned corpus for one data file.
void AddCannedQueries(Workload& w, size_t db_index,
                      const DataFileFacts& facts) {
  const std::string shape = std::string("hand-written: ") + facts.file;
  w.queries.push_back(
      {db_index, RegionConnQueryText(), Truth(facts.connected, shape)});
  w.queries.push_back(
      {db_index, RegionConnTcQueryText(false), Truth(facts.connected, shape)});
  w.queries.push_back(
      {db_index, RegionConnTcQueryText(true), DtcConnectivityReference()});
  w.queries.push_back(
      {db_index, kUnboundedQuery, Truth(facts.unbounded, shape)});
  w.queries.push_back({db_index, kAdjOrEqQuery, Truth(true, "R = R holds")});
  w.queries.push_back(
      {db_index, kRbitQuery, Truth(false, "body x > 0 is no singleton")});
  const ConstraintDatabase& db = w.databases[db_index].db;
  w.queries.push_back({db_index, db.arity() == 1 ? kInRegion1 : kInRegion2,
                       MembershipInS(db)});
  AddElementQueries(w, db_index, facts);
}

Status AddDataFiles(Workload& w, const std::string& data_dir,
                    ExtensionKind kind, bool canned) {
  for (const DataFileFacts& facts : kDataFiles) {
    LCDB_ASSIGN_OR_RETURN(ConstraintDatabase db,
                          LoadDatabaseFromFile(data_dir + "/" + facts.file));
    w.databases.push_back({std::string("data/") + facts.file, std::move(db),
                           kind});
    const size_t index = w.databases.size() - 1;
    if (canned) {
      AddCannedQueries(w, index, facts);
    } else {
      AddElementQueries(w, index, facts);
    }
  }
  return Status::Ok();
}

size_t AddDatabase(Workload& w, std::string name, ConstraintDatabase db,
                   ExtensionKind kind = ExtensionKind::kArrangement) {
  w.databases.push_back({std::move(name), std::move(db), kind});
  return w.databases.size() - 1;
}

/// A seeded draw of `n` random slabs in the plane whose 2n boundary lines
/// are in general position apart from each slab's own parallel pair, i.e.
/// whose arrangement has the maximal 8n^2 - 4n + 1 faces. Degenerate draws
/// are smaller (for n = 4: 79 to 107 faces instead of 113) and their
/// connectivity query costs up to 4x less, so without this condition the
/// seed rather than the code would move the metrics.
Result<ConstraintDatabase> GeneralSlabs(size_t n, uint64_t seed) {
  ConstraintKernel kernel;  // keeps the draw's oracle work out of any round
  ScopedKernel scoped(kernel);
  for (uint64_t attempt = 0; attempt < 64; ++attempt) {
    ConstraintDatabase db =
        MakeRandomSlabs(n, 2, 5, seed + attempt * 0x9E3779B97F4A7C15ull);
    LCDB_ASSIGN_OR_RETURN(auto ext, BuildArrangementExtension(db));
    if (ext->num_regions() == 8 * n * n - 4 * n + 1) return db;
  }
  return Status::Internal("no slab draw in general position");
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const std::string& data_dir) {
  Workload w;
  w.name = name;
  if (name == "region_lfp") {
    // Zero oracle calls: all time is region-boolean evaluation inside
    // fixpoint stages.
    size_t comb4 = AddDatabase(w, "comb(4)", MakeComb(4, true));
    size_t stair = AddDatabase(w, "staircase(4)", MakeStaircase(4));
    size_t grid = AddDatabase(w, "box_grid(3)", MakeBoxGrid(3));
    size_t comb3 = AddDatabase(w, "comb(3,disconnected)", MakeComb(3, false));
    LCDB_ASSIGN_OR_RETURN(ConstraintDatabase slab_db, GeneralSlabs(4, seed));
    size_t slabs = AddDatabase(w, "slabs(4,2,5,seed)", std::move(slab_db));
    const std::string conn = RegionConnQueryText();
    w.queries = {
        {comb4, conn, Truth(true, "generator: comb connected")},
        {comb4, RegionConnTcQueryText(false),
         Truth(true, "generator: comb connected")},
        {comb4, RegionConnTcQueryText(true), DtcConnectivityReference()},
        {stair, conn, Truth(true, "generator: staircase is one corridor")},
        {grid, conn, Truth(false, "generator: box grid is disconnected")},
        {comb3, conn, Truth(false, "generator: comb disconnected")},
        {slabs, conn, ConnectivityBaseline()},
    };
    w.min_rounds = 4;
  } else if (name == "element_symbolic") {
    // Expansion, symbolic DNF, Fourier-Motzkin and kernel/LP dominate; the
    // fixpoint share is small. Thirteen queries, so the median falls inside
    // one query's samples.
    size_t comb1 = AddDatabase(w, "comb(1)", MakeComb(1, true));
    size_t river = AddDatabase(w, "river(8)",
                               MakeRiverScenario(8, {2, 5}, {1}, {6}));
    size_t clean = AddDatabase(w, "river(8, no chem2)",
                               MakeRiverScenario(8, {2, 5}, {1}, {}));
    w.queries = {
        {comb1, ConnQueryText(2), Truth(true, "generator: comb connected")},
        {river, RiverPollutionQueryText(),
         Truth(true, "generator: chem1 and chem2 both on the river")},
        {clean, RiverPollutionQueryText(),
         Truth(false, "generator: no chem2 on the river")},
    };
    LCDB_RETURN_IF_ERROR(
        AddDataFiles(w, data_dir, ExtensionKind::kArrangement, false));
    w.min_rounds = 4;
  } else if (name == "decomp_cold") {
    // Region atoms are decided lazily by LP and cached in the extension, so
    // every round starts from a fresh (cold) decomposition. The seeded
    // instance goes last, so the heap it leaves behind cannot change the
    // cost of the fixed queries.
    LCDB_RETURN_IF_ERROR(
        AddDataFiles(w, data_dir, ExtensionKind::kDecomposition, true));
    LCDB_ASSIGN_OR_RETURN(ConstraintDatabase slab_db, GeneralSlabs(3, seed));
    size_t slabs = AddDatabase(w, "slabs(3,2,5,seed)", std::move(slab_db),
                               ExtensionKind::kDecomposition);
    w.queries.push_back({slabs, RegionConnQueryText(), ConnectivityBaseline()});
    w.queries.push_back(
        {slabs, RegionConnTcQueryText(false), ConnectivityBaseline()});
    w.min_rounds = 3;
  } else if (name == "short_queries") {
    // Sub-millisecond queries: per-query fixed costs of the front end show.
    LCDB_RETURN_IF_ERROR(
        AddDataFiles(w, data_dir, ExtensionKind::kArrangement, true));
    w.min_rounds = 25;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

Result<std::unique_ptr<RegionExtension>> BuildExtension(
    const DatabaseSpec& spec) {
  return spec.kind == ExtensionKind::kArrangement
             ? BuildArrangementExtension(spec.db)
             : BuildDecompositionExtension(spec.db);
}

std::string CheckAnswer(const Expectation& expected, const QueryAnswer& answer,
                        const RegionExtension& reference) {
  if (expected.is_sentence) {
    if (!answer.free_vars.empty()) return "sentence with free variables";
    const bool truth = answer.formula.Satisfies(Vec{});
    if (truth == expected.truth) return "";
    return std::string("answered ") + (truth ? "true" : "false") + ", " +
           expected.source + " says " + (expected.truth ? "true" : "false");
  }
  if (answer.free_vars != expected.free_vars) return "free variables differ";
  for (size_t r = 0; r < reference.num_regions(); ++r) {
    const Vec witness = reference.RegionWitness(r);
    Vec point;
    for (size_t c : expected.probe_coords) point.push_back(witness[c]);
    if (answer.formula.Satisfies(point) != expected.member(point)) {
      return "answer differs from " + expected.source +
             " at the witness of region " + std::to_string(r);
    }
  }
  return "";
}

}  // namespace lcdb::perfbench
