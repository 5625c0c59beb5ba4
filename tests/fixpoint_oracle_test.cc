// Seeded oracles for the fixpoint and closure operators that share no
// evaluation layer with the engine under test, over random slab
// databases, box grids and the data/ seed databases:
//
//   * the paper's identities as metamorphic pairs — LFP ≡ IFP on a positive
//     body, TC ≡ the LFP reachability query, DTC ⇒ TC — each checked
//     pointwise as one sentence over every pair of regions;
//   * region connectivity by LFP ≡ the union-find SpatialConnectivityBaseline
//     (db/geometric_baselines.h), on the tree walk and on the bytecode VM.
//
// The random instances are deterministic per seed. The seed comes from
// LCDB_ORACLE_SEED (decimal) and is echoed on every run, so a failure
// reproduces with
//   LCDB_ORACLE_SEED=<seed> ./fixpoint_oracle_test
// LCDB_TEST_DATA_DIR is injected by CMake.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/queries.h"
#include "db/geometric_baselines.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "db/workloads.h"

namespace lcdb {
namespace {

#ifndef LCDB_TEST_DATA_DIR
#define LCDB_TEST_DATA_DIR "data"
#endif

constexpr uint64_t kDefaultSeed = 20261017;

uint64_t OracleSeed() {
  const char* env = std::getenv("LCDB_ORACLE_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultSeed;
}

void EchoSeed(uint64_t seed) {
  std::printf("[oracle] seed=%" PRIu64
              " (set LCDB_ORACLE_SEED=%" PRIu64 " to reproduce)\n",
              seed, seed);
  std::fflush(stdout);
}

struct Instance {
  std::string name;
  ConstraintDatabase db;
};

/// The data/ files, two box grids and four seeded slab databases.
std::vector<Instance> Instances(uint64_t seed) {
  std::vector<Instance> out;
  for (const char* file : {"triangle.lcdb", "comb.lcdb", "intervals.lcdb",
                           "pentagon.lcdb", "wedge.lcdb"}) {
    auto db =
        LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) + "/" + file);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (db.ok()) out.push_back({file, *db});
  }
  out.push_back({"box_grid(2)", MakeBoxGrid(2)});
  out.push_back({"box_grid(3)", MakeBoxGrid(3)});
  for (uint64_t i = 0; i < 4; ++i) {
    const size_t slabs = 2 + i % 2;
    out.push_back({"slabs(" + std::to_string(slabs) + ", seed+" +
                       std::to_string(i) + ")",
                   MakeRandomSlabs(slabs, 2, 5, seed + i)});
  }
  return out;
}

/// The reachability core of the paper's Conn query under operator `op`.
std::string Reach(const std::string& op) {
  return "[" + op +
         " M R R' : (R = R' & subset(R)) | "
         "(exists Z . (M(R, Z) & adj(Z, R') & subset(R')))]";
}

bool Truth(const RegionExtension& ext, const std::string& sentence,
           bool use_bytecode = false) {
  Evaluator::Options options;
  options.use_bytecode = use_bytecode;
  auto truth = EvaluateSentenceText(ext, sentence, options);
  EXPECT_TRUE(truth.ok()) << sentence << "\n" << truth.status().ToString();
  return truth.ok() && *truth;
}

class FixpointOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = OracleSeed();
    EchoSeed(seed_);
  }
  uint64_t seed_ = 0;
};

TEST_F(FixpointOracleTest, LfpEqualsIfpOnPositiveBodies) {
  // The body is positive in M, so the inflationary and least fixpoints
  // coincide (Section 5).
  const std::string sentence = "forall A B . (" + Reach("lfp") +
                               "(A, B) <-> " + Reach("ifp") + "(A, B))";
  for (const Instance& instance : Instances(seed_)) {
    SCOPED_TRACE(instance.name);
    auto ext = MakeArrangementExtension(instance.db);
    EXPECT_TRUE(Truth(*ext, sentence));
  }
}

TEST_F(FixpointOracleTest, TcEqualsLfpReachability) {
  // Section 7: TC over the adjacency of regions inside S is the LFP
  // reachability relation on regions inside S.
  const std::string sentence =
      "forall A B . (subset(A) & subset(B) -> "
      "([tc R ; R' : subset(R) & subset(R') & adj(R, R')](A ; B) <-> " +
      Reach("lfp") + "(A, B)))";
  for (const Instance& instance : Instances(seed_)) {
    SCOPED_TRACE(instance.name);
    auto ext = MakeArrangementExtension(instance.db);
    EXPECT_TRUE(Truth(*ext, sentence));
  }
}

TEST_F(FixpointOracleTest, DtcImpliesTc) {
  // A deterministic path is a path: DTC ⊆ TC for the same edge formula.
  const std::vector<std::string> edges = {
      "adj(R, R')",
      "subset(R) & subset(R') & adj(R, R')",
      "adj(R, R') & dim(R') = 0",
  };
  for (const Instance& instance : Instances(seed_)) {
    SCOPED_TRACE(instance.name);
    auto ext = MakeArrangementExtension(instance.db);
    for (const std::string& edge : edges) {
      SCOPED_TRACE(edge);
      EXPECT_TRUE(Truth(*ext, "forall A B . ([dtc R ; R' : " + edge +
                                  "](A ; B) -> [tc R ; R' : " + edge +
                                  "](A ; B))"));
    }
  }
}

TEST_F(FixpointOracleTest, LfpConnectivityMatchesUnionFind) {
  for (const Instance& instance : Instances(seed_)) {
    SCOPED_TRACE(instance.name);
    auto ext = MakeArrangementExtension(instance.db);
    const bool baseline = SpatialConnectivityBaseline(*ext);
    EXPECT_EQ(Truth(*ext, RegionConnQueryText()), baseline);
    EXPECT_EQ(Truth(*ext, RegionConnQueryText(), /*use_bytecode=*/true),
              baseline);
  }
}

}  // namespace
}  // namespace lcdb
