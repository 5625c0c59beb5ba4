// Seeded chaos harness (the robustness tentpole's sweep): randomized fault
// injection over every failpoint site, the data/ seed databases and the
// canned query corpus. Each round arms one site with a seeded probability
// window (random skip count) and a random failure code, runs a query, and
// asserts the three resilience contracts:
//
//   1. clean Statuses — an injected fault surfaces as exactly the injected
//      code/message, never a crash, abort or mangled error;
//   2. settled stats — the evaluator's telemetry exports a well-formed
//      metrics snapshot after every outcome, interrupted or not;
//   3. byte-identical post-failure reuse — the same evaluator (resuming
//      from the checkpoint token when one was issued) must then produce
//      the uninterrupted reference answer, byte for byte.
//
// The sweep is deterministic per seed. The seed comes from LCDB_CHAOS_SEED
// (decimal) and is echoed on every run, so any CI failure reproduces with
//   LCDB_CHAOS_SEED=<seed> ./chaos_test
// as EXPERIMENTS.md's chaos-telemetry section documents.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "engine/session.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace lcdb {
namespace {

#ifndef LCDB_TEST_DATA_DIR
#define LCDB_TEST_DATA_DIR "data"
#endif

constexpr uint64_t kDefaultSeed = 20260809;
constexpr int kRequiredInjections = 200;

uint64_t ChaosSeed() {
  const char* env = std::getenv("LCDB_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return kDefaultSeed;
}

void EchoSeed(uint64_t seed) {
  std::printf("[chaos] seed=%" PRIu64
              " (set LCDB_CHAOS_SEED=%" PRIu64 " to reproduce)\n",
              seed, seed);
  std::fflush(stdout);
}

/// The sites failpoint.h names, spanning every layer from the kernel's
/// decision entry to the plan-executor root. arrangement.split fires during
/// extension *construction*, so it gets its own round shape below.
const char* const kEvalSites[] = {"kernel.decide", "qe.project",
                                  "fixpoint.stage", "closure.build",
                                  "plan.execute"};
const StatusCode kCodes[] = {StatusCode::kResourceExhausted,
                             StatusCode::kDeadlineExceeded,
                             StatusCode::kInternal};

struct ChaosCase {
  ChaosCase(std::string name, std::string text, ConstraintDatabase database)
      : db_name(std::move(name)),
        query_text(std::move(text)),
        db(std::move(database)) {}

  std::string db_name;
  std::string query_text;
  ConstraintDatabase db;
  std::unique_ptr<RegionExtension> ext;
  FormulaPtr query;
  std::string reference;  ///< uninterrupted tree-walk answer
};

std::vector<std::string> CorpusQueries(size_t arity) {
  std::vector<std::string> queries = {
      RegionConnQueryText(),
      RegionConnTcQueryText(false),
      "exists R . (subset(R) & !(bounded(R)))",
  };
  if (arity == 1) {
    queries.push_back("exists R . (subset(R) & in(x; R))");
  } else if (arity == 2) {
    queries.push_back("exists R . (subset(R) & in(x, y; R))");
  }
  return queries;
}

std::vector<ChaosCase> BuildCorpus() {
  std::vector<ChaosCase> cases;
  for (const char* name : {"triangle.lcdb", "comb.lcdb", "intervals.lcdb",
                           "pentagon.lcdb", "wedge.lcdb"}) {
    auto db =
        LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) + "/" + name);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) continue;
    for (const std::string& text : CorpusQueries(db->arity())) {
      ChaosCase c(name, text, *db);
      auto built = BuildArrangementExtension(c.db);
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      if (!built.ok()) continue;
      c.ext = std::move(built).value();
      auto parsed = ParseQuery(text, c.db.relation_name());
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      if (!parsed.ok()) continue;
      c.query = std::move(parsed).value();
      Evaluator evaluator(*c.ext);
      auto answer = evaluator.Evaluate(*c.query);
      EXPECT_TRUE(answer.ok()) << answer.status().ToString();
      if (!answer.ok()) continue;
      c.reference = answer->ToString();
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailpoints(); }
};

TEST_F(ChaosTest, SeededInjectionSweep) {
  const uint64_t seed = ChaosSeed();
  EchoSeed(seed);
  std::mt19937_64 rng(seed);
  std::vector<ChaosCase> cases = BuildCorpus();
  ASSERT_FALSE(cases.empty());

  int fired = 0;
  int rounds = 0;
  const int kMaxRounds = 4000;  // backstop; the sweep converges far earlier
  while (fired < kRequiredInjections && rounds < kMaxRounds) {
    ++rounds;
    const ChaosCase& c = cases[rng() % cases.size()];
    SCOPED_TRACE("round " + std::to_string(rounds) + ": " + c.db_name +
                 " :: " + c.query_text);
    const char* site = kEvalSites[rng() % std::size(kEvalSites)];
    const StatusCode code = kCodes[rng() % std::size(kCodes)];
    const uint64_t skip = rng() % 8;
    Evaluator::Options options;
    options.use_bytecode = (rng() % 2) == 0;
    Evaluator evaluator(*c.ext, options);

    ArmFailpoint(site, code, "chaos-injected", skip);
    auto first = evaluator.Evaluate(*c.query);
    DisarmAllFailpoints();
    // Contract 2: telemetry is settled and exportable after any outcome.
    const std::string metrics = evaluator.stats().ToJson();
    ASSERT_FALSE(metrics.empty());

    if (first.ok()) {
      // The armed window was never reached (site not hit skip+1 times):
      // the answer must be the reference, untouched by the arming.
      EXPECT_EQ(first->ToString(), c.reference);
      continue;
    }
    ++fired;
    // Contract 1: the failure is exactly the injected Status.
    EXPECT_EQ(first.status().code(), code);
    EXPECT_NE(first.status().message().find("chaos-injected"),
              std::string::npos)
        << first.status().ToString();
    // Contract 3: the same evaluator, resumed from the checkpoint when the
    // failure carried one, reproduces the reference byte for byte.
    const uint64_t token = first.status().resume_token();
    if (!first.status().IsResourceFailure()) {
      EXPECT_EQ(token, 0u) << "non-resource failure carried a resume token";
    }
    auto second = evaluator.Evaluate(*c.query, token);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second->ToString(), c.reference);
  }
  std::printf("[chaos] fired=%d rounds=%d\n", fired, rounds);
  EXPECT_GE(fired, kRequiredInjections)
      << "sweep did not reach the required injection count";
}

TEST_F(ChaosTest, ExtensionBuildInjection) {
  // The arrangement.split site fires during extension construction, not
  // query evaluation: inject there, require a clean Status from the build
  // boundary, then build clean and match the reference answer.
  const uint64_t seed = ChaosSeed() ^ 0x9e3779b97f4a7c15ull;
  EchoSeed(ChaosSeed());
  std::mt19937_64 rng(seed);
  auto db = LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) +
                                 "/triangle.lcdb");
  ASSERT_TRUE(db.ok());
  Evaluator::Options options;
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const StatusCode code = kCodes[rng() % std::size(kCodes)];
    const uint64_t skip = rng() % 4;
    ArmFailpoint("arrangement.split", code, "chaos-injected", skip);
    auto built = BuildArrangementExtension(*db);
    DisarmAllFailpoints();
    if (built.ok()) continue;  // window not reached
    EXPECT_EQ(built.status().code(), code);
    EXPECT_NE(built.status().message().find("chaos-injected"),
              std::string::npos);
    // Post-failure reuse: a clean rebuild works and answers correctly.
    auto clean = BuildArrangementExtension(*db);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    auto truth = EvaluateSentenceText(**clean, RegionConnQueryText());
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  }
}

TEST_F(ChaosTest, SessionLevelSweep) {
  // The same storm through QuerySession: persistent injected faults must
  // come back as the clean final Status of the call's last attempt (with
  // orderly session telemetry), and the session must serve the reference
  // answer immediately after the fault clears. Post-mortem contract: every
  // failed call under a configured postmortem_dir leaves a readable bundle.
  const uint64_t seed = ChaosSeed() + 1;
  EchoSeed(ChaosSeed());
  std::mt19937_64 rng(seed);
  std::vector<ChaosCase> cases = BuildCorpus();
  ASSERT_FALSE(cases.empty());
  const std::string postmortem_dir =
      ::testing::TempDir() + "/lcdb_chaos_postmortems";
  std::filesystem::remove_all(postmortem_dir);
  int failures = 0;
  for (int round = 0; round < 30; ++round) {
    const ChaosCase& c = cases[rng() % cases.size()];
    SCOPED_TRACE("round " + std::to_string(round) + ": " + c.db_name +
                 " :: " + c.query_text);
    SessionOptions options;
    options.eval.use_bytecode = (rng() % 2) == 0;
    options.max_retries = rng() % 3;
    options.postmortem_dir = postmortem_dir;
    options.profile.sample_every = 2;  // exercise the profiler under chaos
    QuerySession session(*c.ext, options);
    const char* site = kEvalSites[rng() % std::size(kEvalSites)];
    const StatusCode code = kCodes[rng() % std::size(kCodes)];
    ArmFailpoint(site, code, "chaos-injected", rng() % 4);
    auto stormy = session.Evaluate(c.query_text);
    DisarmAllFailpoints();
    if (!stormy.ok()) {
      EXPECT_EQ(stormy.status().code(), code);
      ++failures;
      // The bundle is on disk, names the injected status, and carries the
      // schema marker the CI validator pins.
      EXPECT_EQ(session.postmortems_written(), 1u);
      const std::string& path = session.last_postmortem_path();
      ASSERT_FALSE(path.empty());
      std::ifstream in(path);
      ASSERT_TRUE(in.good()) << "missing bundle " << path;
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string bundle = buffer.str();
      EXPECT_NE(bundle.find("\"schema\":\"lcdb.postmortem.v2\""),
                std::string::npos);
      EXPECT_NE(bundle.find("chaos-injected"), std::string::npos);
    } else {
      EXPECT_EQ(stormy->ToString(), c.reference);
      EXPECT_EQ(session.postmortems_written(), 0u);
    }
    ASSERT_FALSE(session.Metrics().ToJson().empty());
    auto after = session.Evaluate(c.query_text);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after->ToString(), c.reference);
  }
  std::printf("[chaos] session failures with bundles: %d\n", failures);
}

}  // namespace
}  // namespace lcdb
