// Tests for the fleet-observability layer (engine/obslog.h,
// engine/profiler.h): the query flight recorder's bounded ring and JSONL
// schema, automatic appends from the Evaluator and QuerySession, the
// continuous profiler's deterministic sampling policy and tail-based trace
// retention, and post-mortem bundle serialization.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "db/region_extension.h"
#include "engine/obslog.h"
#include "engine/profiler.h"
#include "engine/session.h"
#include "engine/trace.h"
#include "util/status.h"

namespace lcdb {
namespace {

TEST(ObsLogTest, StatusCodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "parse_error");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "invalid_argument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "cancelled");
}

TEST(ObsLogTest, FailureTaxonomy) {
  EXPECT_EQ(ClassifyFailure(Status::Ok()), FailureClass::kNone);
  EXPECT_EQ(ClassifyFailure(Status::ParseError("x")), FailureClass::kInvalid);
  EXPECT_EQ(ClassifyFailure(Status::InvalidArgument("x")),
            FailureClass::kInvalid);
  EXPECT_EQ(ClassifyFailure(Status::ResourceExhausted("x")),
            FailureClass::kResource);
  EXPECT_EQ(ClassifyFailure(Status::DeadlineExceeded("x")),
            FailureClass::kResource);
  EXPECT_EQ(ClassifyFailure(Status::Cancelled("x")),
            FailureClass::kCancelled);
  EXPECT_EQ(ClassifyFailure(Status::Internal("x")), FailureClass::kFault);
  EXPECT_EQ(ClassifyFailure(Status::Unsupported("x")), FailureClass::kFault);
  EXPECT_STREQ(FailureClassName(FailureClass::kResource), "resource");
  EXPECT_STREQ(FailureClassName(FailureClass::kNone), "none");
}

TEST(ObsLogTest, RecordToJsonCarriesTheSchema) {
  QueryRecord r;
  r.sequence = 7;
  r.query_hash = 42;
  r.backend = "vm";
  r.plan_fingerprint = 99;
  r.typecheck_ns = 10;
  r.execute_ns = 20;
  r.total_ns = 35;
  r.tripped_budget = "max_tuple_space";
  r.outcome = "resource";
  r.status_code = "resource_exhausted";
  r.retries = 2;
  r.sampled = true;
  const std::string json = r.ToJson();
  EXPECT_NE(json.find("\"schema\":\"lcdb.query_record.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("\"query_hash\":42"), std::string::npos);
  EXPECT_NE(json.find("\"backend\":\"vm\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_fingerprint\":99"), std::string::npos);
  EXPECT_NE(json.find("\"phase_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"governor\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"resource\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"resource_exhausted\""),
            std::string::npos);
  EXPECT_NE(json.find("\"retries\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sampled\":true"), std::string::npos);
}

TEST(ObsLogTest, RingBoundsAndTailOrder) {
  QueryFlightRecorder recorder(QueryFlightRecorder::Options{.capacity = 4});
  for (uint64_t i = 1; i <= 10; ++i) {
    QueryRecord r;
    r.query_hash = i;
    EXPECT_EQ(recorder.Append(r), i);  // sequences are monotone past drops
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.appended(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);

  const std::vector<QueryRecord> tail = recorder.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].sequence, 9u);  // oldest first
  EXPECT_EQ(tail[1].sequence, 10u);
  // Asking past the ring clamps to what is retained.
  EXPECT_EQ(recorder.Tail(100).size(), 4u);

  // One JSONL line per retained record.
  const std::string jsonl = recorder.ToJsonl();
  size_t lines = 0;
  for (char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, 4u);
}

TEST(ObsLogTest, AnnotateLastRewritesTheNewestRecord) {
  QueryFlightRecorder recorder;
  recorder.AnnotateLast(1, 1, "fault", true);  // empty ring: no-op
  QueryRecord r;
  recorder.Append(r);
  recorder.Append(r);
  recorder.AnnotateLast(3, 2, "resource", true);
  const std::vector<QueryRecord> tail = recorder.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].retries, 0u);  // the older record is untouched
  EXPECT_EQ(tail[1].retries, 3u);
  EXPECT_EQ(tail[1].resumes, 2u);
  EXPECT_EQ(tail[1].outcome, "resource");
  EXPECT_TRUE(tail[1].sampled);
}

TEST(ObsLogTest, ScopedInstallMirrorsTheTracer) {
  EXPECT_EQ(ActiveFlightRecorderOrNull(), nullptr);
  QueryFlightRecorder recorder;
  {
    ScopedFlightRecorder scoped(recorder);
    EXPECT_EQ(ActiveFlightRecorderOrNull(), &recorder);
    {  // installs nest; the innermost wins and the outer is restored
      QueryFlightRecorder inner;
      ScopedFlightRecorder scoped_inner(inner);
      EXPECT_EQ(ActiveFlightRecorderOrNull(), &inner);
    }
    EXPECT_EQ(ActiveFlightRecorderOrNull(), &recorder);
  }
  EXPECT_EQ(ActiveFlightRecorderOrNull(), nullptr);
}

/// One-region interval database, the smallest corpus that exercises the
/// whole evaluate pipeline.
std::unique_ptr<RegionExtension> TinyExtension() {
  auto f = ParseDnf("(x > 0 & x < 1) | x = 5", {"x"});
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  ConstraintDatabase db("S", *f, {"x"});
  return MakeArrangementExtension(db);
}

TEST(ObsLogTest, EvaluatorAppendsOneRecordPerCall) {
  auto ext = TinyExtension();
  QueryFlightRecorder recorder;
  ScopedFlightRecorder scoped(recorder);

  auto parsed = ParseQuery("exists x . (S(x) & x > 2)", "S");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Evaluator evaluator(*ext);
  auto answer = evaluator.Evaluate(**parsed);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  ASSERT_EQ(recorder.appended(), 1u);
  const QueryRecord r = recorder.Tail(1)[0];
  EXPECT_EQ(r.backend, "tree");  // default Evaluator backend
  EXPECT_EQ(r.outcome, "none");
  EXPECT_EQ(r.status_code, "ok");
  EXPECT_NE(r.query_hash, 0u);
  EXPECT_NE(r.plan_fingerprint, 0u);
  EXPECT_GT(r.total_ns, 0u);
  // Phase timings sit inside the total.
  EXPECT_LE(r.typecheck_ns + r.plan_build_ns + r.plan_optimize_ns +
                r.verify_ns + r.execute_ns,
            r.total_ns);

  // A typecheck rejection still appends — outcome invalid, no plan.
  auto bad = ParseQuery("S(x, y)", "S");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  auto rejected = evaluator.Evaluate(**bad);
  ASSERT_FALSE(rejected.ok());
  ASSERT_EQ(recorder.appended(), 2u);
  const QueryRecord r2 = recorder.Tail(1)[0];
  EXPECT_EQ(r2.outcome, "invalid");
  EXPECT_EQ(r2.plan_fingerprint, 0u);
}

TEST(ObsLogTest, PhaseColumnsAreTheSpanDurations) {
  // The spans are the one clock: with a tracer installed, each phase column
  // of the record is exactly the duration the tracer recorded for its span
  // (plan_optimize is the optimize and cost spans together).
  auto ext = TinyExtension();
  auto parsed = ParseQuery("exists x . (S(x) & x > 2)", "S");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  QueryFlightRecorder recorder;
  ScopedFlightRecorder scoped_recorder(recorder);
  QueryTracer tracer;
  {
    ScopedTracer scoped_tracer(tracer);
    Evaluator evaluator(*ext);
    auto answer = evaluator.Evaluate(**parsed);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  }
  std::map<std::string, uint64_t> span_ns;
  tracer.VisitCompletedSpans([&](const std::string& name, uint64_t ns) {
    span_ns[name] += ns;
  });
  ASSERT_EQ(tracer.spans_dropped(), 0u);
  ASSERT_EQ(recorder.appended(), 1u);
  const QueryRecord r = recorder.Tail(1)[0];
  EXPECT_EQ(r.typecheck_ns, span_ns.at("typecheck"));
  EXPECT_EQ(r.analyze_ns, span_ns.at("analyze"));
  EXPECT_EQ(r.plan_build_ns, span_ns.at("plan.build"));
  EXPECT_EQ(r.plan_optimize_ns,
            span_ns.at("plan.optimize") + span_ns.at("plan.cost"));
  EXPECT_EQ(r.verify_ns, span_ns.at("plan.verify"));
  EXPECT_GT(r.verify_ns, 0u);
  EXPECT_EQ(r.execute_ns, span_ns.at("plan.execute"));
  EXPECT_LE(r.typecheck_ns + r.analyze_ns + r.plan_build_ns +
                r.plan_optimize_ns + r.verify_ns + r.execute_ns,
            r.total_ns);
}

TEST(ObsLogTest, TraceSpansDroppedIsExported) {
  auto ext = TinyExtension();
  // Even this small query begins a few dozen spans (typecheck, analyze,
  // the pass pipeline, execution, LP solves); a capacity-1 tracer must
  // drop most of them, and the evaluator must export the count.
  auto parsed = ParseQuery("exists x . (S(x) & x > 2)", "S");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  QueryTracer tracer(QueryTracer::Options{.capacity = 1});
  ScopedTracer scoped(tracer);
  Evaluator evaluator(*ext);
  auto answer = evaluator.Evaluate(**parsed);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GT(evaluator.stats().trace_spans_dropped, 0u);
  const MetricsSnapshot snap = evaluator.stats().ToMetrics();
  EXPECT_GT(snap.values.at("trace.spans_dropped"), 0u);
}

TEST(ObsLogTest, SamplingIsDeterministic) {
  // Query k (1-based) is sampled iff (k-1) % N == 0, so exactly
  // ceil(queries / N) of any prefix are sampled — no RNG.
  ContinuousProfiler::Options options;
  options.sample_every = 64;
  ContinuousProfiler profiler(options);
  uint64_t sampled = 0;
  for (int i = 0; i < 130; ++i) sampled += profiler.ShouldSample() ? 1 : 0;
  EXPECT_EQ(sampled, 3u);  // ceil(130 / 64): queries 1, 65, 129

  ContinuousProfiler off(ContinuousProfiler::Options{.sample_every = 0});
  EXPECT_FALSE(off.ShouldSample());
  ContinuousProfiler all(ContinuousProfiler::Options{.sample_every = 1});
  EXPECT_TRUE(all.ShouldSample());
  EXPECT_TRUE(all.ShouldSample());
}

TEST(ObsLogTest, ProfilerFoldsSpansAndRetainsTheTail) {
  ContinuousProfiler::Options options;
  options.sample_every = 1;
  options.keep_traces = 2;
  ContinuousProfiler profiler(options);

  QueryTracer tracer;
  tracer.EndSpan(tracer.BeginSpan("plan.execute"));
  tracer.EndSpan(tracer.BeginSpan("plan.execute"));
  tracer.EndSpan(tracer.BeginSpan("qe.project"));

  ASSERT_TRUE(profiler.ShouldSample());
  profiler.RecordQuery(1000, false, &tracer);
  const MetricsSnapshot snap = profiler.Metrics();
  EXPECT_EQ(snap.values.at("profile.queries"), 1u);
  EXPECT_EQ(snap.values.at("profile.sampled"), 1u);
  EXPECT_EQ(snap.histograms.at("profile.op.plan.execute").count, 2u);
  EXPECT_EQ(snap.histograms.at("profile.op.qe.project").count, 1u);
  EXPECT_EQ(snap.histograms.at("profile.query.total_ns").count, 1u);

  // Retention is bounded and failure-biased: overflow evicts the oldest
  // non-failed tree first, so a failed trace survives later successes.
  ASSERT_TRUE(profiler.ShouldSample());
  profiler.RecordQuery(2000, /*failed=*/true, &tracer);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(profiler.ShouldSample());
    profiler.RecordQuery(500 + i, false, &tracer);
  }
  ASSERT_LE(profiler.retained().size(), 2u);
  bool kept_failed = false;
  for (const auto& t : profiler.retained()) kept_failed |= t.failed;
  EXPECT_TRUE(kept_failed);
}

TEST(ObsLogTest, PostmortemWriterIsABoundedRing) {
  const std::string dir = ::testing::TempDir() + "/lcdb_obslog_pm";
  std::filesystem::remove_all(dir);
  PostmortemWriter writer(
      PostmortemWriter::Options{.directory = dir, .max_bundles = 2});
  PostmortemBundle b;
  b.query_hash = 1;
  b.query_text = "exists x . \"quoted\"";
  b.status_code = "internal";
  b.status_message = "boom";
  b.failure_class = "fault";
  for (int i = 0; i < 3; ++i) {
    auto path = writer.Write(b);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    EXPECT_TRUE(std::filesystem::exists(*path));
  }
  EXPECT_EQ(writer.written(), 3u);
  // Slot 3 % 2 wrapped onto slot 1: the directory never exceeds the bound.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);

  std::ifstream in(writer.last_path());
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"schema\":\"lcdb.postmortem.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos)  // escaped
      << json;
  EXPECT_EQ(json.find("\"ladder\""), std::string::npos);
}

TEST(ObsLogTest, SessionSamplesExactlyEveryNthQuery) {
  auto ext = TinyExtension();
  QueryFlightRecorder recorder;
  ScopedFlightRecorder scoped(recorder);
  SessionOptions options;
  options.profile.sample_every = 4;
  QuerySession session(*ext, options);
  for (int i = 0; i < 10; ++i) {
    auto answer = session.Evaluate("exists x . (S(x) & x > 2)");
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  }
  ASSERT_NE(session.profiler(), nullptr);
  EXPECT_EQ(session.profiler()->queries_seen(), 10u);
  EXPECT_EQ(session.profiler()->queries_sampled(), 3u);  // ceil(10 / 4)
  // The recorder's sampled flags agree with the profiler's counts.
  uint64_t flagged = 0;
  for (const QueryRecord& r : recorder.Tail(100)) flagged += r.sampled;
  EXPECT_EQ(flagged, 3u);
  // The sampled queries funded the per-op histograms.
  const MetricsSnapshot metrics = session.Metrics();
  EXPECT_EQ(metrics.values.at("profile.sampled"), 3u);
  EXPECT_GT(metrics.histograms.at("profile.op.plan.execute").count, 0u);
}

TEST(ObsLogTest, SampledQueryRecordsIntoTheCallersTracer) {
  // A sampled call must not shadow an installed tracer: the query's spans
  // land in the caller's trace, and the profiler folds only those spans,
  // not the ones the caller opened before the call.
  auto ext = TinyExtension();
  QueryTracer tracer;
  ScopedTracer scoped_tracer(tracer);
  { TraceSpan before("caller.setup"); }
  SessionOptions options;
  options.profile.sample_every = 1;
  QuerySession session(*ext, options);
  auto answer = session.Evaluate("exists x . (S(x) & x > 2)");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  std::map<std::string, uint64_t> spans;
  tracer.VisitCompletedSpans(
      [&](const std::string& name, uint64_t) { ++spans[name]; });
  EXPECT_EQ(spans["caller.setup"], 1u);
  EXPECT_EQ(spans["evaluate"], 1u);
  const MetricsSnapshot metrics = session.Metrics();
  EXPECT_EQ(metrics.histograms.at("profile.op.evaluate").count, 1u);
  EXPECT_EQ(metrics.histograms.count("profile.op.caller.setup"), 0u);
}

TEST(ObsLogTest, SessionWritesABundlePerFailedCall) {
  auto ext = TinyExtension();
  const std::string dir = ::testing::TempDir() + "/lcdb_obslog_session_pm";
  std::filesystem::remove_all(dir);
  QueryFlightRecorder recorder;
  ScopedFlightRecorder scoped(recorder);
  SessionOptions options;
  options.postmortem_dir = dir;
  options.max_retries = 0;
  QuerySession session(*ext, options);

  // A parse error never reaches the evaluator, yet still yields a bundle
  // and a (synthesized) flight-recorder record.
  auto bad = session.Evaluate("not a query (((");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(session.postmortems_written(), 1u);
  ASSERT_EQ(recorder.appended(), 1u);
  const QueryRecord r = recorder.Tail(1)[0];
  EXPECT_EQ(r.backend, "none");
  EXPECT_EQ(r.outcome, "invalid");

  std::ifstream in(session.last_postmortem_path());
  ASSERT_TRUE(in.good()) << session.last_postmortem_path();
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"schema\":\"lcdb.postmortem.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"failure_class\":\"invalid\""), std::string::npos);
  EXPECT_NE(json.find("\"flight_tail\""), std::string::npos);

  // A successful call writes nothing new.
  auto ok = session.Evaluate("exists x . (S(x) & x > 2)");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(session.postmortems_written(), 1u);
}

}  // namespace
}  // namespace lcdb
