// End-to-end benchmark program: one workload per process, a seeded closed
// loop of queries (one client; each query is sent when the previous answer
// has arrived), timed from query text to answer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir data] [--commit <id>]
//
// --trace 0 runs the stream through EvaluateQueryText with tracing off and
// reports the end-to-end metrics. --trace 1 runs the same rounds untraced,
// then replays every query layer by layer under a tracer (tree backend, then
// the bytecode VM on the same plan) and reports the per-layer metrics. Every
// round starts from freshly built extensions and a fresh constraint kernel.
// Every answer is checked against a reference that does not go through the
// evaluator. The last line of standard output is one JSON object; the exit
// code is 0 only when every check passed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "engine/kernel.h"
#include "engine/trace.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace lcdb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Extensions = std::vector<std::unique_ptr<RegionExtension>>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = "data";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Failures of one run: queries that errored or answered wrongly, and
/// broken invariants of the benchmark itself (cold state, replay identity).
struct Failures {
  size_t attempted = 0;
  size_t failed = 0;
  bool invariants_ok = true;

  void Query(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAILED query: %s\n", what.c_str());
  }
  void Invariant(const std::string& what) {
    invariants_ok = false;
    std::fprintf(stderr, "FAILED check: %s\n", what.c_str());
  }
};

/// Fresh state for one pass over a round: one constraint kernel per
/// database and the extensions built under it, so that no query's cost
/// depends on lemmas another database's queries left behind.
struct ColdState {
  std::vector<std::unique_ptr<ConstraintKernel>> kernels;
  Extensions extensions;

  /// Every kernel's counters, for comparing rounds.
  std::string Counters() const {
    std::string out;
    for (const auto& kernel : kernels) out += kernel->stats().ToString() + "\n";
    return out;
  }
};

/// Builds every extension of `w`, each under a fresh kernel of its own and
/// inside a "bench.build" span (a no-op unless a tracer is installed).
Result<ColdState> BuildCold(const Workload& w) {
  ColdState state;
  for (const DatabaseSpec& spec : w.databases) {
    state.kernels.push_back(std::make_unique<ConstraintKernel>());
    ScopedKernel scoped(*state.kernels.back());
    TraceSpan span("bench.build");
    LCDB_ASSIGN_OR_RETURN(auto ext, BuildExtension(spec));
    state.extensions.push_back(std::move(ext));
  }
  return state;
}

/// Reference extensions and expectations, built once per run on a cold state
/// of their own, so no reference work warms a timed round.
struct Reference {
  ColdState state;
  std::vector<Expectation> expected;
};

Result<Reference> BuildReference(const Workload& w) {
  Reference ref;
  LCDB_ASSIGN_OR_RETURN(ref.state, BuildCold(w));
  for (const QuerySpec& q : w.queries) {
    ScopedKernel scoped(*ref.state.kernels[q.database]);
    ref.expected.push_back(q.expect(*ref.state.extensions[q.database]));
  }
  return ref;
}

std::string Label(const Workload& w, size_t i) {
  return w.databases[w.queries[i].database].name + ": " + w.queries[i].text;
}

/// Host-speed probe. The shared host this benchmark was tuned on changes
/// speed by tens of percent within seconds, and the slowdown shows in CPU
/// time as much as in wall time, so wall time alone mostly measures the
/// neighbours. A fixed loop that shares no code with src/ is timed between
/// queries, at most every kProbeInterval, and each timed interval is scaled
/// by kReferenceMs over the median of the kNearest probes closest to it:
/// times are reported as they would read on a host where the loop takes
/// kReferenceMs. A change to src/ moves them exactly as it moves wall time.
class SpeedProbe {
 public:
  static constexpr double kReferenceMs = 1.0;
  static constexpr double kProbeInterval = 0.05;  // seconds
  /// Probes per scale: a burst that slows one probe cannot skew a sample.
  static constexpr size_t kNearest = 5;

  /// One probe: the median of three loop timings.
  void Sample() {
    double t[3] = {LoopMs(), LoopMs(), LoopMs()};
    std::sort(t, t + 3);
    probes_.push_back({Clock::now(), t[1]});
  }
  void MaybeSample() {
    if (probes_.empty() || SecondsSince(probes_.back().at) >= kProbeInterval) {
      Sample();
    }
  }
  /// Scale of the interval [start, end].
  double Scale(Clock::time_point start, Clock::time_point end) const {
    const Clock::time_point mid = start + (end - start) / 2;
    std::vector<std::pair<Clock::duration, double>> by_distance;
    for (const Probe& p : probes_) {
      by_distance.push_back({p.at > mid ? p.at - mid : mid - p.at, p.ms});
    }
    const size_t k = std::min(kNearest, by_distance.size());
    std::partial_sort(by_distance.begin(), by_distance.begin() + k,
                      by_distance.end());
    std::vector<double> nearest;
    for (size_t i = 0; i < k; ++i) nearest.push_back(by_distance[i].second);
    std::sort(nearest.begin(), nearest.end());
    const double median =
        k % 2 == 1 ? nearest[k / 2] : (nearest[k / 2 - 1] + nearest[k / 2]) / 2;
    return kReferenceMs / median;
  }
  std::vector<double> times_ms() const {
    std::vector<double> out;
    for (const Probe& p : probes_) out.push_back(p.ms);
    return out;
  }

 private:
  struct Probe {
    Clock::time_point at;
    double ms;
  };

  /// Ordered-map inserts and erases with small vector allocations: the
  /// node-based, allocation-heavy access pattern of the evaluator's own
  /// containers, so host contention slows it by the same factor. (A plain
  /// pointer-chasing loop tracked the evaluator's slowdowns far worse.)
  static double LoopMs() {
    const Clock::time_point start = Clock::now();
    std::map<uint64_t, std::vector<uint64_t>> m;
    uint64_t x = 88172645463325252ull;  // xorshift64
    for (int i = 0; i < 6000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      m[x % 4096].push_back(x);
      if (m.size() > 2000) m.erase(m.begin());
    }
    sink_ = m.size();
    return SecondsSince(start) * 1e3;
  }

  static inline volatile uint64_t sink_ = 0;
  std::vector<Probe> probes_;
};

/// One untraced round: fresh kernel, fresh extensions (timed as set-up),
/// then every query through EvaluateQueryText, timed one by one. Times are
/// kept as measured (raw) and scaled to the reference host speed.
struct Round {
  double build_s = 0;
  double raw_build_s = 0;
  std::vector<double> latency_ms;
  std::vector<double> raw_latency_ms;
  std::vector<double> probe_ms;
  std::vector<std::string> answers;
  std::string kernel_counters;
};

Round RunUntracedRound(const Workload& w, Reference& ref, Failures& f) {
  Round round;
  SpeedProbe probe;
  probe.Sample();
  const Clock::time_point build_start = Clock::now();
  Result<ColdState> cold = BuildCold(w);
  const Clock::time_point build_end = Clock::now();
  round.raw_build_s = SecondsSince(build_start);
  if (!cold.ok()) {
    f.Invariant("extension build: " + cold.status().ToString());
    return round;
  }
  std::vector<Result<QueryAnswer>> results;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
  for (const QuerySpec& q : w.queries) {
    probe.MaybeSample();
    ScopedKernel scoped(*cold->kernels[q.database]);
    const Clock::time_point start = Clock::now();
    results.push_back(EvaluateQueryText(*cold->extensions[q.database], q.text));
    intervals.push_back({start, Clock::now()});
    round.raw_latency_ms.push_back(SecondsSince(start) * 1e3);
  }
  probe.Sample();
  round.build_s = round.raw_build_s * probe.Scale(build_start, build_end);
  for (size_t i = 0; i < intervals.size(); ++i) {
    round.latency_ms.push_back(
        round.raw_latency_ms[i] *
        probe.Scale(intervals[i].first, intervals[i].second));
  }
  round.probe_ms = probe.times_ms();
  round.kernel_counters = cold->Counters();
  for (size_t i = 0; i < results.size(); ++i) {
    ++f.attempted;
    if (!results[i].ok()) {
      round.answers.push_back("<error>");
      f.Query(Label(w, i) + " -> " + results[i].status().ToString());
      continue;
    }
    round.answers.push_back(results[i]->ToString());
    const size_t db = w.queries[i].database;
    ScopedKernel scoped(*ref.state.kernels[db]);
    const std::string mismatch = CheckAnswer(
        ref.expected[i], *results[i], *ref.state.extensions[db]);
    if (!mismatch.empty()) f.Query(Label(w, i) + " -> " + mismatch);
  }
  return round;
}

/// Set-up alone, from a cold state. Returns the scaled time; `raw_s`
/// receives the wall time.
double MeasureSetup(const Workload& w, Failures& f, double* raw_s) {
  SpeedProbe probe;
  probe.Sample();
  const Clock::time_point start = Clock::now();
  Result<ColdState> cold = BuildCold(w);
  const Clock::time_point end = Clock::now();
  *raw_s = SecondsSince(start);
  for (size_t i = 1; i < SpeedProbe::kNearest; ++i) probe.Sample();
  if (!cold.ok()) f.Invariant("extension build: " + cold.status().ToString());
  return *raw_s * probe.Scale(start, end);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Peak resident set of this process image, from /proc/self/status. Unlike
/// getrusage's ru_maxrss it does not carry over the parent's peak across
/// fork and exec.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Compares a round's counters with the first round's: with a fresh kernel
/// and fresh extensions per round, every round must do the same work.
void CheckSameAsFirst(const std::string& what, const std::string& first,
                      const std::string& now, size_t round, Failures& f) {
  if (now != first) {
    f.Invariant(what + " of round " + std::to_string(round + 1) +
                " differ from round 1: " + now + " vs " + first);
  }
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// Set-up is measured at least this many times per run; the median is
/// reported because a single arrangement build varies by tens of percent.
constexpr size_t kMinSetupSamples = 9;

std::vector<Metric> RunEndToEnd(const Workload& w, Reference& ref,
                                double seconds, Failures& f) {
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  while (rounds.size() < w.min_rounds || SecondsSince(start) < seconds) {
    rounds.push_back(RunUntracedRound(w, ref, f));
    CheckSameAsFirst("kernel counters", rounds[0].kernel_counters,
                     rounds.back().kernel_counters, rounds.size() - 1, f);
    CheckSameAsFirst("answers", Join(rounds[0].answers),
                     Join(rounds.back().answers), rounds.size() - 1, f);
    if (!f.invariants_ok) return {};
  }
  std::vector<double> setup_s, raw_setup_s;
  std::vector<double> latencies, raw_latencies, probes;
  for (const Round& r : rounds) {
    setup_s.push_back(r.build_s);
    raw_setup_s.push_back(r.raw_build_s);
    latencies.insert(latencies.end(), r.latency_ms.begin(), r.latency_ms.end());
    raw_latencies.insert(raw_latencies.end(), r.raw_latency_ms.begin(),
                         r.raw_latency_ms.end());
    probes.insert(probes.end(), r.probe_ms.begin(), r.probe_ms.end());
  }
  while (setup_s.size() < kMinSetupSamples) {
    raw_setup_s.push_back(0);
    setup_s.push_back(MeasureSetup(w, f, &raw_setup_s.back()));
  }

  // The tail percentile is fixed per workload: the highest whole percentile
  // with at least 10 samples beyond it when the run holds its minimum
  // number of rounds. Every run holds at least that many samples.
  const size_t min_samples = w.min_rounds * w.queries.size();
  const double tail_p =
      std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(min_samples))) /
      100.0;
  const size_t tail_rank =
      static_cast<size_t>(std::ceil(tail_p * latencies.size()));
  std::printf("# query_tail_ms is p%.0f over %zu queries (%zu beyond it); "
              "%zu rounds, %zu set-up samples\n",
              tail_p * 100, latencies.size(), latencies.size() - tail_rank,
              rounds.size(), setup_s.size());
  std::printf("# wall clock as measured: setup %.6g s, p50 %.6g ms, tail "
              "%.6g ms; speed probe median %.4g ms (reference %.4g ms)\n",
              Median(raw_setup_s), Median(raw_latencies),
              Percentile(raw_latencies, tail_p), Median(probes),
              SpeedProbe::kReferenceMs);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    std::vector<double> of_query;
    for (const Round& r : rounds) of_query.push_back(r.latency_ms[i]);
    std::printf("# median %10.3f ms  %s\n", Median(of_query),
                Label(w, i).c_str());
  }
  double total_ms = 0;
  for (double ms : latencies) total_ms += ms;
  return {
      {"setup_s", Median(setup_s), "s"},
      {"query_p50_ms", Median(latencies), "ms"},
      {"query_tail_ms", Percentile(latencies, tail_p), "ms"},
      {"queries_per_s", latencies.size() / (total_ms / 1e3), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-layer metric names and units, in report order. Times are wall clock
/// as measured, per query (the round's total over its query count) except
/// db.build_ms, which is the round's set-up; counts are per round.
struct LayerDef {
  const char* name;
  const char* unit;
  bool per_query;
};

const LayerDef kLayers[] = {
    {"db.build_ms", "ms", false},
    {"db.regions", "count", false},
    {"core.parse_us", "us", true},
    {"core.typecheck_us", "us", true},
    {"analysis.analyze_us", "us", true},
    {"analysis.plan_verify_us", "us", true},
    {"analysis.cost_us", "us", true},
    {"analysis.bytecode_verify_us", "us", true},
    {"plan.build_us", "us", true},
    {"plan.optimize_us", "us", true},
    {"plan.nodes", "count", false},
    {"plan.nodes_optimized", "count", false},
    {"plan.lower_us", "us", true},
    {"plan.bytecode_instructions", "count", false},
    {"plan.execute_ms", "ms", true},
    {"plan.fixpoint_stages", "count", false},
    {"plan.fixpoint_self_ms", "ms", true},
    {"plan.closure_self_ms", "ms", true},
    {"plan.bool_evals", "count", false},
    {"plan.node_evals", "count", false},
    {"plan.memo_hit_ratio", "ratio", false},
    {"plan.region_expansions", "count", false},
    {"plan.expand_self_ms", "ms", true},
    {"plan.execute_vm_ms", "ms", true},
    {"plan.vm_speedup", "ratio", false},
    {"qe.eliminations", "count", false},
    {"qe.self_ms", "ms", true},
    {"qe.disjuncts_in", "count", false},
    {"qe.disjuncts_out", "count", false},
    {"engine.oracle_calls", "count", false},
    {"engine.feasibility_queries", "count", false},
    {"engine.implication_queries", "count", false},
    {"engine.cache_hit_ratio", "ratio", false},
    {"engine.lemma_hit_ratio", "ratio", false},
    {"lp.simplex_calls", "count", false},
    {"lp.pivots", "count", false},
    {"lp.solve_self_ms", "ms", true},
    {"trace.overhead_ratio", "ratio", false},
    {"trace.spans_dropped", "count", false},
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> RunPerLayer(const Workload& w, Reference& ref,
                                double seconds, Failures& f) {
  std::map<std::string, std::vector<double>> per_round;
  std::string first_tree_counters;
  const Clock::time_point start = Clock::now();
  for (size_t round = 0; round < 2 || SecondsSince(start) < seconds; ++round) {
    // (a) The untraced stream, for the overhead base and the answers the
    // replays must reproduce byte for byte.
    Round untraced = RunUntracedRound(w, ref, f);
    if (!f.invariants_ok) return {};
    double untraced_ms = 0;
    for (double ms : untraced.raw_latency_ms) untraced_ms += ms;

    // (b) Tree replay from a cold state; the builds are traced too.
    Tally tally;
    std::vector<std::string> tree_answers;
    {
      QueryTracer::Options tracer_options;
      tracer_options.capacity = kTracerCapacity;
      QueryTracer build_tracer(tracer_options);
      Result<ColdState> cold = [&] {
        ScopedTracer scoped_tracer(build_tracer);
        return BuildCold(w);
      }();
      if (!cold.ok()) {
        f.Invariant("extension build: " + cold.status().ToString());
        return {};
      }
      tally["db.build_ms"] =
          Summarize(build_tracer)["bench.build"].inclusive_us / 1e3;
      tally["trace.spans_dropped"] += build_tracer.spans_dropped();
      for (const auto& ext : cold->extensions) {
        tally["db.regions"] += ext->num_regions();
      }
      for (size_t i = 0; i < w.queries.size(); ++i) {
        const QuerySpec& q = w.queries[i];
        ScopedKernel scoped(*cold->kernels[q.database]);
        ReplayResult r =
            ReplayTree(*cold->extensions[q.database], q.text, tally);
        ++f.attempted;
        tree_answers.push_back(r.answer);
        if (!r.status.ok()) {
          f.Query(Label(w, i) + " (tree replay) -> " + r.status.ToString());
        } else if (r.answer != untraced.answers[i]) {
          f.Query(Label(w, i) + " -> tree replay answer differs from "
                                "EvaluateQueryText's");
        }
      }
      if (round == 0) first_tree_counters = cold->Counters();
      CheckSameAsFirst("traced kernel counters", first_tree_counters,
                       cold->Counters(), round, f);
    }

    // (c) VM replay of the same plans, again from a cold state.
    {
      Result<ColdState> cold = BuildCold(w);
      if (!cold.ok()) {
        f.Invariant("extension build: " + cold.status().ToString());
        return {};
      }
      for (size_t i = 0; i < w.queries.size(); ++i) {
        const QuerySpec& q = w.queries[i];
        ScopedKernel scoped(*cold->kernels[q.database]);
        ReplayResult r =
            ReplayVm(*cold->extensions[q.database], q.text, tally);
        ++f.attempted;
        if (!r.status.ok()) {
          f.Query(Label(w, i) + " (VM replay) -> " + r.status.ToString());
        } else if (r.answer != tree_answers[i]) {
          f.Query(Label(w, i) + " -> VM answer differs from the tree's");
        }
      }
    }

    const double queries = static_cast<double>(w.queries.size());
    for (const LayerDef& def : kLayers) {
      per_round[def.name].push_back(def.per_query ? tally[def.name] / queries
                                                  : tally[def.name]);
    }
    per_round["plan.memo_hit_ratio"].back() =
        Ratio(tally["plan.memo_hits"],
              tally["plan.node_evals"] + tally["plan.bool_evals"]);
    per_round["plan.vm_speedup"].back() =
        Ratio(tally["plan.execute_ms"], tally["plan.execute_vm_ms"]);
    per_round["engine.cache_hit_ratio"].back() =
        Ratio(tally["engine.cache_hits"], tally["engine.cache_lookups"]);
    per_round["engine.lemma_hit_ratio"].back() =
        Ratio(tally["engine.lemma_hits"], tally["engine.lemma_lookups"]);
    per_round["trace.overhead_ratio"].back() =
        Ratio(tally["query_us"] / 1e3, untraced_ms);
  }
  for (const LayerDef& def : kLayers) {
    if (std::string(def.unit) != "count") continue;
    const std::vector<double>& v = per_round[def.name];
    if (std::any_of(v.begin(), v.end(), [&](double x) { return x != v[0]; })) {
      f.Invariant(std::string(def.name) + " differs between rounds");
    }
  }
  if (per_round["trace.spans_dropped"][0] != 0) {
    f.Invariant("the tracer dropped spans");
  }
  std::printf("# per-layer metrics are medians over %zu traced rounds\n",
              per_round["db.regions"].size());
  std::vector<Metric> out;
  for (const LayerDef& def : kLayers) {
    out.push_back({def.name, Median(per_round[def.name]), def.unit});
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--data-dir <dir>] [--commit <id>]\n");
    return 2;
  }
  Result<Workload> workload = MakeWorkload(args.workload, args.seed,
                                           args.data_dir);
  if (!workload.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *workload;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "build_type=%s nproc=%u commit=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), args.commit.c_str());
  Result<Reference> ref = BuildReference(w);
  if (!ref.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", ref.status().ToString().c_str());
    return 2;
  }
  Failures f;
  const std::vector<Metric> metrics =
      args.trace ? RunPerLayer(w, *ref, args.seconds, f)
                 : RunEndToEnd(w, *ref, args.seconds, f);
  const bool correct = f.invariants_ok && f.failed == 0 && !metrics.empty();
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(f.attempted) +
                     ", \"failed\": " + std::to_string(f.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("metric %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("# failed_ratio %.6g (%zu of %zu queries)\n",
              f.attempted ? static_cast<double>(f.failed) / f.attempted : 0.0,
              f.failed, f.attempted);
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lcdb::perfbench

int main(int argc, char** argv) { return lcdb::perfbench::Main(argc, argv); }
