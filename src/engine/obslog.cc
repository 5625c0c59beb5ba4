#include "engine/obslog.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <utility>

namespace lcdb {

namespace {

thread_local QueryFlightRecorder* t_current_flight_recorder = nullptr;

/// Minimal JSON string escaper, matching metrics.cc's conventions: quotes
/// and backslashes escaped, other control characters blanked (query text
/// and status messages are ASCII by construction elsewhere; newlines in
/// span trees must survive, so they escape properly).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendField(std::string& out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) out += ",";
  *first = false;
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void AppendField(std::string& out, const char* key, const std::string& value,
                 bool* first) {
  if (!*first) out += ",";
  *first = false;
  out += "\"";
  out += key;
  out += "\":\"";
  out += JsonEscape(value);
  out += "\"";
}

}  // namespace

FailureClass ClassifyFailure(const Status& status) {
  if (status.ok()) return FailureClass::kNone;
  switch (status.code()) {
    case StatusCode::kCancelled:
      return FailureClass::kCancelled;
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
      return FailureClass::kResource;
    case StatusCode::kInternal:
    case StatusCode::kUnsupported:
      return FailureClass::kFault;
    default:
      // Parse, type and argument errors: the input is wrong, not the run.
      return FailureClass::kInvalid;
  }
}

const char* FailureClassName(FailureClass c) {
  switch (c) {
    case FailureClass::kNone:
      return "none";
    case FailureClass::kInvalid:
      return "invalid";
    case FailureClass::kResource:
      return "resource";
    case FailureClass::kCancelled:
      return "cancelled";
    case FailureClass::kFault:
      return "fault";
  }
  return "unknown";
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kParseError:
      return "parse_error";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kUnsupported:
      return "unsupported";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

uint64_t ObsNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string QueryRecord::ToJson() const {
  std::string out = "{\"schema\":\"lcdb.query_record.v1\"";
  bool first = false;
  AppendField(out, "seq", sequence, &first);
  AppendField(out, "query_hash", query_hash, &first);
  AppendField(out, "backend", backend, &first);
  AppendField(out, "plan_fingerprint", plan_fingerprint, &first);
  out += ",\"phase_ns\":{";
  bool pf = true;
  AppendField(out, "typecheck", typecheck_ns, &pf);
  AppendField(out, "analyze", analyze_ns, &pf);
  AppendField(out, "plan_build", plan_build_ns, &pf);
  AppendField(out, "plan_optimize", plan_optimize_ns, &pf);
  AppendField(out, "verify", verify_ns, &pf);
  AppendField(out, "execute", execute_ns, &pf);
  AppendField(out, "total", total_ns, &pf);
  out += "},\"governor\":{";
  bool gf = true;
  AppendField(out, "checkpoints", governor_checkpoints, &gf);
  AppendField(out, "budget_trips", governor_budget_trips, &gf);
  AppendField(out, "tripped_budget", tripped_budget, &gf);
  out += "},\"cache\":{";
  bool cf = true;
  AppendField(out, "kernel_hits", kernel_cache_hits, &cf);
  AppendField(out, "kernel_misses", kernel_cache_misses, &cf);
  AppendField(out, "lemma_hits", lemma_hits, &cf);
  AppendField(out, "lemma_misses", lemma_misses, &cf);
  out += "}";
  AppendField(out, "outcome", outcome, &first);
  AppendField(out, "status", status_code, &first);
  AppendField(out, "resume_token", resume_token, &first);
  AppendField(out, "retries", retries, &first);
  AppendField(out, "resumes", resumes, &first);
  out += ",\"sampled\":";
  out += sampled ? "true" : "false";
  out += "}";
  return out;
}

QueryFlightRecorder::QueryFlightRecorder(Options options)
    : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
}

uint64_t QueryFlightRecorder::Append(QueryRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  record.sequence = ++appended_;
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(record));
  } else {
    ring_[head_] = std::move(record);
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }
  return appended_;
}

void QueryFlightRecorder::AnnotateLast(uint64_t retries, uint64_t resumes,
                                       const std::string& outcome,
                                       bool sampled) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty()) return;
  QueryRecord& last =
      ring_[(head_ + ring_.size() - 1) % ring_.size()];
  last.retries = retries;
  last.resumes = resumes;
  last.outcome = outcome;
  last.sampled = sampled;
}

size_t QueryFlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

uint64_t QueryFlightRecorder::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

uint64_t QueryFlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<QueryRecord> QueryFlightRecorder::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t take = n < ring_.size() ? n : ring_.size();
  std::vector<QueryRecord> out;
  out.reserve(take);
  for (size_t i = ring_.size() - take; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string QueryFlightRecorder::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out += ring_[(head_ + i) % ring_.size()].ToJson();
    out += "\n";
  }
  return out;
}

QueryFlightRecorder* CurrentFlightRecorderOrNull() {
  return t_current_flight_recorder;
}

ScopedFlightRecorder::ScopedFlightRecorder(QueryFlightRecorder& recorder)
    : previous_(t_current_flight_recorder) {
  t_current_flight_recorder = &recorder;
  internal::g_active_flight_recorders.fetch_add(1,
                                                std::memory_order_relaxed);
}

ScopedFlightRecorder::~ScopedFlightRecorder() {
  t_current_flight_recorder = previous_;
  internal::g_active_flight_recorders.fetch_sub(1,
                                                std::memory_order_relaxed);
}

namespace internal {
std::atomic<int> g_active_flight_recorders{0};
}  // namespace internal

std::string PostmortemBundle::ToJson() const {
  std::string out = "{\"schema\":\"lcdb.postmortem.v2\"";
  bool first = false;
  AppendField(out, "query_hash", query_hash, &first);
  AppendField(out, "query", query_text, &first);
  AppendField(out, "status", status_code, &first);
  AppendField(out, "message", status_message, &first);
  AppendField(out, "failure_class", failure_class, &first);
  AppendField(out, "resume_token", resume_token, &first);
  AppendField(out, "attempts", attempts, &first);
  AppendField(out, "retries", retries, &first);
  AppendField(out, "resumes", resumes, &first);
  AppendField(out, "trace", span_tree, &first);
  // The metrics delta is already flat JSON; splice it in verbatim.
  out += ",\"metrics\":";
  out += metrics_json.empty() ? "{}" : metrics_json;
  out += ",\"flight_tail\":[";
  for (size_t i = 0; i < flight_tail.size(); ++i) {
    if (i > 0) out += ",";
    out += flight_tail[i].ToJson();
  }
  out += "]}";
  return out;
}

PostmortemWriter::PostmortemWriter(Options options)
    : options_(std::move(options)) {
  if (options_.max_bundles == 0) options_.max_bundles = 1;
}

Result<std::string> PostmortemWriter::Write(const PostmortemBundle& bundle) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    return Status::Internal("cannot create postmortem directory '" +
                            options_.directory + "': " + ec.message());
  }
  const uint64_t slot = written_ % options_.max_bundles;
  std::string name = "postmortem-" + std::to_string(slot) + ".json";
  // Zero-pad to 4 digits so directory listings sort by slot.
  while (name.size() < std::string("postmortem-0000.json").size()) {
    name.insert(std::string("postmortem-").size(), "0");
  }
  const std::string path =
      (fs::path(options_.directory) / name).string();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open postmortem bundle '" + path + "'");
  }
  out << bundle.ToJson() << "\n";
  out.close();
  if (!out) {
    return Status::Internal("short write on postmortem bundle '" + path +
                            "'");
  }
  ++written_;
  last_path_ = path;
  return path;
}

}  // namespace lcdb
