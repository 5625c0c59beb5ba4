#include "engine/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace lcdb {

namespace internal {
std::atomic<int> g_active_tracers{0};
}  // namespace internal

namespace {

thread_local QueryTracer* t_current_tracer = nullptr;

/// Minimal JSON string escaping (span names are ASCII identifiers, but the
/// exporter must never emit malformed JSON whatever the name).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

QueryTracer* CurrentTracerOrNull() { return t_current_tracer; }

ScopedTracer::ScopedTracer(QueryTracer& tracer)
    : previous_(t_current_tracer) {
  t_current_tracer = &tracer;
  internal::g_active_tracers.fetch_add(1, std::memory_order_relaxed);
}

ScopedTracer::~ScopedTracer() {
  t_current_tracer = previous_;
  internal::g_active_tracers.fetch_sub(1, std::memory_order_relaxed);
}

QueryTracer::QueryTracer(Options options) : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  epoch_ns_ = 0;
  epoch_ns_ = NowNs();
  completed_.reserve(std::min<size_t>(options_.capacity, 1u << 12));
}

QueryTracer::~QueryTracer() = default;

uint64_t QueryTracer::NowNs() const {
  return static_cast<uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) -
         epoch_ns_;
}

uint64_t QueryTracer::BeginSpan(const char* name) {
  Span span;
  span.id = ++next_id_;
  span.parent = open_.empty() ? 0 : open_.back().id;
  span.name = name;
  span.start_ns = NowNs();
  open_.push_back(std::move(span));
  return open_.back().id;
}

uint64_t QueryTracer::EndSpan(uint64_t id) {
  // Spans close LIFO; tolerate a mismatched id by unwinding to it, so an
  // exception path that skipped inner EndSpan calls (guards handle this,
  // but belt and braces) cannot corrupt the stack.
  while (!open_.empty()) {
    Span span = std::move(open_.back());
    open_.pop_back();
    const bool match = span.id == id;
    span.end_ns = NowNs();
    const uint64_t duration_ns =
        span.end_ns >= span.start_ns ? span.end_ns - span.start_ns : 0;
    if (completed_.size() < options_.capacity) {
      completed_.push_back(std::move(span));
    } else {
      // Ring overwrite of the oldest completed span.
      completed_[completed_head_] = std::move(span);
      completed_head_ = (completed_head_ + 1) % completed_.size();
      ++dropped_;
    }
    if (match) return duration_ns;
  }
  return 0;
}

void QueryTracer::Counter(const char* name, uint64_t value) {
  if (open_.empty()) return;
  auto& counters = open_.back().counters;
  for (auto& [existing, existing_value] : counters) {
    if (existing == name) {
      existing_value = value;
      return;
    }
  }
  counters.emplace_back(name, value);
}

std::string QueryTracer::ToChromeTraceJson() const {
  // Chrome trace-event format, JSON-object flavour: complete ("X") events
  // with microsecond ts/dur, one process, one thread. Loadable in Perfetto
  // and chrome://tracing as-is.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const Span& span) {
    if (!first) out += ",";
    first = false;
    const uint64_t dur_ns =
        span.end_ns >= span.start_ns ? span.end_ns - span.start_ns : 0;
    out += "{\"name\":\"" + JsonEscape(span.name) + "\"";
    out += ",\"cat\":\"lcdb\",\"ph\":\"X\"";
    out += ",\"ts\":" + std::to_string(span.start_ns / 1000) + "." +
           std::to_string((span.start_ns % 1000) / 100);
    out += ",\"dur\":" + std::to_string(dur_ns / 1000) + "." +
           std::to_string((dur_ns % 1000) / 100);
    out += ",\"pid\":1,\"tid\":1";
    out += ",\"args\":{\"id\":" + std::to_string(span.id) +
           ",\"parent\":" + std::to_string(span.parent);
    for (const auto& [name, value] : span.counters) {
      out += ",\"" + JsonEscape(name) + "\":" + std::to_string(value);
    }
    out += "}}";
  };
  // Begin order (= id order) keeps parents before children, which Perfetto
  // prefers for nesting reconstruction of same-timestamp spans.
  for (const Span* span : CompletedInBeginOrder(0)) emit(*span);
  out += "],\"displayTimeUnit\":\"ns\",\"otherData\":{";
  out += "\"spans_dropped\":" + std::to_string(dropped_) + "}}";
  return out;
}

std::vector<const QueryTracer::Span*> QueryTracer::CompletedInBeginOrder(
    uint64_t after_span) const {
  std::vector<const Span*> ordered;
  ordered.reserve(completed_.size());
  for (const Span& span : completed_) {
    if (span.id > after_span) ordered.push_back(&span);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Span* a, const Span* b) { return a->id < b->id; });
  return ordered;
}

void QueryTracer::VisitCompletedSpans(
    const std::function<void(const std::string&, uint64_t)>& visit,
    uint64_t after_span) const {
  for (const Span* span : CompletedInBeginOrder(after_span)) {
    const uint64_t dur_ns =
        span->end_ns >= span->start_ns ? span->end_ns - span->start_ns : 0;
    visit(span->name, dur_ns);
  }
}

std::string QueryTracer::ToTreeString(bool zero_timestamps,
                                      uint64_t after_span) const {
  const std::vector<const Span*> ordered = CompletedInBeginOrder(after_span);
  std::map<uint64_t, const Span*> by_id;
  for (const Span* span : ordered) by_id.emplace(span->id, span);
  // Depth through *rendered* ancestry: spans whose parents were dropped by
  // the ring bound, or begun before `after_span`, render as roots.
  auto depth_of = [&](const Span* span) {
    size_t depth = 0;
    for (uint64_t p = span->parent; p != 0;) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;
      ++depth;
      p = it->second->parent;
    }
    return depth;
  };
  std::string out;
  for (const Span* span : ordered) {
    out.append(2 * depth_of(span), ' ');
    out += span->name;
    if (!zero_timestamps) {
      const uint64_t dur_ns =
          span->end_ns >= span->start_ns ? span->end_ns - span->start_ns : 0;
      out += " (" + std::to_string(dur_ns / 1000) + "us)";
    }
    for (const auto& [name, value] : span->counters) {
      out += " " + name + "=" + std::to_string(value);
    }
    out += "\n";
  }
  return out;
}

}  // namespace lcdb
