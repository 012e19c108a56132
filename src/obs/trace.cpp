#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace ms::obs {
namespace {

using clock_t = std::chrono::steady_clock;

std::atomic<SpanId> g_next_span_id{1};

/// One open (begun, not yet ended) span on a thread.
struct OpenSpan {
  SpanId id = 0;
  SpanId parent = 0;
  bool remote_parent = false;
  bool traced = false;  ///< tracing was on at begin — record into the buffer
};

/// Per-thread event store. Owned (appended to) exclusively by its thread;
/// readers must only run while the owning threads are quiescent.
struct ThreadBuffer {
  std::vector<SpanEvent> events;
  std::vector<OpenSpan> open;  ///< innermost last
  std::int32_t tid = 0;
};

/// Registry of every thread buffer ever created. Buffers outlive their
/// threads (shared_ptr keeps them alive for late collection) and are only
/// registered once per thread, so the mutex is cold.
struct TraceRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::int32_t next_tid = 0;
};

TraceRegistry& registry() {
  // Intentionally leaked: the MS_TRACE atexit writer (and spans in other
  // static destructors) must outlive any ordinary static — a function-local
  // static would be destroyed before atexit handlers registered earlier.
  static TraceRegistry* r = new TraceRegistry();
  return *r;
}

clock_t::time_point trace_epoch() {
  static const clock_t::time_point epoch = clock_t::now();
  return epoch;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(clock_t::now() - trace_epoch()).count();
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TraceRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

std::string g_env_trace_path;  // set once by init_tracing_from_env

void write_env_trace_at_exit() {
  if (!g_env_trace_path.empty()) {
    try {
      write_chrome_trace(g_env_trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[obs] MS_TRACE export failed: %s\n", e.what());
    }
  }
}

}  // namespace

namespace detail {

std::atomic<int> g_capture_mask{0};

void set_capture_bit(int bit, bool on) {
  int mask = g_capture_mask.load(std::memory_order_relaxed);
  while (!g_capture_mask.compare_exchange_weak(
      mask, on ? (mask | bit) : (mask & ~bit), std::memory_order_relaxed)) {
  }
}

}  // namespace detail

void set_tracing_enabled(bool enabled) {
  detail::set_capture_bit(detail::kCaptureTrace, enabled);
}

bool tracing_enabled() {
  return (detail::g_capture_mask.load(std::memory_order_relaxed) & detail::kCaptureTrace) != 0;
}

double trace_now_us() { return now_us(); }

SpanId current_span_id() {
  if (!detail::span_capture_enabled()) return 0;
  const ThreadBuffer& b = local_buffer();
  return b.open.empty() ? 0 : b.open.back().id;
}

std::string init_tracing_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* value = std::getenv("MS_TRACE");
    if (value == nullptr || *value == '\0') return;
    if (std::strcmp(value, "0") == 0 || std::strcmp(value, "false") == 0 ||
        std::strcmp(value, "off") == 0) {
      return;
    }
    set_tracing_enabled(true);
    if (std::strcmp(value, "1") != 0 && std::strcmp(value, "true") != 0 &&
        std::strcmp(value, "on") != 0) {
      g_env_trace_path = value;
      std::atexit(write_env_trace_at_exit);
    }
  });
  return g_env_trace_path;
}

namespace detail {

double span_begin(SpanId remote_parent) {
  ThreadBuffer& b = local_buffer();
  OpenSpan span;
  span.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (remote_parent != 0) {
    span.parent = remote_parent;
    span.remote_parent = true;
  } else if (!b.open.empty()) {
    span.parent = b.open.back().id;
  }
  span.traced = tracing_enabled();
  b.open.push_back(span);
  return now_us();
}

void record_since(Histogram& histogram, double begin_us) {
  histogram.record(1e-6 * (now_us() - begin_us));
}

void span_end(const char* name, double begin_us) {
  ThreadBuffer& b = local_buffer();
  // Balanced by construction (ScopedSpan is LIFO per thread), but guard the
  // underflow anyway so a misuse cannot corrupt the buffer.
  if (b.open.empty()) return;
  const OpenSpan open = b.open.back();
  b.open.pop_back();
  const double end_us = now_us();
  if (open.traced) {
    SpanEvent e;
    e.name = name;
    e.begin_us = begin_us;
    e.end_us = end_us;
    e.depth = static_cast<std::int32_t>(b.open.size());
    e.tid = b.tid;
    e.id = open.id;
    e.parent = open.parent;
    e.remote_parent = open.remote_parent;
    b.events.push_back(e);
  }
  if ((g_capture_mask.load(std::memory_order_relaxed) & kCaptureFlight) != 0) {
    FlightRecorder::note_span(name, begin_us, end_us);
  }
}

}  // namespace detail

std::vector<SpanEvent> collect_events() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<SpanEvent> all;
  for (const auto& b : r.buffers) {
    all.insert(all.end(), b->events.begin(), b->events.end());
  }
  return all;
}

std::size_t span_count() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::size_t count = 0;
  for (const auto& b : r.buffers) count += b->events.size();
  return count;
}

std::size_t open_span_count() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::size_t open = 0;
  for (const auto& b : r.buffers) open += b->open.size();
  return open;
}

void clear_trace() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& b : r.buffers) b->events.clear();
}

std::string render_chrome_trace() {
  // Pause recording so the snapshot is consistent even if a stray thread is
  // still inside an instrumented call.
  const bool was_enabled = tracing_enabled();
  set_tracing_enabled(false);
  const std::vector<SpanEvent> events = collect_events();
  set_tracing_enabled(was_enabled);

  // Remote-parent edges render as flow arrows; the "s" end binds to the
  // parent slice, so index the snapshot by span id first.
  std::unordered_map<SpanId, const SpanEvent*> by_id;
  by_id.reserve(events.size());
  for (const SpanEvent& e : events) by_id.emplace(e.id, &e);

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[96];
  bool first = true;
  const auto append_event = [&out, &first](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };
  for (const SpanEvent& e : events) {
    std::string line = "  {\"name\": \"" + util::json_escape(e.name) +
                       "\", \"cat\": \"ms\", \"ph\": \"X\"";
    std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f", e.begin_us);
    line += buf;
    std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f", e.end_us - e.begin_us);
    line += buf;
    std::snprintf(buf, sizeof(buf), ", \"pid\": 1, \"tid\": %d", e.tid);
    line += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"args\": {\"depth\": %d, \"span_id\": %llu, \"parent_id\": %llu}}",
                  e.depth, static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent));
    line += buf;
    append_event(line);
    if (!e.remote_parent || e.parent == 0) continue;
    const auto parent_it = by_id.find(e.parent);
    if (parent_it == by_id.end()) continue;  // parent still open or cleared
    const SpanEvent& p = *parent_it->second;
    // One arrow per remote edge, flow-id = the child span id (unique). The
    // "s" end sits inside the parent slice, the "f" end at the child begin.
    std::snprintf(buf, sizeof(buf),
                  ", \"id\": %llu, \"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
                  static_cast<unsigned long long>(e.id), p.begin_us, p.tid);
    append_event(std::string("  {\"name\": \"") + util::json_escape(e.name) +
                 "\", \"cat\": \"ms.flow\", \"ph\": \"s\"" + buf);
    std::snprintf(buf, sizeof(buf),
                  ", \"bp\": \"e\", \"id\": %llu, \"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
                  static_cast<unsigned long long>(e.id), e.begin_us, e.tid);
    append_event(std::string("  {\"name\": \"") + util::json_escape(e.name) +
                 "\", \"cat\": \"ms.flow\", \"ph\": \"f\"" + buf);
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

void write_chrome_trace(const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("write_chrome_trace: cannot open " + path);
  file << render_chrome_trace();
  if (!file.good()) throw std::runtime_error("write_chrome_trace: write failed for " + path);
}

}  // namespace ms::obs
