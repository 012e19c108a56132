#pragma once
// Hierarchical span tracing: RAII scopes record (name, begin, end, depth)
// events into per-thread buffers, exported as Chrome trace-event JSON
// (chrome://tracing / Perfetto). The substrate every solve path reports
// into — see DESIGN.md "Observability".
//
//   void factor() {
//     MS_TRACE_SCOPE("cholesky/numeric");
//     ...
//   }
//
// Every span carries a process-unique id and its parent's id. Parenting is
// implicit within a thread (the innermost open span) and *explicit* across
// threads: thread-local state never leaks across a pool handoff, so the
// producer captures current_span_id() and the consumer opens its root span
// with that id as `remote_parent` (see DESIGN.md "Query-scoped telemetry").
// The Chrome exporter turns each remote edge into a flow-event arrow, so one
// trace shows a whole sweep batch fanning out across worker threads.
//
// Cost model: when span capture is disabled (the default) a scope is one
// relaxed atomic load and a branch — cheap enough to leave in hot-ish paths
// (a per-factorization or per-panel call, not a per-element loop). When
// enabled, a scope appends one small event to a thread-local vector: no
// locks, no allocation beyond amortized vector growth, safe inside OpenMP
// regions (every OpenMP thread owns its own buffer). Span names must be
// string literals (or otherwise outlive the trace) — the buffer stores the
// pointer. Spans are additionally mirrored into the bounded per-thread
// flight recorder when that is enabled (obs/flight_recorder.hpp), even with
// full tracing off.
//
// Collection (write_chrome_trace / collect_events / clear_trace) must run
// from quiescent code — outside parallel regions, which OpenMP's fork-join
// model guarantees between regions. Export briefly disables tracing so the
// snapshot is consistent.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ms::obs {

class Histogram;

/// Process-unique span identity (0 = none). Ids are assigned at span begin
/// from one atomic counter, so they are unique across threads; *values* are
/// schedule-dependent, but parent/child *edges* are deterministic.
using SpanId = std::uint64_t;

/// One completed span. Times are microseconds since the process trace epoch.
struct SpanEvent {
  const char* name = nullptr;
  double begin_us = 0.0;
  double end_us = 0.0;
  std::int32_t depth = 0;  ///< nesting depth on its thread (0 = outermost)
  std::int32_t tid = 0;    ///< small sequential per-thread id
  SpanId id = 0;           ///< this span's process-unique id
  SpanId parent = 0;       ///< parent span id (0 = root)
  bool remote_parent = false;  ///< parent lives on another thread (flow edge)
};

/// Enable / disable span recording process-wide. Disabled scopes cost one
/// atomic load; events recorded before disabling are kept.
void set_tracing_enabled(bool enabled);
[[nodiscard]] bool tracing_enabled();

/// Honor the MS_TRACE environment toggle: unset/"0"/"false"/"off" leaves
/// tracing disabled, "1"/"true"/"on" enables it, and any other value enables
/// it AND registers an atexit writer that dumps the Chrome trace to that
/// path. Returns the output path ("" if none). Idempotent.
std::string init_tracing_from_env();

/// Microseconds since the process trace epoch — the time base of every
/// SpanEvent, flight-recorder entry, and event-log line, so the artifacts
/// correlate.
[[nodiscard]] double trace_now_us();

/// Innermost open span on the calling thread (0 when none, or when span
/// capture is off). Capture this *before* handing work to another thread and
/// pass it as ScopedSpan's remote_parent — TLS does not cross pool threads.
[[nodiscard]] SpanId current_span_id();

/// Snapshot all completed spans of every thread, in per-thread record order.
/// Quiescent-only (see file comment).
[[nodiscard]] std::vector<SpanEvent> collect_events();

/// Completed spans recorded so far (all threads).
[[nodiscard]] std::size_t span_count();

/// Live (begun, not yet ended) spans across all threads — 0 when every scope
/// has unwound; tests use this to assert begin/end balance.
[[nodiscard]] std::size_t open_span_count();

/// Drop all recorded events (buffers stay registered). Quiescent-only.
void clear_trace();

/// Write every completed span as Chrome trace-event JSON ("ph":"X" complete
/// events, ts/dur in microseconds; remote-parent edges additionally emit
/// "ph":"s"/"f" flow arrows) loadable in chrome://tracing or Perfetto.
/// Throws std::runtime_error when the file cannot be written. Quiescent-only.
void write_chrome_trace(const std::string& path);

/// The same JSON as a string (tests parse it back).
[[nodiscard]] std::string render_chrome_trace();

namespace detail {

/// Bitmask of span consumers: full tracing and/or the flight recorder. One
/// relaxed load of this mask is the whole cost of a disabled scope.
inline constexpr int kCaptureTrace = 1;
inline constexpr int kCaptureFlight = 2;
extern std::atomic<int> g_capture_mask;
void set_capture_bit(int bit, bool on);

inline bool span_capture_enabled() {
  return g_capture_mask.load(std::memory_order_relaxed) != 0;
}

/// Begin a span now; returns the begin timestamp. Registers the calling
/// thread's buffer on first use. `remote_parent` (when nonzero) overrides
/// the implicit same-thread parent and marks the edge as a flow arrow.
double span_begin(SpanId remote_parent);

/// Complete the span begun at `begin_us` (LIFO per thread).
void span_end(const char* name, double begin_us);

/// Record the seconds elapsed since `begin_us` (trace_now_us time base).
void record_since(Histogram& histogram, double begin_us);

}  // namespace detail

/// RAII span. Prefer the MS_TRACE_SCOPE macro; instantiate directly (with
/// end(), or with an explicit remote parent captured on the producing
/// thread) when a phase boundary does not line up with a C++ scope or when
/// the parent lives on another thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, SpanId remote_parent = 0)
      : name_(name), active_(detail::span_capture_enabled()) {
    if (active_) begin_us_ = detail::span_begin(remote_parent);
  }
  /// A timed stage: also records the span's wall time [s] into `histogram`
  /// when it ends, whether or not spans are captured, so one stopwatch
  /// serves the trace and the metric. The registry only: timed stages also
  /// run on OpenMP team threads, which carry no query scope, so a row's
  /// share would depend on the thread schedule.
  ScopedSpan(const char* name, Histogram& histogram) : ScopedSpan(name) {
    histogram_ = &histogram;
    if (!active_) begin_us_ = trace_now_us();
  }
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Complete the span before destruction (idempotent).
  void end() {
    if (histogram_ != nullptr) detail::record_since(*histogram_, begin_us_);
    histogram_ = nullptr;
    if (active_) detail::span_end(name_, begin_us_);
    active_ = false;
  }

 private:
  const char* name_;
  double begin_us_ = 0.0;
  Histogram* histogram_ = nullptr;
  bool active_;
};

}  // namespace ms::obs

#define MS_OBS_CONCAT_IMPL(a, b) a##b
#define MS_OBS_CONCAT(a, b) MS_OBS_CONCAT_IMPL(a, b)
/// Trace the enclosing scope as a span named `name` (a string literal).
#define MS_TRACE_SCOPE(name) ::ms::obs::ScopedSpan MS_OBS_CONCAT(ms_trace_scope_, __LINE__)(name)
