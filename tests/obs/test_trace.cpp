#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace ms::obs {
namespace {

/// Tracing state is process-wide; every test starts from a clean, disabled
/// tracer and leaves it that way.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(false);
    clear_trace();
  }
  void TearDown() override {
    set_tracing_enabled(false);
    clear_trace();
  }
};

TEST_F(TraceTest, DisabledScopesRecordNothing) {
  {
    MS_TRACE_SCOPE("never");
    MS_TRACE_SCOPE("recorded");
  }
  EXPECT_EQ(span_count(), 0u);
  EXPECT_EQ(open_span_count(), 0u);
}

TEST_F(TraceTest, NestedScopesBalanceAndCarryDepth) {
  set_tracing_enabled(true);
  {
    MS_TRACE_SCOPE("outer");
    {
      MS_TRACE_SCOPE("middle");
      { MS_TRACE_SCOPE("inner"); }
    }
  }
  EXPECT_EQ(open_span_count(), 0u);
  const std::vector<SpanEvent> events = collect_events();
  ASSERT_EQ(events.size(), 3u);
  // Spans complete innermost-first on one thread.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_STREQ(events[1].name, "middle");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0);
  // Children nest inside their parent's time window.
  EXPECT_GE(events[0].begin_us, events[2].begin_us);
  EXPECT_LE(events[0].end_us, events[2].end_us);
  for (const SpanEvent& e : events) EXPECT_GE(e.end_us, e.begin_us);
}

TEST_F(TraceTest, ScopedSpanEndIsIdempotent) {
  set_tracing_enabled(true);
  {
    ScopedSpan span("phase");
    span.end();
    span.end();  // second end and the destructor must both be no-ops
  }
  EXPECT_EQ(span_count(), 1u);
  EXPECT_EQ(open_span_count(), 0u);
}

TEST_F(TraceTest, TimedSpanRecordsScopeWallTime) {
  // The histogram receives the scope's wall time once per span, whether or
  // not spans are captured, and end() before destruction records it once.
  MetricRegistry reg;
  Histogram& seconds = reg.histogram("scope_seconds");
  for (const bool capture : {false, true}) {
    set_tracing_enabled(capture);
    ScopedSpan span("timed", seconds);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
    span.end();
  }
  EXPECT_EQ(seconds.count(), 2);
  EXPECT_GE(reg.histogram_sum("scope_seconds"), 0.0);
  EXPECT_EQ(span_count(), 1u);  // only the captured pass leaves a span
  EXPECT_EQ(open_span_count(), 0u);
}

TEST_F(TraceTest, OpenMpRegionsBalanceAcrossThreads) {
  set_tracing_enabled(true);
  constexpr int kIterations = 64;
  // Static: every thread of the team gets iterations, so the spans come from
  // more than one thread even when busy cores let one thread drain a
  // dynamic schedule alone.
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int i = 0; i < kIterations; ++i) {
    MS_TRACE_SCOPE("panel");
    { MS_TRACE_SCOPE("panel/inner"); }
  }
  EXPECT_EQ(open_span_count(), 0u);
  const std::vector<SpanEvent> events = collect_events();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(2 * kIterations));
  std::set<std::int32_t> tids;
  for (const SpanEvent& e : events) tids.insert(e.tid);
#ifdef _OPENMP
  if (omp_get_max_threads() > 1) {
    EXPECT_GT(tids.size(), 1u);
  }
#endif
  // Every thread's spans balanced: equal inner and outer counts.
  std::size_t inner = 0;
  for (const SpanEvent& e : events) {
    if (std::string(e.name) == "panel/inner") ++inner;
  }
  EXPECT_EQ(inner, static_cast<std::size_t>(kIterations));
}

TEST_F(TraceTest, ChromeTraceJsonParsesBack) {
  set_tracing_enabled(true);
  {
    MS_TRACE_SCOPE("solve");
    { MS_TRACE_SCOPE("factor"); }
  }
  set_tracing_enabled(false);

  const util::JsonValue doc = util::parse_json(render_chrome_trace());
  ASSERT_TRUE(doc.is_object());
  const util::JsonValue* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  std::set<std::string> names;
  for (const util::JsonValue& event : events->array) {
    ASSERT_TRUE(event.is_object());
    names.insert(event.find("name")->string);
    EXPECT_EQ(event.find("ph")->string, "X");
    EXPECT_GE(event.find("dur")->number, 0.0);
    EXPECT_GE(event.find("ts")->number, 0.0);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
  }
  EXPECT_EQ(names, (std::set<std::string>{"solve", "factor"}));
}

TEST_F(TraceTest, WriteChromeTraceProducesLoadableFile) {
  set_tracing_enabled(true);
  { MS_TRACE_SCOPE("span"); }
  set_tracing_enabled(false);

  const std::string path = ::testing::TempDir() + "ms_trace_test.json";
  write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::JsonValue doc = util::parse_json(buffer.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("traceEvents")->array.size(), 1u);
  std::remove(path.c_str());
}

TEST_F(TraceTest, SpanIdsAreUniqueAndParentEdgesFollowNesting) {
  set_tracing_enabled(true);
  {
    MS_TRACE_SCOPE("outer");
    { MS_TRACE_SCOPE("inner"); }
    { MS_TRACE_SCOPE("inner2"); }
  }
  const std::vector<SpanEvent> events = collect_events();
  ASSERT_EQ(events.size(), 3u);
  std::set<SpanId> ids;
  for (const SpanEvent& e : events) ids.insert(e.id);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids.count(0), 0u);  // 0 is the "no span" sentinel
  const SpanEvent& outer = events[2];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, SpanId{0});
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(events[i].parent, outer.id);
    EXPECT_FALSE(events[i].remote_parent);
  }
}

TEST_F(TraceTest, CurrentSpanIdTracksInnermostOpenSpan) {
  EXPECT_EQ(current_span_id(), SpanId{0});  // capture off
  set_tracing_enabled(true);
  EXPECT_EQ(current_span_id(), SpanId{0});  // no open span
  {
    MS_TRACE_SCOPE("outer");
    const SpanId outer_id = current_span_id();
    EXPECT_NE(outer_id, SpanId{0});
    {
      MS_TRACE_SCOPE("inner");
      EXPECT_NE(current_span_id(), outer_id);
    }
    EXPECT_EQ(current_span_id(), outer_id);
  }
  EXPECT_EQ(current_span_id(), SpanId{0});
}

TEST_F(TraceTest, RemoteParentCrossesThreadsDeterministically) {
  // The producer/consumer handoff pattern under an 8-thread pool: the
  // producer captures its span id, every worker opens its root span with
  // that id as remote parent. Parent edges must be exact on every worker
  // regardless of scheduling.
  set_tracing_enabled(true);
  constexpr int kWorkers = 8;
  SpanId producer_id = 0;
  {
    ScopedSpan producer("producer.batch");
    producer_id = current_span_id();
    ASSERT_NE(producer_id, SpanId{0});
    std::vector<std::thread> pool;
    pool.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      pool.emplace_back([producer_id] {
        ScopedSpan root("worker.query", producer_id);
        { MS_TRACE_SCOPE("worker.inner"); }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  set_tracing_enabled(false);

  const std::vector<SpanEvent> events = collect_events();
  int roots = 0;
  std::set<SpanId> root_ids;
  for (const SpanEvent& e : events) {
    if (std::string(e.name) == "worker.query") {
      ++roots;
      root_ids.insert(e.id);
      EXPECT_EQ(e.parent, producer_id);
      EXPECT_TRUE(e.remote_parent);
      EXPECT_EQ(e.depth, 0);
    } else if (std::string(e.name) == "worker.inner") {
      EXPECT_FALSE(e.remote_parent);  // same-thread edge under the root
    }
  }
  EXPECT_EQ(roots, kWorkers);
  // Every inner span's parent is one of the worker roots.
  for (const SpanEvent& e : events) {
    if (std::string(e.name) == "worker.inner") {
      EXPECT_EQ(root_ids.count(e.parent), 1u);
    }
  }
}

TEST_F(TraceTest, ChromeExportEmitsFlowEventsForRemoteEdges) {
  set_tracing_enabled(true);
  SpanId producer_id = 0;
  {
    ScopedSpan producer("enqueue");
    producer_id = current_span_id();
    std::thread worker([producer_id] { ScopedSpan root("query", producer_id); });
    worker.join();
  }
  set_tracing_enabled(false);

  const util::JsonValue doc = util::parse_json(render_chrome_trace());
  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int flow_starts = 0;
  int flow_finishes = 0;
  double flow_id = -1.0;
  double query_span_id = -1.0;
  for (const util::JsonValue& event : events->array) {
    const std::string ph = event.find("ph")->string;
    if (ph == "X") {
      const util::JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("span_id"), nullptr);
      ASSERT_NE(args->find("parent_id"), nullptr);
      if (event.find("name")->string == "query") {
        query_span_id = args->find("span_id")->number;
        EXPECT_EQ(args->find("parent_id")->number,
                  static_cast<double>(producer_id));
      }
    } else if (ph == "s") {
      ++flow_starts;
      flow_id = event.find("id")->number;
      EXPECT_EQ(event.find("cat")->string, "ms.flow");
    } else if (ph == "f") {
      ++flow_finishes;
      EXPECT_EQ(event.find("bp")->string, "e");
      EXPECT_EQ(event.find("id")->number, flow_id);
    }
  }
  EXPECT_EQ(flow_starts, 1);
  EXPECT_EQ(flow_finishes, 1);
  // The flow arrow is keyed by the child (query) span id — unique per edge.
  EXPECT_EQ(flow_id, query_span_id);
}

TEST_F(TraceTest, ExportPreservesEventsAndCollectIsRepeatable) {
  set_tracing_enabled(true);
  { MS_TRACE_SCOPE("kept"); }
  const std::size_t before = span_count();
  (void)render_chrome_trace();
  EXPECT_EQ(span_count(), before);  // export snapshots, does not drain
  EXPECT_EQ(collect_events().size(), before);
  EXPECT_TRUE(tracing_enabled());  // export restores the enabled state
  clear_trace();
  EXPECT_EQ(span_count(), 0u);
}

}  // namespace
}  // namespace ms::obs
