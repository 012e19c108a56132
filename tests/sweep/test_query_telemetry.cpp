// Query-scoped observability locks for the sweep engine: every result row
// carries its own QueryTelemetry under the registry's metric names, and the
// per-row numbers must reconcile EXACTLY with the registry's deltas, the
// batch-level SweepStats and the payload's solve stats — attribution is
// bookkeeping, not sampling. Also locks the cross-thread span
// handoff (worker query spans parent under the enqueuing batch span), the
// flight-recorder snapshot on injected-fault failures, and the structured
// event-log lifecycle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"
#include "sweep/sweep_engine.hpp"
#include "util/fault_injector.hpp"
#include "util/json.hpp"

namespace ms::sweep {
namespace {

core::SimulationConfig small_config() {
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = 10;
  // Direct solves so the factorization cache (and its attribution) is on the
  // hot path.
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  return config;
}

std::vector<ScenarioSpec> trace_family(int count) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < count; ++i) {
    ScenarioSpec spec;
    spec.name = "case" + std::to_string(i);
    spec.analysis = AnalysisKind::kFatigue;
    spec.load = LoadKind::kTrace;
    spec.blocks_x = 2;
    spec.blocks_y = 2;
    spec.power.background = 20.0;
    spec.power.hotspot_peak = 100.0 + 50.0 * i;
    spec.trace.period = 6e-5;
    spec.trace.duty = (i + 1.0) / (count + 1.0);
    spec.trace.cycles = 1;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Steady power-map sub-models at `count` locations of one demo package,
/// which the engine builds inside the first query that needs it.
std::vector<ScenarioSpec> submodel_family(int count) {
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < count; ++i) {
    ScenarioSpec spec;
    spec.name = "sub" + std::to_string(i);
    spec.kind = ScenarioKind::kSubmodel;
    spec.load = LoadKind::kPower;
    spec.blocks_x = 2;
    spec.blocks_y = 2;
    spec.dummy_rings = 1;
    spec.location = 1 + i;
    spec.power.background = 2.0;
    spec.power.hotspot_peak = 20.0;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::int64_t sum_counts(const std::vector<ScenarioResult>& rows, const char* key) {
  std::int64_t total = 0;
  for (const ScenarioResult& r : rows) total += r.telemetry.count(key);
  return total;
}

/// Observability state is process-wide; leave none of it behind.
class QueryTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(false);
    obs::clear_trace();
    obs::EventLog::close();
    util::FaultInjector::global().reset();
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::clear_trace();
    obs::EventLog::close();
    obs::FlightRecorder::set_enabled(false);
    util::FaultInjector::global().reset();
  }
};

TEST_F(QueryTelemetryTest, PerRowTelemetryReconcilesExactlyWithSweepStats) {
  const std::vector<ScenarioSpec> specs = trace_family(4);
  SweepOptions options;
  options.config = small_config();
  options.num_threads = 2;
  SweepEngine engine(options);

  SweepStats cold_stats;
  const std::vector<ScenarioResult> cold = engine.run(specs, &cold_stats);
  ASSERT_EQ(cold.size(), specs.size());

  // The per-row attributed cache traffic sums to the batch-level cache
  // deltas — every hit and miss is charged to exactly one scenario.
  EXPECT_EQ(sum_counts(cold, "la.factor_cache.hits"),
            static_cast<std::int64_t>(cold_stats.factor_cache_hits));
  EXPECT_EQ(sum_counts(cold, "la.factor_cache.misses"),
            static_cast<std::int64_t>(cold_stats.factor_cache_misses));
  EXPECT_EQ(sum_counts(cold, "rom.model_cache.hits"),
            static_cast<std::int64_t>(cold_stats.model_cache_hits));
  EXPECT_EQ(sum_counts(cold, "rom.model_cache.misses"),
            static_cast<std::int64_t>(cold_stats.model_cache_misses));
  // This trace family has exactly two operator structures and one ROM model.
  EXPECT_EQ(cold_stats.factor_cache_misses, 2u);
  EXPECT_EQ(cold_stats.model_cache_misses, 1u);

  for (const ScenarioResult& r : cold) {
    ASSERT_NE(r.fatigue, nullptr) << r.name;
    // Row-level identities against the payload's own solver bookkeeping.
    EXPECT_EQ(r.telemetry.count("rom.global.factorizations"),
              r.fatigue->stats.solve.num_factorizations) << r.name;
    EXPECT_EQ(r.telemetry.count("rom.global.rhs"), r.fatigue->stats.solve.num_rhs) << r.name;
    EXPECT_GE(r.telemetry.count("rom.global.solves"), 1) << r.name;
    // Stage durations and the queue wait are present on every row.
    EXPECT_EQ(r.telemetry.seconds.count("queue_wait_seconds"), 1u) << r.name;
    EXPECT_EQ(r.telemetry.seconds.count("sweep.scenario_seconds"), 1u) << r.name;
    EXPECT_GT(r.telemetry.secs("sweep.scenario_seconds"), 0.0) << r.name;
    EXPECT_GE(r.telemetry.secs("rom.global.solve_seconds"), 0.0) << r.name;
  }

  // Warm pass: every operator is a cache hit, so zero attributed
  // factorizations anywhere and exactly two factor-cache hits per row.
  SweepStats warm_stats;
  const std::vector<ScenarioResult> warm = engine.run(specs, &warm_stats);
  EXPECT_EQ(warm_stats.factor_cache_misses, 0u);
  EXPECT_EQ(sum_counts(warm, "rom.global.factorizations"), 0);
  EXPECT_EQ(sum_counts(warm, "la.factor_cache.hits"),
            static_cast<std::int64_t>(warm_stats.factor_cache_hits));
  for (const ScenarioResult& r : warm) {
    EXPECT_EQ(r.telemetry.count("la.factor_cache.hits"), 2) << r.name;
    EXPECT_EQ(r.telemetry.count("la.factor_cache.misses"), 0) << r.name;
    EXPECT_EQ(r.telemetry.count("rom.model_cache.hits"), 1) << r.name;
  }
}

TEST(QueryTelemetry, RowKeysAreRegistryNamesAndReconcile) {
  util::FaultInjector::global().reset();
  std::vector<ScenarioSpec> specs = trace_family(4);
  for (ScenarioSpec& spec : submodel_family(2)) specs.push_back(std::move(spec));
  SweepOptions options;
  options.config = small_config();
  options.num_threads = 2;
  SweepEngine engine(options);

  // Deltas from zero: no earlier test's sums cost the subtraction digits.
  auto& registry = obs::MetricRegistry::global();
  registry.reset();
  const std::vector<ScenarioResult> rows = engine.run(specs);
  ASSERT_EQ(rows.size(), specs.size());
  std::map<std::string, obs::MetricSample> metrics;
  for (obs::MetricSample& m : registry.snapshot()) metrics[m.name] = std::move(m);

  // Every row key names a registry metric of the matching kind, and the
  // rows' sums are the registry's: counts exactly, durations to rounding.
  std::map<std::string, std::int64_t> count_sums;
  std::map<std::string, double> seconds_sums;
  for (const ScenarioResult& r : rows) {
    ASSERT_FALSE(r.failed()) << r.name << ": " << r.error.message;
    for (const auto& [key, n] : r.telemetry.counts) count_sums[key] += n;
    for (const auto& [key, t] : r.telemetry.seconds) seconds_sums[key] += t;
  }
  const auto registered = [&metrics](const std::string& key, obs::MetricSample::Kind kind) {
    const auto it = metrics.find(key);
    const bool found = it != metrics.end() && it->second.kind == kind;
    EXPECT_TRUE(found) << key << " is not a registry name of its kind";
    return found ? &it->second : nullptr;
  };
  for (const auto& [key, n] : count_sums) {
    if (const obs::MetricSample* m = registered(key, obs::MetricSample::Kind::kCounter)) {
      EXPECT_EQ(n, m->count) << key;
    }
  }
  ASSERT_EQ(seconds_sums.count("queue_wait_seconds"), 1u);
  seconds_sums.erase("queue_wait_seconds");  // the one row-only key
  for (const auto& [key, t] : seconds_sums) {
    if (const obs::MetricSample* m = registered(key, obs::MetricSample::Kind::kHistogram)) {
      EXPECT_NEAR(t, m->value, 1e-12 * std::abs(m->value)) << key;
    }
  }

  std::int64_t fem_solves = 0;
  for (const ScenarioResult& r : rows) {
    const obs::QueryTelemetry& row = r.telemetry;
    EXPECT_EQ(row.count("sweep.scenarios"), 1) << r.name;
    EXPECT_GT(row.secs("sweep.scenario_seconds"), 0.0) << r.name;
    if (r.fatigue != nullptr) {
      // The screen's evaluated fraction: every block's s^2 sample points at
      // every solved step are screened, and some are evaluated.
      const std::int64_t s = options.config.local.samples_per_block;
      const std::int64_t evaluated = row.count("reliability.screen.evaluated_point_steps");
      const std::int64_t total = row.count("reliability.screen.total_point_steps");
      EXPECT_GT(evaluated, 0) << r.name;
      EXPECT_LE(evaluated, total) << r.name;
      EXPECT_EQ(total, static_cast<std::int64_t>(r.fatigue->history.num_blocks()) * s * s *
                           static_cast<std::int64_t>(r.fatigue->history.num_steps()))
          << r.name;
    } else {
      ASSERT_NE(r.thermal, nullptr) << r.name;
      EXPECT_EQ(row.count("thermal.steady.factorizations"),
                r.thermal->thermal_stats.num_factorizations) << r.name;
      // The demo package is built once, inside the query that missed it,
      // and its FEM solve is charged to that row alone.
      EXPECT_EQ(row.count("fem.solves"), row.count("sweep.package_cache.misses")) << r.name;
      fem_solves += row.count("fem.solves");
    }
  }
  EXPECT_EQ(fem_solves, 1);
}

TEST_F(QueryTelemetryTest, WorkerQuerySpansParentUnderTheBatchSpanAcrossThreads) {
  const std::vector<ScenarioSpec> specs = trace_family(8);
  SweepOptions options;
  options.config = small_config();
  options.num_threads = 8;
  SweepEngine engine(options);

  obs::set_tracing_enabled(true);
  obs::SpanId batch_id = 0;
  {
    obs::ScopedSpan batch("sweep.batch");
    batch_id = obs::current_span_id();
    ASSERT_NE(batch_id, obs::SpanId{0});
    (void)engine.run(specs);
  }
  obs::set_tracing_enabled(false);

  // Every worker's query root span carries the enqueuing thread's span as an
  // explicit remote parent — the handoff the engine threads through
  // QueryContext, since TLS never crosses the pool boundary.
  int query_spans = 0;
  for (const obs::SpanEvent& e : obs::collect_events()) {
    if (std::string(e.name) != "sweep.query") continue;
    ++query_spans;
    EXPECT_EQ(e.parent, batch_id);
    EXPECT_TRUE(e.remote_parent);
  }
  EXPECT_EQ(query_spans, static_cast<int>(specs.size()));
}

TEST_F(QueryTelemetryTest, InjectedFaultRowsShipTelemetryAndFlightSnapshot) {
  util::FaultInjector::global().configure("sweep.worker:throw:1:1");
  SweepOptions options;
  options.config = small_config();
  options.num_threads = 2;
  SweepEngine engine(options);  // enables the flight recorder by default

  SweepStats stats;
  const std::vector<ScenarioResult> results = engine.run(trace_family(2), &stats);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(stats.num_failed, 1);

  const ScenarioResult* failed = nullptr;
  for (const ScenarioResult& r : results) {
    if (r.failed()) failed = &r;
  }
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->error.code, core::SimErrorCode::kFaultInjected);
  EXPECT_EQ(failed->error.stage, "sweep.worker");
  // Partial attribution survives the throw: the queue wait was charged
  // before the probe fired.
  EXPECT_EQ(failed->telemetry.seconds.count("queue_wait_seconds"), 1u);
  // The post-mortem snapshot is present and ends with the failure's own
  // warn line (guarded_query snapshots after logging).
  ASSERT_FALSE(failed->flight.empty());
  bool saw_failure_log = false;
  for (const obs::FlightRecord& record : failed->flight) {
    if (record.is_log && record.text.find("failed") != std::string::npos) {
      saw_failure_log = true;
    }
  }
  EXPECT_TRUE(saw_failure_log);
  // The healthy row carries no snapshot — flight is a failure artifact.
  for (const ScenarioResult& r : results) {
    if (!r.failed()) {
      EXPECT_TRUE(r.flight.empty()) << r.name;
    }
  }
}

TEST_F(QueryTelemetryTest, EventLogRecordsTheScenarioLifecycle) {
  const std::string path = ::testing::TempDir() + "ms_sweep_events.jsonl";
  obs::EventLog::open(path);

  SweepOptions options;
  options.config = small_config();
  options.num_threads = 2;
  SweepEngine engine(options);
  const std::vector<ScenarioSpec> specs = trace_family(3);
  (void)engine.run(specs);
  obs::EventLog::close();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  int enqueued = 0;
  int started = 0;
  int completed = 0;
  int cache_hits = 0;
  double last_seq = -1.0;
  std::set<std::string> completed_ok;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::JsonValue event = util::parse_json(line);  // throws on garble
    const double seq = event.find("seq")->number;
    EXPECT_GT(seq, last_seq);  // strictly monotonic, gap-detectable
    last_seq = seq;
    ASSERT_NE(event.find("ts_us"), nullptr);
    const std::string type = event.find("event")->string;
    if (type == "scenario.enqueued") ++enqueued;
    if (type == "scenario.started") ++started;
    if (type == "scenario.cache_hit") ++cache_hits;
    if (type == "scenario.completed") {
      ++completed;
      EXPECT_EQ(event.find("status")->string, "ok");
      EXPECT_GE(event.find("simulate_seconds")->number, 0.0);
      completed_ok.insert(event.find("scenario")->string);
    }
  }
  EXPECT_EQ(enqueued, static_cast<int>(specs.size()));
  EXPECT_EQ(started, static_cast<int>(specs.size()));
  EXPECT_EQ(completed, static_cast<int>(specs.size()));
  EXPECT_EQ(completed_ok.size(), specs.size());  // every scenario, once
  // The shared-cache family produces at least one attributed cache-hit event
  // (every scenario after the first reuses the model and factorizations).
  EXPECT_GE(cache_hits, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ms::sweep
