#include "sweep/sweep_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/sim_error.hpp"
#include "core/simulator.hpp"
#include "la/errors.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/query_scope.hpp"
#include "util/fault_injector.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace ms::sweep {
namespace {

void emit_scenario_event(const char* type, const ScenarioSpec& spec) {
  obs::EventLog::emit(type, [&spec](util::JsonObject& e) {
    e.set("scenario", spec.name)
        .set("kind", to_string(spec.kind))
        .set("analysis", to_string(spec.analysis));
  });
}

}  // namespace

SweepEngine::SweepEngine(SweepOptions options) : options_(std::move(options)) {
  if (options_.flight_recorder) obs::FlightRecorder::set_enabled(true);
  int threads = options_.num_threads;
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  obs::MetricRegistry::global().gauge("sweep.num_threads").set(static_cast<double>(threads));
}

SweepEngine::~SweepEngine() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void SweepEngine::worker_loop() {
  while (true) {
    std::packaged_task<ScenarioResult()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

SweepEngine::QueryContext SweepEngine::capture_context() {
  QueryContext context;
  context.parent_span = obs::current_span_id();
  context.enqueued = std::chrono::steady_clock::now();
  return context;
}

ScenarioResult SweepEngine::query(ScenarioSpec spec, core::CancelToken cancel,
                                  const QueryContext& context,
                                  obs::QueryTelemetry& telemetry) {
  // Instrumentation envelope, all on the worker thread: charge the queue
  // wait, open the query's root span under the *enqueuer's* span (the remote
  // parent renders as a flow arrow), install the attribution sink, and start
  // this query's flight-recorder window. Everything simulate() records below
  // lands in `telemetry` — which the caller still owns if we throw.
  const double queue_wait =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - context.enqueued)
          .count();
  obs::MetricRegistry::global().histogram("sweep.queue_wait_seconds").record(queue_wait);
  obs::ScopedSpan span("sweep.query", context.parent_span);
  obs::QueryScope scope(telemetry);
  obs::QueryScope::observe_seconds("queue_wait_seconds", queue_wait);
  if (obs::FlightRecorder::enabled()) obs::FlightRecorder::clear();
  emit_scenario_event("scenario.started", spec);

  cancel.check("sweep.query");
  if (util::FaultInjector::enabled()) util::FaultInjector::global().fire("sweep.worker");
  // Fresh simulator per scenario — only the caches are shared, so every
  // result is bit-identical to a cold one-off run of the same spec.
  core::MoreStressSimulator simulator(options_.config);
  simulator.set_cancel_token(std::move(cancel));
  if (options_.share_caches) {
    simulator.set_factor_cache(&factor_cache_);
    simulator.set_model_cache(&model_cache_);
  }
  if (!options_.cache_dir.empty()) simulator.set_cache_directory(options_.cache_dir);
  if (spec.reads_package() && spec.package == nullptr && options_.share_caches) {
    const int padded = std::max(spec.blocks_x, spec.blocks_y) + 2 * spec.dummy_rings;
    spec.package = package_cache_.get_or_create(std::to_string(padded), [this, padded] {
      const core::SimulationConfig& config = options_.config;
      return chiplet::build_demo_package(config.geometry.pitch, padded, config.geometry.height,
                                         config.thermal_load);
    });
  }
  ScenarioResult result = simulator.simulate(spec);

  result.telemetry = telemetry;  // the sink has everything simulate recorded
  if (result.status == ScenarioStatus::kDegraded && obs::FlightRecorder::enabled()) {
    result.flight = obs::FlightRecorder::snapshot();
  }
  if (obs::EventLog::enabled()) {
    const std::int64_t cache_hits =
        telemetry.count("factor_cache.hits") + telemetry.count("model_cache.hits");
    if (cache_hits > 0) {
      obs::EventLog::emit("scenario.cache_hit", [&](util::JsonObject& e) {
        e.set("scenario", spec.name)
            .set("factor_cache_hits", telemetry.count("factor_cache.hits"))
            .set("model_cache_hits", telemetry.count("model_cache.hits"));
      });
    }
    if (result.status == ScenarioStatus::kDegraded) {
      obs::EventLog::emit("scenario.degraded", [&](util::JsonObject& e) {
        e.set("scenario", spec.name).set("diagonal_shift", result.diagonal_shift);
      });
    }
    obs::EventLog::emit("scenario.completed", [&](util::JsonObject& e) {
      e.set("scenario", spec.name)
          .set("status", to_string(result.status))
          .set("simulate_seconds", result.simulate_seconds)
          .set("queue_wait_seconds", queue_wait)
          .set("peak_von_mises", result.peak_von_mises);
    });
  }
  return result;
}

ScenarioResult SweepEngine::guarded_query(ScenarioSpec spec,
                                          const std::shared_ptr<BatchControl>& control,
                                          const QueryContext& context) {
  // Failures are isolated per row; the catch chain classifies each error
  // into the taxonomy of core/sim_error.hpp so callers can act on the code
  // without string-matching what().
  obs::QueryTelemetry telemetry;
  ScenarioError error;
  try {
    // The child token inherits the batch's cancel flag and adds this query's
    // own deadline, so a slow scenario times out without killing the batch.
    return query(spec, control->cancel.child(options_.deadline_seconds), context, telemetry);
  } catch (const core::SimError& e) {
    error.code = e.code();
    error.stage = e.stage();
    error.message = e.what();
  } catch (const la::NotPositiveDefiniteError& e) {
    error.code = core::SimErrorCode::kNotPositiveDefinite;
    error.stage = "la.factor";
    error.message = e.what();
  } catch (const util::InjectedFault& e) {
    error.code = core::SimErrorCode::kFaultInjected;
    error.stage = e.site();
    error.message = e.what();
  } catch (const std::invalid_argument& e) {
    error.code = core::SimErrorCode::kInvalidSpec;
    error.stage = "sweep.spec";
    error.message = e.what();
  } catch (const std::exception& e) {
    error.code = core::SimErrorCode::kInternal;
    error.stage = "sweep.query";
    error.message = e.what();
  }

  ScenarioResult failed;
  failed.name = spec.name;
  failed.kind = spec.kind;
  failed.analysis = spec.analysis;
  failed.status = ScenarioStatus::kFailed;
  failed.error = std::move(error);
  obs::MetricRegistry::global().counter("sweep.scenarios_failed").add(1);
  MS_LOG_WARN("sweep: scenario '%s' failed [%s] at %s: %s", failed.name.c_str(),
              core::to_string(failed.error.code), failed.error.stage.c_str(),
              failed.error.message.c_str());
  // Whatever the query attributed before it threw, plus the worker's recent
  // span/log history: the post-mortem that ships with the row. Snapshot
  // *after* the warn above so the failure's own log line is in the ring.
  failed.telemetry = std::move(telemetry);
  if (obs::FlightRecorder::enabled()) failed.flight = obs::FlightRecorder::snapshot();
  obs::EventLog::emit("scenario.failed", [&failed](util::JsonObject& e) {
    e.set("scenario", failed.name)
        .set("code", core::to_string(failed.error.code))
        .set("stage", failed.error.stage)
        .set("message", failed.error.message);
  });

  // Trip the batch once the failure budget is spent; in-flight and queued
  // scenarios then fail fast with kCancelled at their next check point.
  const int failures = control->failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (options_.max_failures >= 0 && failures > options_.max_failures) {
    control->cancel.request_cancel();
  }
  return failed;
}

std::future<ScenarioResult> SweepEngine::enqueue_task(
    std::packaged_task<ScenarioResult()> task) {
  std::future<ScenarioResult> future = task.get_future();
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
  return future;
}

std::future<ScenarioResult> SweepEngine::enqueue(ScenarioSpec spec) {
  // A standalone query gets its own deadline but no batch control: the
  // future carries the raw exception, exactly as before the taxonomy.
  core::CancelToken cancel = options_.deadline_seconds > 0.0
                                 ? core::CancelToken::with_deadline(options_.deadline_seconds)
                                 : core::CancelToken();
  const QueryContext context = capture_context();
  emit_scenario_event("scenario.enqueued", spec);
  std::packaged_task<ScenarioResult()> task(
      [this, spec = std::move(spec), cancel = std::move(cancel), context]() mutable {
        obs::QueryTelemetry telemetry;
        return query(std::move(spec), std::move(cancel), context, telemetry);
      });
  return enqueue_task(std::move(task));
}

namespace {

/// Lifetime axis of the Pareto order: fatigue results use log10 lifetime,
/// everything else compares as -inf (a steady scenario never dominates a
/// fatigue scenario on life).
double life_of(const ScenarioResult& r) {
  return std::isnan(r.min_life_log10) ? -std::numeric_limits<double>::infinity()
                                      : r.min_life_log10;
}

void mark_pareto(std::vector<ScenarioResult>& results) {
  for (ScenarioResult& candidate : results) {
    // Failed rows carry no fields: they neither join the frontier nor
    // dominate anyone (their zero peak stress would otherwise beat all).
    if (candidate.failed()) {
      candidate.pareto_optimal = false;
      continue;
    }
    bool dominated = false;
    for (const ScenarioResult& other : results) {
      if (&other == &candidate || other.failed()) continue;
      const bool no_worse = other.peak_von_mises <= candidate.peak_von_mises &&
                            life_of(other) >= life_of(candidate);
      const bool better = other.peak_von_mises < candidate.peak_von_mises ||
                          life_of(other) > life_of(candidate);
      if (no_worse && better) {
        dominated = true;
        break;
      }
    }
    candidate.pareto_optimal = !dominated;
  }
}

}  // namespace

std::vector<ScenarioResult> SweepEngine::run(const std::vector<ScenarioSpec>& specs,
                                             SweepStats* stats) {
  util::WallTimer timer;
  const std::uint64_t factor_hits0 = factor_cache_.hits();
  const std::uint64_t factor_misses0 = factor_cache_.misses();
  const std::uint64_t model_hits0 = model_cache_.hits();
  const std::uint64_t model_misses0 = model_cache_.misses();

  // One control block per batch: a cancellable token plus the shared
  // failure budget. Deadlines are per query — each guarded_query arms a
  // child token whose clock starts when a worker picks the scenario up.
  // guarded_query folds every error into its own row, so the futures below
  // never throw.
  auto control = std::make_shared<BatchControl>();

  std::vector<std::future<ScenarioResult>> futures;
  futures.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    const QueryContext context = capture_context();
    emit_scenario_event("scenario.enqueued", spec);
    std::packaged_task<ScenarioResult()> task(
        [this, spec, control, context] { return guarded_query(spec, control, context); });
    futures.push_back(enqueue_task(std::move(task)));
  }

  std::vector<ScenarioResult> results;
  results.reserve(specs.size());
  for (std::future<ScenarioResult>& future : futures) results.push_back(future.get());
  mark_pareto(results);

  int num_failed = 0;
  int num_degraded = 0;
  for (const ScenarioResult& result : results) {
    if (result.status == ScenarioStatus::kFailed) ++num_failed;
    if (result.status == ScenarioStatus::kDegraded) ++num_degraded;
  }

  if (stats != nullptr) {
    stats->wall_seconds = timer.seconds();
    stats->num_scenarios = static_cast<int>(specs.size());
    stats->factor_cache_hits = factor_cache_.hits() - factor_hits0;
    stats->factor_cache_misses = factor_cache_.misses() - factor_misses0;
    stats->model_cache_hits = model_cache_.hits() - model_hits0;
    stats->model_cache_misses = model_cache_.misses() - model_misses0;
    stats->num_failed = num_failed;
    stats->num_degraded = num_degraded;
  }
  obs::MetricRegistry::global().histogram("sweep.run_seconds").record(timer.seconds());
  MS_LOG_INFO("sweep: %d scenarios (%d failed, %d degraded) in %.3f s "
              "(factor cache %llu hit / %llu miss)",
              static_cast<int>(specs.size()), num_failed, num_degraded, timer.seconds(),
              static_cast<unsigned long long>(factor_cache_.hits() - factor_hits0),
              static_cast<unsigned long long>(factor_cache_.misses() - factor_misses0));
  return results;
}

}  // namespace ms::sweep
