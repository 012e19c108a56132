#pragma once
// The cached, thread-pooled query service over simulate(spec): hand it a
// vector of ScenarioSpecs and it runs them on a worker pool, sharing
//
//   * one rom::ModelCache — the one-shot local stage runs once per block
//     spec no matter how many scenarios (and threads) need the model,
//   * one la::FactorCache — scenarios whose global-stage (or conduction)
//     operator has identical values and boundary structure share a single
//     factorization; warm queries skip assembly and refactorization, and
//   * one demo PackageModel per padded window size
//     (`sweep.package_cache`) — the coarse package solve behind sub-model
//     scenarios runs once and is passed to every scenario that reads a
//     package via the spec's payload slot.
//
// All three are util::SingleFlightCache instances.
//
// Every scenario still runs on a *fresh* MoreStressSimulator wired to the
// shared caches, so results are bit-identical to cold one-off simulate(spec)
// runs without caches (the cache-correctness tests assert this).
// enqueue() returns a std::future for async collection; run() preserves
// input order and marks the (peak stress ↓, lifetime ↑) Pareto frontier.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "chiplet/package_model.hpp"
#include "core/cancel.hpp"
#include "core/config.hpp"
#include "la/factor_cache.hpp"
#include "obs/trace.hpp"
#include "rom/model_cache.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"
#include "util/single_flight_cache.hpp"

namespace ms::sweep {

struct SweepOptions {
  /// Simulator configuration every scenario starts from (per-spec time_step
  /// overrides are applied on top by simulate()).
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Share the factorization / ROM-model caches across scenarios. Off, every
  /// query runs cold (the baseline the cache-correctness tests compare to).
  bool share_caches = true;
  /// Optional on-disk ROM-model cache directory (empty = memory only).
  std::string cache_dir;
  /// Per-query wall-clock deadline [s]; 0 = none. Checked cooperatively at
  /// trace-step / panel / assembly boundaries — an expired query fails with
  /// kDeadlineExceeded, the rest of the batch keeps running.
  double deadline_seconds = 0.0;
  /// run() only: after more than this many scenario failures the whole batch
  /// is cancelled (remaining rows fail with kCancelled). -1 = unlimited.
  int max_failures = -1;
  /// Keep the bounded per-worker flight recorder running so degraded/failed
  /// rows carry a snapshot of the worker's recent spans and log lines.
  /// Process-wide toggle (obs::FlightRecorder) — the engine turns it ON at
  /// construction when set, and never turns it off (another engine or the
  /// CLI may still want it).
  bool flight_recorder = true;
};

/// Cost/cache telemetry of one run() call.
struct SweepStats {
  double wall_seconds = 0.0;
  int num_scenarios = 0;
  std::uint64_t factor_cache_hits = 0;
  std::uint64_t factor_cache_misses = 0;
  std::uint64_t model_cache_hits = 0;
  std::uint64_t model_cache_misses = 0;
  int num_failed = 0;    ///< rows with status kFailed
  int num_degraded = 0;  ///< rows with status kDegraded (shift-retry rescue)
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {});
  ~SweepEngine();
  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  /// Queue one scenario; the future resolves when a worker finishes it (and
  /// carries any exception the query threw — the raw, unclassified error).
  /// A per-query deadline from options applies. Pareto flags are a property
  /// of a whole run() table, not of individual queries, so they stay false
  /// here.
  std::future<ScenarioResult> enqueue(ScenarioSpec spec);

  /// Run every spec and return results in input order. run() never throws on
  /// scenario errors: each failure is isolated into its own result row
  /// (status kFailed, error classified per core/sim_error.hpp) and every
  /// other scenario still completes — unless more than options.max_failures
  /// rows fail, which cancels the remainder of the batch. On return,
  /// pareto_optimal marks the frontier over (peak_von_mises minimized,
  /// min_life_log10 maximized; NaN lifetimes compare as -inf); failed rows
  /// are excluded as both candidates and dominators.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs,
                                  SweepStats* stats = nullptr);

  [[nodiscard]] const SweepOptions& options() const { return options_; }
  [[nodiscard]] la::FactorCache& factor_cache() { return factor_cache_; }
  [[nodiscard]] rom::ModelCache& model_cache() { return model_cache_; }

 private:
  /// Shared state of one run() batch: the batch-wide cancel token (tripped
  /// by the failure budget) and the running failure count.
  struct BatchControl {
    core::CancelToken cancel = core::CancelToken::cancellable();
    std::atomic<int> failures{0};
  };

  /// Trace/queue context captured on the *enqueuing* thread. TLS never
  /// crosses a pool handoff (DESIGN.md "Query-scoped telemetry"), so the
  /// caller's innermost span id and the enqueue timestamp ride along with
  /// the task; the worker opens its root span with that remote parent and
  /// charges the queue wait to the query.
  struct QueryContext {
    obs::SpanId parent_span = 0;
    std::chrono::steady_clock::time_point enqueued;
  };
  static QueryContext capture_context();

  ScenarioResult query(ScenarioSpec spec, core::CancelToken cancel, const QueryContext& context,
                       obs::QueryTelemetry& telemetry);
  /// query() with run()'s failure isolation: catches, classifies, and folds
  /// any error into a kFailed row instead of letting it escape. The failed
  /// row keeps the partial telemetry and a flight-recorder snapshot.
  ScenarioResult guarded_query(ScenarioSpec spec,
                               const std::shared_ptr<BatchControl>& control,
                               const QueryContext& context);
  std::future<ScenarioResult> enqueue_task(std::packaged_task<ScenarioResult()> task);
  void worker_loop();

  SweepOptions options_;
  la::FactorCache factor_cache_;
  rom::ModelCache model_cache_;
  /// Demo packages keyed by padded window size.
  util::SingleFlightCache<std::shared_ptr<const chiplet::PackageModel>> package_cache_{
      "sweep.package_cache"};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::packaged_task<ScenarioResult()>> queue_;  ///< FIFO (front = next)
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ms::sweep
