#pragma once
// The result of one simulate(spec) query: headline metrics every scenario
// kind shares (peak stress, lifetime, wall time) plus the full result payload
// — exactly one of the shared_ptr slots is set, matching the scenario's
// analysis and load. Payloads are shared_ptr so ScenarioResults are
// cheap to collect, sort, and copy into Pareto tables.

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/results.hpp"
#include "core/sim_error.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/query_scope.hpp"
#include "sweep/scenario_spec.hpp"

namespace ms::sweep {

/// Health of one scenario row in a sweep table. kOk and kDegraded rows carry
/// a full payload (degraded = a solver recovered via the diagonal shift-retry
/// ladder, so fields solve A + sigma*I rather than A); kFailed rows carry no
/// payload — only `error` — and are skipped by Pareto marking.
enum class ScenarioStatus { kOk, kDegraded, kFailed };

inline const char* to_string(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::kOk: return "ok";
    case ScenarioStatus::kDegraded: return "degraded";
    case ScenarioStatus::kFailed: return "failed";
  }
  return "unknown";
}

/// The classified failure of a kFailed row (see core/sim_error.hpp).
struct ScenarioError {
  core::SimErrorCode code = core::SimErrorCode::kInternal;
  std::string stage;    ///< probe point that raised, e.g. "rom.global.solve"
  std::string message;  ///< human-readable detail
};

struct ScenarioResult {
  std::string name;
  ScenarioKind kind = ScenarioKind::kArray;
  AnalysisKind analysis = AnalysisKind::kSteady;

  // --- headline metrics ------------------------------------------------------
  double peak_von_mises = 0.0;  ///< max of the reported mid-plane field [MPa]
  /// Fatigue runs only (NaN otherwise): log10 of the lifetime in trace
  /// passes (log10 keeps damage-free infinities plottable), the lifetime in
  /// seconds, and the governing stress channel.
  double min_life_log10 = std::numeric_limits<double>::quiet_NaN();
  double min_life_seconds = std::numeric_limits<double>::quiet_NaN();
  std::string life_channel;
  double simulate_seconds = 0.0;  ///< wall time of this query
  /// Set by SweepEngine::run: true when no other scenario in the sweep both
  /// stresses less and lives longer (the Pareto frontier of the table).
  /// Failed rows never make the frontier.
  bool pareto_optimal = false;

  // --- health ---------------------------------------------------------------
  ScenarioStatus status = ScenarioStatus::kOk;
  ScenarioError error;            ///< meaningful only when failed()
  double diagonal_shift = 0.0;    ///< largest shift any solve in the query took

  [[nodiscard]] bool failed() const { return status == ScenarioStatus::kFailed; }

  // --- attributed observability ----------------------------------------------
  /// This query's own telemetry (cache hits/misses, factorizations, RHS
  /// count, stage durations, queue wait), filled by SweepEngine via the
  /// worker's obs::QueryScope. Empty when the query ran outside an engine.
  obs::QueryTelemetry telemetry;
  /// Flight-recorder snapshot of the worker's recent spans and log lines;
  /// captured only when status is degraded/failed and the engine's recorder
  /// is on — the post-mortem context for this row.
  std::vector<obs::FlightRecord> flight;

  // --- full payload (exactly one set) ---------------------------------------
  std::shared_ptr<core::ArrayResult> array;            ///< steady, uniform load
  std::shared_ptr<core::ThermalResult> thermal;        ///< steady, power map
  std::shared_ptr<core::TransientResult> transient;    ///< transient envelope
  std::shared_ptr<core::FatigueResult> fatigue;        ///< cycle-resolved fatigue

  /// The payload viewed as its common ArrayResult base (fields + stats).
  [[nodiscard]] const core::ArrayResult& base() const {
    if (array) return *array;
    if (thermal) return *thermal;
    if (transient) return *transient;
    if (fatigue) return *fatigue;
    throw std::logic_error("ScenarioResult '" + name + "' carries no payload");
  }
};

}  // namespace ms::sweep
