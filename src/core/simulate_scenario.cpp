// MoreStressSimulator::simulate(const sweep::ScenarioSpec&) — the one entry
// point. The spec's kind fixes the window (standalone array or padded
// sub-model) and the thermal model (array mesh or package stack); its
// analysis fixes the stress stage, which is the same for both kinds.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "chiplet/displacement_field.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "reliability/stress_history.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"
#include "util/timer.hpp"

namespace ms::core {

namespace {

double peak_of(const std::vector<double>& field) {
  return field.empty() ? 0.0 : *std::max_element(field.begin(), field.end());
}

/// Largest diagonal shift any solve behind this result took (0 = no solver
/// needed the shift-retry ladder; the scenario then reports kDegraded).
double max_shift_of(const sweep::ScenarioResult& result) {
  double shift = result.base().stats.solve.diagonal_shift;
  const auto fold = [&shift](double s) { shift = std::max(shift, s); };
  if (result.thermal) fold(result.thermal->thermal_stats.diagonal_shift);
  if (result.transient) {
    fold(result.transient->thermal_stats.diagonal_shift);
    for (const ArrayResult& snapshot : result.transient->snapshots)
      fold(snapshot.stats.solve.diagonal_shift);
  }
  if (result.fatigue) fold(result.fatigue->thermal_stats.diagonal_shift);
  return shift;
}

struct ResolvedPackage {
  std::shared_ptr<const chiplet::PackageModel> package;
  chiplet::SubmodelPlacement placement;
};

/// The package a sub-model scenario runs in: the spec's payload when given,
/// else the demo package sized to the padded window. The sweep engine
/// memoizes that package per padded size and passes it in the payload slot;
/// building one is itself a coarse FEM solve, so only specs that read it get
/// here (ScenarioSpec::reads_package).
ResolvedPackage resolve_package(const sweep::ScenarioSpec& spec, const SimulationConfig& config) {
  ResolvedPackage resolved;
  const int padded_x = spec.blocks_x + 2 * spec.dummy_rings;
  const int padded_y = spec.blocks_y + 2 * spec.dummy_rings;
  resolved.package = spec.package != nullptr
                         ? spec.package
                         : chiplet::build_demo_package(config.geometry.pitch,
                                                       std::max(padded_x, padded_y),
                                                       config.geometry.height, config.thermal_load);
  if (spec.placement.blocks_x != 0) {
    resolved.placement = spec.placement;
  } else {
    const std::vector<chiplet::SubmodelPlacement> locations = chiplet::standard_locations(
        resolved.package->geometry(), config.geometry.pitch, padded_x, padded_y);
    resolved.placement = locations[static_cast<std::size_t>(spec.location - 1)];
  }
  return resolved;
}

/// The package's own coarse displacement in the window's local frame, times
/// `scale`.
std::function<std::array<double, 3>(const mesh::Point3&)> package_boundary_of(
    const ResolvedPackage& resolved, double scale) {
  const chiplet::DisplacementField local =
      chiplet::DisplacementField(resolved.package->mesh(), resolved.package->displacement())
          .shifted(resolved.placement.origin);
  // The closure keeps the package alive: the field references its mesh/u.
  const std::shared_ptr<const chiplet::PackageModel> keep = resolved.package;
  return [local, keep, scale](const mesh::Point3& p) {
    std::array<double, 3> u = local(p);
    for (double& c : u) c *= scale;
    return u;
  };
}

/// The factor a sub-model's package displacement takes. The clamped package
/// problem is linear in its load, so a uniform ΔT scales the displacement
/// solved at the package's own load to the spec's ΔT. Power and trace loads,
/// and per-block load fields, still take it as solved at the package's load.
double package_boundary_scale(const sweep::ScenarioSpec& spec, const chiplet::PackageModel& package,
                              double uniform_delta_t) {
  if (spec.load != sweep::LoadKind::kUniform || spec.load_field != nullptr) return 1.0;
  if (package.thermal_load() == 0.0) {
    throw std::invalid_argument(
        "sub-model package solved at zero thermal load: its displacement cannot be scaled to "
        "the scenario's delta_t");
  }
  return uniform_delta_t / package.thermal_load();
}

/// Recorded-history indices the fatigue panel solves: every stride-th record
/// starting at the initial state, the last record always included (the
/// envelope of a relaxing trace lives there).
std::vector<int> select_history_steps(std::size_t num_records, int stride) {
  if (stride < 1) throw std::invalid_argument("FatigueOptions: record_stride must be >= 1");
  std::vector<int> steps;
  for (std::size_t r = 0; r < num_records; r += static_cast<std::size_t>(stride)) {
    steps.push_back(static_cast<int>(r));
  }
  if (steps.empty() || steps.back() != static_cast<int>(num_records) - 1) {
    steps.push_back(static_cast<int>(num_records) - 1);
  }
  return steps;
}

/// Per-block ΔT loads of the selected recorded steps.
std::vector<rom::BlockLoadField> loads_of_steps(const thermal::TransientTemperatureResult& t,
                                                const std::vector<int>& steps) {
  std::vector<rom::BlockLoadField> loads;
  loads.reserve(steps.size());
  for (int step : steps) {
    if (step < 0 || static_cast<std::size_t>(step) >= t.num_records()) {
      throw std::invalid_argument("snapshot step outside the recorded history");
    }
    loads.emplace_back(t.blocks_x, t.blocks_y, la::Vec(t.block_delta_t[step]));
  }
  return loads;
}

}  // namespace

sweep::ScenarioResult MoreStressSimulator::simulate(const sweep::ScenarioSpec& spec) {
  spec.validate();
  util::WallTimer timer;
  sweep::ScenarioResult result;
  result.name = spec.name;
  result.kind = spec.kind;
  result.analysis = spec.analysis;

  const bool submodel = spec.kind == sweep::ScenarioKind::kSubmodel;
  const int bx = spec.blocks_x;
  const int by = spec.blocks_y;
  const double uniform_delta_t = std::isnan(spec.delta_t) ? config_.thermal_load : spec.delta_t;
  ResolvedPackage resolved;
  Displacement boundary = spec.displacement;
  if (spec.reads_package()) {
    resolved = resolve_package(spec, config_);
    boundary = package_boundary_of(
        resolved, package_boundary_scale(spec, *resolved.package, uniform_delta_t));
  }
  const Window window =
      submodel ? submodel_window(bx, by, spec.dummy_rings, boundary) : array_window(bx, by);

  const auto power_map = [&]() {
    if (spec.power_map != nullptr) return *spec.power_map;
    return submodel ? sweep::make_power_map(spec, config_, resolved.package->geometry(),
                                            resolved.placement)
                    : sweep::make_power_map(spec, config_);
  };
  // Only sub-models resolve a package, so an array's domain gets none.
  const auto domain = [&]() {
    return thermal_domain(window, resolved.package.get(), resolved.placement);
  };
  const double time_step =
      spec.time_step != 0.0 ? spec.time_step : config_.coupling.transient.time_step;
  // The thermal march both trace analyses share; returns the trace duration.
  const auto march = [&](thermal::TransientTemperatureResult& transient,
                         thermal::TransientSolveStats& stats) {
    const thermal::PowerTrace trace = spec.power_trace != nullptr
                                          ? *spec.power_trace
                                          : sweep::make_power_trace(spec, power_map());
    transient = run_transient(domain(), trace, time_step, &stats);
    return trace.duration();
  };

  switch (spec.analysis) {
    case sweep::AnalysisKind::kSteady: {
      if (spec.load == sweep::LoadKind::kUniform) {
        const rom::BlockLoadField load =
            spec.load_field != nullptr
                ? *spec.load_field
                : rom::BlockLoadField::uniform(uniform_delta_t);
        result.array = std::make_shared<ArrayResult>(run_global(window, load));
        break;
      }
      auto thermal = std::make_shared<ThermalResult>();
      run_steady(domain(), power_map(), *thermal);
      static_cast<ArrayResult&>(*thermal) = run_global(window, thermal->load);
      result.thermal = std::move(thermal);
      break;
    }
    case sweep::AnalysisKind::kTransient: {
      // The envelope and every requested snapshot share the global operator:
      // one assembly + one factorization + one multi-RHS panel.
      auto transient = std::make_shared<TransientResult>();
      march(transient->transient, transient->thermal_stats);
      transient->envelope_load = rom::BlockLoadField(window.blocks_x, window.blocks_y,
                                                     Vec(transient->transient.peak_envelope));
      transient->snapshot_steps = spec.snapshot_steps;
      static_cast<ArrayResult&>(*transient) =
          run_global(window, transient->envelope_load,
                     loads_of_steps(transient->transient, spec.snapshot_steps),
                     &transient->snapshots);
      result.transient = std::move(transient);
      break;
    }
    case sweep::AnalysisKind::kFatigue: {
      auto fatigue = std::make_shared<FatigueResult>();
      const double duration = march(fatigue->transient, fatigue->thermal_stats);
      fatigue->envelope_load = rom::BlockLoadField(window.blocks_x, window.blocks_y,
                                                   Vec(fatigue->transient.peak_envelope));
      fatigue->history_steps = select_history_steps(fatigue->transient.num_records(),
                                                    spec.fatigue.record_stride);
      std::vector<double> step_times;
      for (int step : fatigue->history_steps) step_times.push_back(fatigue->transient.times[step]);
      static_cast<ArrayResult&>(*fatigue) = run_fatigue_panel(
          window, fatigue->envelope_load,
          loads_of_steps(fatigue->transient, fatigue->history_steps), step_times,
          &fatigue->history, &fatigue->history_seconds);
      util::WallTimer assess_timer;
      fatigue->report = assess_fatigue(fatigue->history, duration, spec.fatigue);
      fatigue->reliability_seconds = assess_timer.seconds();
      result.fatigue = std::move(fatigue);
      break;
    }
  }

  result.peak_von_mises = peak_of(result.base().von_mises);
  if (result.fatigue != nullptr) {
    const reliability::ReliabilityReport& report = result.fatigue->report;
    result.min_life_log10 = std::log10(report.min_life_cycles);
    result.min_life_seconds = report.min_life_seconds;
    result.life_channel = reliability::channel_name(report.min_life_channel);
  }
  result.diagonal_shift = max_shift_of(result);
  if (result.diagonal_shift != 0.0) result.status = sweep::ScenarioStatus::kDegraded;
  result.simulate_seconds = timer.seconds();

  obs::count("sweep.scenarios");
  obs::observe_seconds("sweep.scenario_seconds", result.simulate_seconds);
  // Per-analysis-kind latency: steady/transient/fatigue scenarios have very
  // different cost profiles, so the combined histogram hides regressions.
  obs::observe_seconds(std::string("sweep.scenario_seconds.") + sweep::to_string(spec.analysis),
                       result.simulate_seconds);
  return result;
}

}  // namespace ms::core
