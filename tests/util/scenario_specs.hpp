#pragma once
// Helpers that assemble the ScenarioSpec of a test scenario: the query runs
// through MoreStressSimulator::simulate(spec) with pre-built inputs (power
// maps, traces, packages) in the payload slots instead of the declarative
// synthesis:
//
//   const auto r = sim.simulate(specs::with_power(specs::array_spec(3, 3), power));
//   r.thermal->load ...

#include <memory>
#include <utility>

#include "chiplet/package_model.hpp"
#include "chiplet/submodel.hpp"
#include "sweep/scenario_spec.hpp"
#include "thermal/power_map.hpp"
#include "thermal/power_trace.hpp"

namespace ms::specs {

/// A standalone blocks_x x blocks_y array, steady, under the config's
/// uniform ΔT (set delta_t or load_field to override).
inline sweep::ScenarioSpec array_spec(int blocks_x, int blocks_y) {
  sweep::ScenarioSpec spec;
  spec.kind = sweep::ScenarioKind::kArray;
  spec.blocks_x = blocks_x;
  spec.blocks_y = blocks_y;
  return spec;
}

/// A tsv_blocks_x x tsv_blocks_y sub-model padded by `dummy_rings`, steady,
/// uniform ΔT. With a package it runs in that package at `placement`;
/// without one it needs a `displacement` (or the demo package is built).
inline sweep::ScenarioSpec submodel_spec(
    int tsv_blocks_x, int tsv_blocks_y, int dummy_rings,
    std::shared_ptr<const chiplet::PackageModel> package = nullptr,
    const chiplet::SubmodelPlacement& placement = {}) {
  sweep::ScenarioSpec spec;
  spec.kind = sweep::ScenarioKind::kSubmodel;
  spec.blocks_x = tsv_blocks_x;
  spec.blocks_y = tsv_blocks_y;
  spec.dummy_rings = dummy_rings;
  spec.package = std::move(package);
  spec.placement = placement;
  return spec;
}

/// `spec` as a steady power-map scenario driven by `power`.
inline sweep::ScenarioSpec with_power(sweep::ScenarioSpec spec, const thermal::PowerMap& power) {
  spec.analysis = sweep::AnalysisKind::kSteady;
  spec.load = sweep::LoadKind::kPower;
  spec.power_map = std::make_shared<const thermal::PowerMap>(power);
  return spec;
}

/// `spec` as a transient (default) or fatigue scenario marched through
/// `trace`.
inline sweep::ScenarioSpec with_trace(sweep::ScenarioSpec spec, const thermal::PowerTrace& trace,
                                      sweep::AnalysisKind analysis =
                                          sweep::AnalysisKind::kTransient) {
  spec.analysis = analysis;
  spec.load = sweep::LoadKind::kTrace;
  spec.power_trace = std::make_shared<const thermal::PowerTrace>(trace);
  return spec;
}

}  // namespace ms::specs
