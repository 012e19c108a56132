#pragma once
// Result structs of every simulate(spec) scenario, split out of simulator.hpp
// so consumers that only carry results around (sweep::ScenarioResult, report
// writers) need not pull in the simulator, the package model, or the solver
// entry points.

#include <vector>

#include "fem/stress.hpp"
#include "la/types.hpp"
#include "reliability/damage.hpp"
#include "reliability/stress_history.hpp"
#include "rom/global_solver.hpp"
#include "rom/load_field.hpp"
#include "thermal/temperature_field.hpp"
#include "thermal/thermal_solver.hpp"

namespace ms::core {

using la::idx_t;
using la::Vec;

/// Cost/quality record of one global-stage run: the stages around the
/// solve, plus the global solve's own record (dofs, iterations, factor
/// detail, shift) as the solver reported it.
struct RunStats {
  double local_stage_seconds = 0.0;   ///< one-shot cost (amortized)
  double assemble_seconds = 0.0;      ///< load vectors + operator (solve.assemble_seconds)
  double reconstruct_seconds = 0.0;
  std::size_t memory_bytes = 0;       ///< models + matrix + solver workspace
  rom::GlobalSolveStats solve;        ///< the one global solve (panel) of this run

  /// Paper's "computational time of our algorithm": the global stage only.
  [[nodiscard]] double global_seconds() const {
    return assemble_seconds + solve.solve_seconds + reconstruct_seconds;
  }
};

struct ArrayResult {
  std::vector<double> von_mises;      ///< mid-plane field over the region
  std::vector<fem::Stress6> stress;   ///< full tensors, same layout
  int region_blocks_x = 0;
  int region_blocks_y = 0;
  int samples_per_block = 0;
  Vec solution;                       ///< global nodal displacement
  RunStats stats;
};

/// Result of a steady power-map run (array or sub-model scenario): the stress
/// fields of ArrayResult plus the temperature solution and the per-block ΔT
/// it induced (load.values() holds the raw y-major ΔT vector). On a
/// sub-model the temperature lives on the package mesh and the load covers
/// the padded window, dummy rings included.
struct ThermalResult : ArrayResult {
  thermal::TemperatureField temperature;  ///< nodal field on the thermal mesh
  rom::BlockLoadField load;               ///< per-block ΔT fed to the ROM
  thermal::ThermalSolveStats thermal_stats;
};

/// Result of a transient power-trace run (array or sub-model scenario). The
/// ArrayResult base holds the stress at the per-block *peak-envelope* ΔT —
/// per block, the recorded ΔT of largest magnitude (signed), i.e. the worst
/// instantaneous thermal state over the trace whether ΔT is measured from
/// ambient (heating) or from a reflow reference (cooling). `snapshots` holds
/// full ROM runs at user-selected recorded steps (array scenarios only).
struct TransientResult : ArrayResult {
  thermal::TransientTemperatureResult transient;  ///< ΔT histories + envelope
  rom::BlockLoadField envelope_load;              ///< per-block peak ΔT fed to the ROM
  thermal::TransientSolveStats thermal_stats;
  std::vector<int> snapshot_steps;                ///< indices into transient.times
  std::vector<ArrayResult> snapshots;             ///< one ROM run per requested step
};

/// Result of a cycle-resolved fatigue run (array or sub-model scenario).
/// The ArrayResult base is the peak-envelope stress solve; the per-step
/// stress states ride in `history` as per-block channel records — the full
/// per-step fields are never built. The envelope and every
/// recorded step share one global assembly and one factorization
/// (stats.solve.num_factorizations == 1 on a cold direct solve,
/// stats.solve.num_rhs == history steps + 1).
struct FatigueResult : ArrayResult {
  thermal::TransientTemperatureResult transient;  ///< per-block ΔT histories
  rom::BlockLoadField envelope_load;              ///< peak ΔT fed to the base solve
  thermal::TransientSolveStats thermal_stats;
  std::vector<int> history_steps;           ///< recorded-history indices ROM-solved
  reliability::StressHistory history;       ///< per-step per-block channel peaks
  reliability::ReliabilityReport report;    ///< rainflow + Miner verdict
  double history_seconds = 0.0;             ///< channel extraction of the recorded steps
  double reliability_seconds = 0.0;         ///< rainflow counting + damage models
};

}  // namespace ms::core
