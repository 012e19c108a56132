#pragma once
// The per-scenario option structs, consolidated in one header so every
// consumer — SimulationConfig and sweep::ScenarioSpec — embeds the same
// definitions instead of re-plumbing them. The solver-level structs they compose
// (rom::GlobalSolveOptions, rom::LocalStageOptions, thermal::*SolveOptions)
// stay with their subsystems; this header is the core-facing aggregation.

#include "thermal/thermal_solver.hpp"

namespace ms::core {

/// Controls of the conduction -> ROM coupling (power-map and trace
/// scenarios): the coarse thermal meshes, the conduction solve, and the
/// reference temperature the per-block ΔT is measured from.
struct ThermalCouplingOptions {
  thermal::ThermalSolveOptions solve;  ///< sink/ambient + conduction solver
  /// Transient and fatigue controls (trace scenarios): time step,
  /// step count, θ-scheme, capacitance lumping. The sink/ambient data is
  /// taken from `solve` so steady and transient runs see one boundary model.
  thermal::TransientSolveOptions transient;
  int elems_per_block_xy = 2;          ///< thermal-mesh elements across a pitch
  int elems_z = 8;                     ///< elements through the block height
                                       ///< (array mesh / interposer layer)
  /// Stress-free temperature [C]: ΔT_block = T_block - stress_free. The
  /// default equals the ambient, so stresses are purely operational
  /// (power-driven); set it to the reflow temperature to superpose the
  /// paper's assembly load.
  double stress_free_temperature = 25.0;
  /// How per-block effective conductivities are derived. kTsvAware resolves
  /// dummy blocks (bulk Si) vs active blocks (anisotropic in-plane /
  /// through-plane); kViaAveraged keeps the PR-1 single isotropic average.
  thermal::ConductivityModel conductivity_model = thermal::ConductivityModel::kTsvAware;
  // Package conduction mesh (sub-model power-map and trace scenarios only):
  int package_coarse_elems_xy = 24;      ///< plan resolution outside the window
  int package_elems_z_substrate = 3;
  int package_elems_z_die = 3;
  double package_filler_conductivity = 0.5;  ///< mold/underfill [W/(m K)]
};

/// Controls of the cycle-resolved fatigue scenarios.
struct FatigueOptions {
  /// ROM-solve every k-th recorded transient step (the last recorded step is
  /// always included). 1 = every step; larger strides trade channel
  /// resolution for panel width.
  int record_stride = 1;
  /// Rainflow matrix binning of the reported dominant cycle classes.
  int range_bins = 8;
  int mean_bins = 4;
  /// Engelmaier parameters of the bump-shear channel: solder shear modulus
  /// [MPa] at 20 C (eutectic SnPb default) and mean joint temperature [C].
  double solder_shear_modulus = 5.6e3;
  double solder_mean_temperature = 60.0;
  /// Softening of the solder shear modulus with the mean joint temperature
  /// [MPa/C]: G_eff = G + slope * (T_mean - 20). The eutectic SnPb default
  /// (-40 MPa/C) follows the classic linear G(T) fits; set 0 to restore a
  /// temperature-independent modulus.
  double solder_shear_modulus_slope = -40.0;
  /// Cycle frequency feeding the Engelmaier exponent [cycles/day];
  /// 0 derives one trace pass per trace duration (86400 s / duration),
  /// capped at 1e6 — sub-millisecond bench traces would otherwise leave
  /// the classic correlation's validity and flip the exponent's sign.
  /// An explicit value is used as given (and may throw if absurd).
  double cycles_per_day = 0.0;
};

}  // namespace ms::core
