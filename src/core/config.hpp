#pragma once
// Top-level configuration of a MORE-Stress run: geometry, materials, fine
// mesh density, interpolation-node counts, and solver choices. Every bench
// and example builds one of these and hands it to MoreStressSimulator.

#include "core/options.hpp"
#include "fem/material.hpp"
#include "fem/solver.hpp"
#include "mesh/tsv_block.hpp"
#include "rom/global_solver.hpp"
#include "rom/local_stage.hpp"
#include "thermal/thermal_solver.hpp"

namespace ms::core {

struct SimulationConfig {
  mesh::TsvGeometry geometry;
  mesh::BlockMeshSpec mesh_spec;
  fem::MaterialTable materials = fem::MaterialTable::standard();
  rom::LocalStageOptions local;    ///< (nx, ny, nz), sample resolution
  rom::GlobalSolveOptions global;  ///< reduced-system solver
  double thermal_load = -250.0;    ///< uniform ΔT [°C]: reflow 275°C -> room 25°C
  ThermalCouplingOptions coupling; ///< power-map -> ΔT coupling (thermal runs)

  /// The paper's default configuration (Sec. 5.2): p=15, d=5, t=0.5, h=50,
  /// ΔT=-250, (4,4,4) nodes.
  static SimulationConfig paper_default();
};

}  // namespace ms::core
