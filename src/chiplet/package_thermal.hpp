#pragma once
// Conduction model of the whole chiplet package (scenario 2, thermally
// coupled): one structured hex mesh over substrate + interposer + die with
// the same voxel treatment the mechanical coarse model uses, but carrying
// per-element effective conductivities instead of stiffness. Grid lines
// conform to every layer boundary AND to the unit-block boundaries of the
// embedded sub-model window, so the windowed thermal::BlockAverager reduces
// the solved field to an exact per-block ΔT for the ROM global stage. Heat
// enters through a PowerMap on the package top face (the die active layer)
// and leaves through the substrate bottom sink installed by the thermal
// solver.

#include <cstdint>
#include <vector>

#include "chiplet/package_model.hpp"
#include "chiplet/submodel.hpp"
#include "mesh/tsv_block.hpp"
#include "thermal/conduction_assembler.hpp"

namespace ms::chiplet {

/// Mesh density and material fallbacks of the package conduction mesh.
struct PackageThermalSpec {
  int elems_per_block_xy = 2;   ///< elements across a pitch inside the window
  int coarse_elems_xy = 24;     ///< target plan resolution outside the window
  int elems_z_substrate = 3;
  int elems_z_interposer = 4;
  int elems_z_die = 3;
  /// Mold/underfill conductivity [W/(m K)] for cells outside the stack; must
  /// stay positive so the conduction operator remains SPD.
  double filler_conductivity = 0.5;
  /// Mold/underfill volumetric heat capacity [J/(m^3 K)] for the transient
  /// stepper; must stay positive so the capacitance matrix remains SPD.
  double filler_heat_capacity = 1.7e6;
  thermal::ConductivityModel conductivity_model = thermal::ConductivityModel::kTsvAware;

  void validate() const;
};

/// The assembled conduction model: mesh plus per-element orthotropic
/// conductivities (in-plane / through-plane differ only in the TSV window)
/// and per-element volumetric heat capacities (same centroid rule; consumed
/// by the transient θ-stepper).
struct PackageThermalModel {
  mesh::HexMesh mesh;
  thermal::ConductivityField conductivity;
  la::Vec capacity;
};

/// Build the package conduction mesh and its conductivity field. `placement`
/// locates the padded sub-model window (blocks_x x blocks_y unit blocks,
/// dummy rings included) inside the interposer; `tsv_mask` follows the
/// build_array_mesh convention (y-major, 1 = TSV block, empty = all TSV).
/// Dummy blocks conduct like bulk Si, active blocks take the TSV-aware
/// effective tensor of spec.conductivity_model.
PackageThermalModel build_package_thermal_model(const PackageGeometry& geometry,
                                                const mesh::TsvGeometry& tsv,
                                                const SubmodelPlacement& placement,
                                                const std::vector<std::uint8_t>& tsv_mask,
                                                const fem::MaterialTable& materials,
                                                const PackageThermalSpec& spec = {});

}  // namespace ms::chiplet
