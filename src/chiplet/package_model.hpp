#pragma once
// Coarse chiplet package model for the sub-modeling scenario (paper Fig.
// 5(b)): an organic substrate carrying a silicon interposer carrying a
// silicon die. The coarse mesh is a single structured grid over the package
// bounding box; cells outside the stack get a near-zero-stiffness filler
// material (standard voxel treatment of voids), and the model is solved
// once with a sparse direct factorization. Its displacement field supplies
// the sub-model boundary conditions; its stress field supplies the
// superposition baseline's background.

#include <memory>

#include "fem/material.hpp"
#include "fem/solver.hpp"
#include "fem/stress.hpp"
#include "mesh/hex_mesh.hpp"

namespace ms::chiplet {

using la::idx_t;
using la::Vec;

/// All dimensions in micrometres. The interposer thickness should equal the
/// TSV height so unit blocks span it exactly.
struct PackageGeometry {
  double substrate_x = 3000.0, substrate_y = 3000.0, substrate_z = 200.0;
  double interposer_x = 2000.0, interposer_y = 2000.0, interposer_z = 50.0;
  double die_x = 1000.0, die_y = 1000.0, die_z = 100.0;

  [[nodiscard]] double total_z() const { return substrate_z + interposer_z + die_z; }
  /// z-range of the interposer layer.
  [[nodiscard]] double interposer_z0() const { return substrate_z; }
  [[nodiscard]] double interposer_z1() const { return substrate_z + interposer_z; }
  /// Lower-left corner of the interposer in plan (package is centred).
  [[nodiscard]] double interposer_x0() const { return 0.5 * (substrate_x - interposer_x); }
  [[nodiscard]] double interposer_y0() const { return 0.5 * (substrate_y - interposer_y); }
  [[nodiscard]] double die_x0() const { return 0.5 * (substrate_x - die_x); }
  [[nodiscard]] double die_y0() const { return 0.5 * (substrate_y - die_y); }

  void validate() const;
};

/// Extra material id for the void filler (appended after the standard set).
inline constexpr auto kFillerMaterial = static_cast<mesh::MaterialId>(4);

/// Material table = standard set + near-zero filler.
fem::MaterialTable package_materials();

struct CoarseMeshSpec {
  int elems_x = 24;
  int elems_y = 24;
  int elems_z_substrate = 3;
  int elems_z_interposer = 2;
  int elems_z_die = 2;
};

/// Demo package sized to host a padded_blocks x padded_blocks sub-model
/// window with comfortable margin (interposer thickness = TSV height, die
/// shadowing half the interposer). Shared by the walkthrough example and the
/// thermal bench so their measurements describe the same package.
PackageGeometry demo_package_geometry(double pitch, int padded_blocks, double tsv_height);

/// The coarse mechanical mesh density paired with demo_package_geometry.
CoarseMeshSpec demo_coarse_spec();

/// The coarse package mesh on its own (layer-conforming grid lines, material
/// ids assigned per layer): what PackageModel solves on, exposed so benches
/// and tests can assemble the package stiffness matrix without paying for a
/// solve.
mesh::HexMesh build_package_coarse_mesh(const PackageGeometry& geometry,
                                        const CoarseMeshSpec& spec);

/// The solved coarse package model.
class PackageModel {
 public:
  /// Build the coarse mesh, clamp the substrate bottom, solve for the given
  /// thermal load with a sparse direct factorization (the mesh's nested
  /// dissection + supernodal; `solve_options` overrides the solver
  /// configuration — the method is forced to "direct").
  PackageModel(const PackageGeometry& geometry, const CoarseMeshSpec& spec, double thermal_load,
               fem::FemSolveOptions solve_options = {});

  [[nodiscard]] const PackageGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const mesh::HexMesh& mesh() const { return mesh_; }
  [[nodiscard]] const fem::MaterialTable& materials() const { return materials_; }
  [[nodiscard]] const Vec& displacement() const { return u_; }
  [[nodiscard]] double thermal_load() const { return thermal_load_; }
  [[nodiscard]] const fem::FemSolveStats& stats() const { return stats_; }

  /// Coarse displacement at an arbitrary package point (trilinear).
  [[nodiscard]] std::array<double, 3> displacement_at(const mesh::Point3& p) const;

  /// Coarse stress tensor at an arbitrary package point.
  [[nodiscard]] fem::Stress6 stress_at(const mesh::Point3& p) const;

 private:
  PackageGeometry geometry_;
  fem::MaterialTable materials_;
  mesh::HexMesh mesh_;
  double thermal_load_;
  Vec u_;
  fem::FemSolveStats stats_;
};

/// The package a sub-model scenario without a package payload runs in:
/// demo_package_geometry for the padded window, demo_coarse_spec, solved
/// for `thermal_load`.
std::shared_ptr<const PackageModel> build_demo_package(double pitch, int padded_blocks,
                                                       double tsv_height, double thermal_load);

}  // namespace ms::chiplet
