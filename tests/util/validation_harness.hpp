#pragma once
// Reusable reference-FEM validation harness: run a thermally coupled ROM
// scenario, then solve the brute-force fine-mesh FEM on the *identical*
// discrete model with the *identical* per-block ΔT field (expanded to one
// value per element), and compare the mid-plane stress — and, when the local
// stage sampled displacements, the mid-plane displacement — with the paper's
// normalized error metrics. The ROM's only extra error source is boundary
// interpolation, so both scenarios must land inside the paper's reported
// error band on any mesh.
//
// Header-only so every test suite can include it as "util/validation_harness.hpp".

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "chiplet/displacement_field.hpp"
#include "chiplet/package_model.hpp"
#include "chiplet/submodel.hpp"
#include "core/simulator.hpp"
#include "fem/solver.hpp"
#include "fem/stress.hpp"
#include "mesh/tsv_block.hpp"
#include "rom/reconstruct.hpp"
#include "sweep/scenario_result.hpp"
#include "util/scenario_specs.hpp"

namespace ms::testutil {

/// Expand a per-block ΔT field onto a fine mechanical mesh: every element
/// takes the ΔT of the block its centroid falls in (the mesh lives in the
/// window-local frame, blocks of size pitch x pitch from the origin).
/// Each element writes only its own entry, so the parallel fill is
/// bitwise-deterministic at any thread count.
inline la::Vec per_element_delta_t(const mesh::HexMesh& mesh, const rom::BlockLoadField& load,
                                   int blocks_x, int blocks_y, double pitch) {
  la::Vec dt(static_cast<std::size_t>(mesh.num_elems()));
  const la::idx_t ne = mesh.num_elems();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (la::idx_t e = 0; e < ne; ++e) {
    const mesh::Point3 c = mesh.elem_centroid(e);
    const int bx = std::min(static_cast<int>(c.x / pitch), blocks_x - 1);
    const int by = std::min(static_cast<int>(c.y / pitch), blocks_y - 1);
    dt[e] = load.at(bx, by);
  }
  return dt;
}

struct ValidationReport {
  std::vector<double> rom_von_mises;
  std::vector<double> ref_von_mises;
  double von_mises_error = 0.0;      ///< normalized MAE (paper Sec. 5.2)
  double displacement_error = 0.0;   ///< max-abs error / max-abs reference
  bool has_displacement = false;     ///< local stage sampled displacements
};

namespace detail {

/// Max-abs displacement mismatch between the ROM plane reconstruction and
/// the fine field probed at the same points, normalized by the reference's
/// own max-abs component.
/// Max reductions are order-independent, so the parallel probe loop gives
/// the same answer at any thread count.
inline double displacement_max_error(const std::vector<std::array<double, 3>>& rom_disp,
                                     const chiplet::DisplacementField& ref_field,
                                     const fem::PlaneGrid& plane) {
  double max_err = 0.0;
  double max_ref = 0.0;
  const std::int64_t ny = static_cast<std::int64_t>(plane.ys.size());
  const std::int64_t nx = static_cast<std::int64_t>(plane.xs.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(static) collapse(2) \
    reduction(max : max_err) reduction(max : max_ref)
#endif
  for (std::int64_t iy = 0; iy < ny; ++iy) {
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      const auto ref = ref_field({plane.xs[ix], plane.ys[iy], plane.z});
      const std::size_t idx = static_cast<std::size_t>(iy) * nx + ix;
      for (int c = 0; c < 3; ++c) {
        max_err = std::max(max_err, std::abs(rom_disp[idx][c] - ref[c]));
        max_ref = std::max(max_ref, std::abs(ref[c]));
      }
    }
  }
  return max_ref > 0.0 ? max_err / max_ref : 0.0;
}

}  // namespace detail

/// Scenario 1/3 (standalone array, power-map driven): ROM vs brute-force
/// FEM under the coupled per-block ΔT field.
inline ValidationReport validate_array_thermal(const core::SimulationConfig& config, int blocks_x,
                                               int blocks_y, const thermal::PowerMap& power) {
  core::MoreStressSimulator sim(config);
  const core::ThermalResult rom =
      *sim.simulate(specs::with_power(specs::array_spec(blocks_x, blocks_y), power)).thermal;

  const mesh::HexMesh fine =
      mesh::build_array_mesh(config.geometry, config.mesh_spec, blocks_x, blocks_y);
  const la::Vec dt =
      per_element_delta_t(fine, rom.load, blocks_x, blocks_y, config.geometry.pitch);
  const fem::DirichletBc bc = fem::DirichletBc::clamp_nodes(fine.top_bottom_nodes());
  fem::FemSolveOptions options;
  options.method = "direct";
  const la::Vec u = fem::solve_thermal_stress(fine, config.materials, dt, bc, options);
  const fem::PlaneGrid plane =
      fem::make_block_plane_grid(config.geometry.pitch, blocks_x, blocks_y,
                                 config.local.samples_per_block, 0.5 * config.geometry.height);

  ValidationReport report;
  report.rom_von_mises = rom.von_mises;
  report.ref_von_mises =
      fem::to_von_mises(fem::sample_plane_stress(fine, config.materials, u, dt, plane));
  report.von_mises_error = fem::normalized_mae(report.ref_von_mises, report.rom_von_mises);

  if (config.local.sample_displacements) {
    const rom::BlockGrid grid(blocks_x, blocks_y, config.local.nodes_x, config.local.nodes_y,
                              config.local.nodes_z, config.geometry.pitch,
                              config.geometry.height);
    const auto rom_disp = rom::reconstruct_plane_displacement(
        grid, sim.tsv_model(), nullptr, {}, rom.solution, rom.load, rom::BlockRange::all(grid));
    const chiplet::DisplacementField ref_field(fine, u);
    report.displacement_error = detail::displacement_max_error(rom_disp, ref_field, plane);
    report.has_displacement = true;
  }
  return report;
}

/// Scenario 3, time domain: validate a transient run's envelope stress and
/// every requested snapshot against brute-force FEM under the identical
/// per-block ΔT fields. The reference side assembles the fine system once,
/// factors it once, and solves all cases as one multi-RHS panel
/// (fem::solve_thermal_stress_multi), mirroring how the simulator batches
/// the ROM-side snapshot solves against one factorization.
struct TransientValidationReport {
  double envelope_von_mises_error = 0.0;
  std::vector<double> snapshot_von_mises_errors;  ///< one per snapshot step
};

inline TransientValidationReport validate_array_thermal_transient(
    const core::SimulationConfig& config, int blocks_x, int blocks_y,
    const thermal::PowerTrace& trace, const std::vector<int>& snapshot_steps) {
  core::MoreStressSimulator sim(config);
  sweep::ScenarioSpec spec = specs::with_trace(specs::array_spec(blocks_x, blocks_y), trace);
  spec.snapshot_steps = snapshot_steps;
  const core::TransientResult rom = *sim.simulate(spec).transient;

  const mesh::HexMesh fine =
      mesh::build_array_mesh(config.geometry, config.mesh_spec, blocks_x, blocks_y);
  std::vector<la::Vec> dt_cases;
  dt_cases.reserve(snapshot_steps.size() + 1);
  dt_cases.push_back(
      per_element_delta_t(fine, rom.envelope_load, blocks_x, blocks_y, config.geometry.pitch));
  for (int step : snapshot_steps) {
    const rom::BlockLoadField load(blocks_x, blocks_y,
                                   la::Vec(rom.transient.block_delta_t[step]));
    dt_cases.push_back(per_element_delta_t(fine, load, blocks_x, blocks_y,
                                           config.geometry.pitch));
  }
  const fem::DirichletBc bc = fem::DirichletBc::clamp_nodes(fine.top_bottom_nodes());
  fem::FemSolveOptions options;
  options.method = "direct";
  const std::vector<la::Vec> solutions =
      fem::solve_thermal_stress_multi(fine, config.materials, dt_cases, bc, options);

  const fem::PlaneGrid plane =
      fem::make_block_plane_grid(config.geometry.pitch, blocks_x, blocks_y,
                                 config.local.samples_per_block, 0.5 * config.geometry.height);
  const auto von_mises_of = [&](const la::Vec& u, const la::Vec& dt) {
    return fem::to_von_mises(fem::sample_plane_stress(fine, config.materials, u, dt, plane));
  };

  TransientValidationReport report;
  report.envelope_von_mises_error =
      fem::normalized_mae(von_mises_of(solutions[0], dt_cases[0]), rom.von_mises);
  report.snapshot_von_mises_errors.reserve(snapshot_steps.size());
  for (std::size_t c = 0; c < snapshot_steps.size(); ++c) {
    report.snapshot_von_mises_errors.push_back(fem::normalized_mae(
        von_mises_of(solutions[c + 1], dt_cases[c + 1]), rom.snapshots[c].von_mises));
  }
  return report;
}

/// Scenario 2 (package sub-model, power-map driven): ROM vs brute-force FEM
/// of the padded window under the same coarse-displacement boundary data and
/// the same per-block ΔT field. Fields cover the inner TSV region only.
inline ValidationReport validate_submodel_thermal(
    const core::SimulationConfig& config,
    const std::shared_ptr<const chiplet::PackageModel>& package,
    const chiplet::SubmodelPlacement& placement, int tsv_blocks_x, int tsv_blocks_y,
    int dummy_rings, const thermal::PowerMap& power) {
  core::MoreStressSimulator sim(config);
  const core::ThermalResult rom =
      *sim.simulate(specs::with_power(specs::submodel_spec(tsv_blocks_x, tsv_blocks_y,
                                                           dummy_rings, package, placement),
                                      power))
           .thermal;

  const int bx = tsv_blocks_x + 2 * dummy_rings;
  const int by = tsv_blocks_y + 2 * dummy_rings;
  const mesh::HexMesh fine = mesh::build_array_mesh(
      config.geometry, config.mesh_spec, bx, by, mesh::padded_tsv_mask(bx, by, dummy_rings));
  const fem::DirichletBc bc = chiplet::fine_submodel_bc(fine, *package, placement);
  const la::Vec dt = per_element_delta_t(fine, rom.load, bx, by, config.geometry.pitch);
  fem::FemSolveOptions options;
  options.method = "direct";
  const la::Vec u = fem::solve_thermal_stress(fine, config.materials, dt, bc, options);

  // Sample only the inner TSV region (what the ROM reports), shifted past
  // the dummy rings in the window-local frame.
  fem::PlaneGrid plane =
      fem::make_block_plane_grid(config.geometry.pitch, tsv_blocks_x, tsv_blocks_y,
                                 config.local.samples_per_block, 0.5 * config.geometry.height);
  for (double& x : plane.xs) x += dummy_rings * config.geometry.pitch;
  for (double& y : plane.ys) y += dummy_rings * config.geometry.pitch;

  ValidationReport report;
  report.rom_von_mises = rom.von_mises;
  report.ref_von_mises =
      fem::to_von_mises(fem::sample_plane_stress(fine, config.materials, u, dt, plane));
  report.von_mises_error = fem::normalized_mae(report.ref_von_mises, report.rom_von_mises);

  if (config.local.sample_displacements) {
    const rom::BlockGrid grid(bx, by, config.local.nodes_x, config.local.nodes_y,
                              config.local.nodes_z, config.geometry.pitch,
                              config.geometry.height);
    const rom::BlockMask mask = mesh::padded_tsv_mask(bx, by, dummy_rings);
    rom::BlockRange range;
    range.bx0 = dummy_rings;
    range.bx1 = dummy_rings + tsv_blocks_x;
    range.by0 = dummy_rings;
    range.by1 = dummy_rings + tsv_blocks_y;
    const auto rom_disp = rom::reconstruct_plane_displacement(
        grid, sim.tsv_model(), dummy_rings > 0 ? &sim.dummy_model() : nullptr, mask, rom.solution,
        rom.load, range);
    const chiplet::DisplacementField ref_field(fine, u);
    report.displacement_error = detail::displacement_max_error(rom_disp, ref_field, plane);
    report.has_displacement = true;
  }
  return report;
}

}  // namespace ms::testutil
