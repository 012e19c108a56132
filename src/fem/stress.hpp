#pragma once
// Stress recovery and the paper's comparison metric: the gridded von Mises
// stress on the cut plane at half the TSV height, sampled on an s x s grid
// per unit block (Sec. 5.2), and the normalized mean-absolute-error between
// two such fields.

#include <array>
#include <vector>

#include "fem/material.hpp"
#include "la/vec.hpp"
#include "mesh/hex_mesh.hpp"

namespace ms::fem {

using la::Vec;
using Stress6 = std::array<double, kVoigt>;  ///< Voigt xx,yy,zz,yz,xz,xy

/// sigma = D * (B u_e) - DT * D eps_th at the point p inside the mesh. This
/// and every other stress and strain evaluation below throw
/// std::invalid_argument unless `u` holds three values per node.
Stress6 stress_at(const mesh::HexMesh& mesh, const MaterialTable& materials, const Vec& u,
                  double thermal_load, const mesh::Point3& p);

/// Per-element ΔT variant: the containing element's own ΔT enters the
/// thermal-stress correction (reference recovery for non-uniform loads).
Stress6 stress_at(const mesh::HexMesh& mesh, const MaterialTable& materials, const Vec& u,
                  const Vec& delta_t_per_elem, const mesh::Point3& p);

/// Strain (engineering shears) at the point p.
Stress6 strain_at(const mesh::HexMesh& mesh, const Vec& u, const mesh::Point3& p);

/// von Mises equivalent stress of a Voigt tensor.
double von_mises(const Stress6& s);

/// Rectangular sampling grid at fixed z.
struct PlaneGrid {
  std::vector<double> xs;
  std::vector<double> ys;
  double z = 0.0;

  [[nodiscard]] std::size_t size() const { return xs.size() * ys.size(); }
};

/// Cell-centred s x s samples per block over an nx x ny block array of pitch
/// p, at height z. Sampling at cell centres avoids material interfaces.
PlaneGrid make_block_plane_grid(double pitch, int blocks_x, int blocks_y, int samples_per_block,
                                double z);

/// Evaluate the stress tensor at every grid point (y-major: iy * xs + ix).
std::vector<Stress6> sample_plane_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                                         const Vec& u, double thermal_load, const PlaneGrid& grid);

/// Per-element ΔT variant of the plane sampler.
std::vector<Stress6> sample_plane_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                                         const Vec& u, const Vec& delta_t_per_elem,
                                         const PlaneGrid& grid);

/// von Mises of each sample.
std::vector<double> to_von_mises(const std::vector<Stress6>& stresses);

/// Paper's error metric: mean |a - b| normalized by max |ref| (Sec. 5.2).
double normalized_mae(const std::vector<double>& ref, const std::vector<double>& test);

}  // namespace ms::fem
