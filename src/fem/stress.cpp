#include "fem/stress.hpp"

#include <cmath>
#include <stdexcept>

#include "fem/hex8.hpp"

namespace ms::fem {
namespace {

/// Gather the 24 element dof values for element `e`.
std::array<double, kHexDofs> gather_elem_dofs(const mesh::HexMesh& mesh, const Vec& u, la::idx_t e) {
  const auto nodes = mesh.elem_nodes(e);
  std::array<double, kHexDofs> ue;
  for (int a = 0; a < kHexNodes; ++a) {
    for (int c = 0; c < 3; ++c) ue[3 * a + c] = u[3 * nodes[a] + c];
  }
  return ue;
}

/// The one evaluation every stress and strain entry point shares; throws
/// std::invalid_argument unless `u` holds three values per node.
Stress6 strain_from_located(const mesh::HexMesh& mesh, const Vec& u,
                            const mesh::HexMesh::Location& loc) {
  if (u.size() != static_cast<std::size_t>(3 * mesh.num_nodes())) {
    throw std::invalid_argument("stress evaluation: displacement needs 3 values per node");
  }
  const mesh::Point3 lo = mesh.elem_min(loc.elem);
  const mesh::Point3 hi = mesh.elem_max(loc.elem);
  const BMatrix b =
      hex8_b_matrix(loc.xi, loc.eta, loc.zeta, hi.x - lo.x, hi.y - lo.y, hi.z - lo.z);
  const auto ue = gather_elem_dofs(mesh, u, loc.elem);
  Stress6 eps{};
  for (int r = 0; r < kVoigt; ++r) {
    double sum = 0.0;
    for (int c = 0; c < kHexDofs; ++c) sum += b[r][c] * ue[c];
    eps[r] = sum;
  }
  return eps;
}

}  // namespace

Stress6 strain_at(const mesh::HexMesh& mesh, const Vec& u, const mesh::Point3& p) {
  return strain_from_located(mesh, u, mesh.locate(p));
}

namespace {

Stress6 stress_from_located(const mesh::HexMesh& mesh, const MaterialTable& materials, const Vec& u,
                            double thermal_load, const mesh::HexMesh::Location& loc) {
  const Stress6 eps = strain_from_located(mesh, u, loc);
  const Material& mat = materials.at(mesh.material(loc.elem));
  const auto d = mat.d_matrix();
  const auto sigma_th = mat.thermal_stress_unit();
  Stress6 sigma{};
  for (int r = 0; r < kVoigt; ++r) {
    double sum = 0.0;
    for (int s = 0; s < kVoigt; ++s) sum += d[r * kVoigt + s] * eps[s];
    sigma[r] = sum - thermal_load * sigma_th[r];
  }
  return sigma;
}

}  // namespace

Stress6 stress_at(const mesh::HexMesh& mesh, const MaterialTable& materials, const Vec& u,
                  double thermal_load, const mesh::Point3& p) {
  return stress_from_located(mesh, materials, u, thermal_load, mesh.locate(p));
}

Stress6 stress_at(const mesh::HexMesh& mesh, const MaterialTable& materials, const Vec& u,
                  const Vec& delta_t_per_elem, const mesh::Point3& p) {
  if (delta_t_per_elem.size() != static_cast<std::size_t>(mesh.num_elems())) {
    throw std::invalid_argument("stress_at: one ΔT per element required");
  }
  const auto loc = mesh.locate(p);
  return stress_from_located(mesh, materials, u, delta_t_per_elem[loc.elem], loc);
}

double von_mises(const Stress6& s) {
  const double dxy = s[0] - s[1];
  const double dyz = s[1] - s[2];
  const double dzx = s[2] - s[0];
  return std::sqrt(0.5 * (dxy * dxy + dyz * dyz + dzx * dzx) +
                   3.0 * (s[3] * s[3] + s[4] * s[4] + s[5] * s[5]));
}

PlaneGrid make_block_plane_grid(double pitch, int blocks_x, int blocks_y, int samples_per_block,
                                double z) {
  if (blocks_x < 1 || blocks_y < 1 || samples_per_block < 1) {
    throw std::invalid_argument("make_block_plane_grid: positive sizes required");
  }
  PlaneGrid grid;
  grid.z = z;
  grid.xs.reserve(static_cast<std::size_t>(blocks_x) * samples_per_block);
  grid.ys.reserve(static_cast<std::size_t>(blocks_y) * samples_per_block);
  for (int b = 0; b < blocks_x; ++b) {
    for (int m = 0; m < samples_per_block; ++m) {
      grid.xs.push_back((b + (m + 0.5) / samples_per_block) * pitch);
    }
  }
  for (int b = 0; b < blocks_y; ++b) {
    for (int m = 0; m < samples_per_block; ++m) {
      grid.ys.push_back((b + (m + 0.5) / samples_per_block) * pitch);
    }
  }
  return grid;
}

std::vector<Stress6> sample_plane_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                                         const Vec& u, double thermal_load, const PlaneGrid& grid) {
  std::vector<Stress6> out;
  out.reserve(grid.size());
  for (double y : grid.ys) {
    for (double x : grid.xs) {
      out.push_back(stress_at(mesh, materials, u, thermal_load, {x, y, grid.z}));
    }
  }
  return out;
}

std::vector<Stress6> sample_plane_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                                         const Vec& u, const Vec& delta_t_per_elem,
                                         const PlaneGrid& grid) {
  std::vector<Stress6> out;
  out.reserve(grid.size());
  for (double y : grid.ys) {
    for (double x : grid.xs) {
      out.push_back(stress_at(mesh, materials, u, delta_t_per_elem, {x, y, grid.z}));
    }
  }
  return out;
}

std::vector<double> to_von_mises(const std::vector<Stress6>& stresses) {
  std::vector<double> out;
  out.reserve(stresses.size());
  for (const auto& s : stresses) out.push_back(von_mises(s));
  return out;
}

double normalized_mae(const std::vector<double>& ref, const std::vector<double>& test) {
  if (ref.size() != test.size() || ref.empty()) {
    throw std::invalid_argument("normalized_mae: size mismatch or empty input");
  }
  double sum = 0.0;
  double max_ref = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    sum += std::fabs(ref[i] - test[i]);
    max_ref = std::max(max_ref, std::fabs(ref[i]));
  }
  if (max_ref == 0.0) return 0.0;
  return sum / static_cast<double>(ref.size()) / max_ref;
}

}  // namespace ms::fem
