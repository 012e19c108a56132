#include "chiplet/package_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "fem/hex8.hpp"
#include "fem/stress.hpp"
#include "mesh/grading.hpp"
#include "obs/trace.hpp"

namespace ms::chiplet {

void PackageGeometry::validate() const {
  if (substrate_x <= 0 || substrate_y <= 0 || substrate_z <= 0 || interposer_z <= 0 ||
      die_z <= 0) {
    throw std::invalid_argument("PackageGeometry: dimensions must be positive");
  }
  if (interposer_x > substrate_x || interposer_y > substrate_y || die_x > interposer_x ||
      die_y > interposer_y) {
    throw std::invalid_argument("PackageGeometry: layers must nest (die <= interposer <= substrate)");
  }
}

PackageGeometry demo_package_geometry(double pitch, int padded_blocks, double tsv_height) {
  PackageGeometry g;
  g.interposer_x = g.interposer_y = std::max(600.0, 2.5 * padded_blocks * pitch);
  g.interposer_z = tsv_height;
  g.substrate_x = g.substrate_y = g.interposer_x + 400.0;
  g.substrate_z = 150.0;
  g.die_x = g.die_y = 0.5 * g.interposer_x;
  g.die_z = 80.0;
  return g;
}

CoarseMeshSpec demo_coarse_spec() { return {20, 20, 3, 2, 2}; }

fem::MaterialTable package_materials() {
  // Near-zero stiffness filler for cells outside the stack. Kept positive
  // definite so the direct factorization stays valid.
  fem::Material filler{"filler", 1.0 /*MPa*/, 0.0, 0.0};
  return fem::MaterialTable(
      {fem::silicon(), fem::copper(), fem::sio2_liner(), fem::organic_substrate(), filler});
}

mesh::HexMesh build_package_coarse_mesh(const PackageGeometry& g, const CoarseMeshSpec& spec) {
  // Grid lines conform to every layer boundary in all three axes.
  const std::vector<double> xs = mesh::graded_coords(
      0.0, g.substrate_x, spec.elems_x,
      {g.interposer_x0(), g.interposer_x0() + g.interposer_x, g.die_x0(), g.die_x0() + g.die_x});
  const std::vector<double> ys = mesh::graded_coords(
      0.0, g.substrate_y, spec.elems_y,
      {g.interposer_y0(), g.interposer_y0() + g.interposer_y, g.die_y0(), g.die_y0() + g.die_y});

  std::vector<double> zs = mesh::uniform_coords(0.0, g.substrate_z, spec.elems_z_substrate);
  {
    const auto zi =
        mesh::uniform_coords(g.interposer_z0(), g.interposer_z1(), spec.elems_z_interposer);
    zs.insert(zs.end(), zi.begin() + 1, zi.end());
    const auto zd = mesh::uniform_coords(g.interposer_z1(), g.total_z(), spec.elems_z_die);
    zs.insert(zs.end(), zd.begin() + 1, zd.end());
  }
  mesh::HexMesh mesh(xs, ys, zs);

  for (idx_t e = 0; e < mesh.num_elems(); ++e) {
    const mesh::Point3 c = mesh.elem_centroid(e);
    mesh::MaterialId id = kFillerMaterial;
    if (c.z < g.substrate_z) {
      id = mesh::MaterialId::Organic;
    } else if (c.z < g.interposer_z1()) {
      const bool inside = c.x >= g.interposer_x0() && c.x <= g.interposer_x0() + g.interposer_x &&
                          c.y >= g.interposer_y0() && c.y <= g.interposer_y0() + g.interposer_y;
      id = inside ? mesh::MaterialId::Silicon : kFillerMaterial;
    } else {
      const bool inside = c.x >= g.die_x0() && c.x <= g.die_x0() + g.die_x &&
                          c.y >= g.die_y0() && c.y <= g.die_y0() + g.die_y;
      id = inside ? mesh::MaterialId::Silicon : kFillerMaterial;
    }
    mesh.set_material(e, id);
  }
  return mesh;
}

PackageModel::PackageModel(const PackageGeometry& geometry, const CoarseMeshSpec& spec,
                           double thermal_load, fem::FemSolveOptions solve_options)
    : geometry_(geometry),
      materials_(package_materials()),
      mesh_(build_package_coarse_mesh(geometry, spec)),
      thermal_load_(thermal_load) {
  MS_TRACE_SCOPE("chiplet.package.build");
  geometry_.validate();
  // Clamp the substrate bottom face; everything else is free (warpage).
  std::vector<idx_t> bottom;
  const idx_t layer = mesh_.nodes_x() * mesh_.nodes_y();
  for (idx_t id = 0; id < layer; ++id) bottom.push_back(id);
  const fem::DirichletBc bc = fem::DirichletBc::clamp_nodes(bottom);

  solve_options.method = "direct";
  u_ = fem::solve_thermal_stress(mesh_, materials_, thermal_load_, bc, solve_options, &stats_);
}

std::array<double, 3> PackageModel::displacement_at(const mesh::Point3& p) const {
  const auto loc = mesh_.locate(p);
  const auto shapes = fem::hex8_shape(loc.xi, loc.eta, loc.zeta);
  const auto nodes = mesh_.elem_nodes(loc.elem);
  std::array<double, 3> u{};
  for (int a = 0; a < fem::kHexNodes; ++a) {
    for (int c = 0; c < 3; ++c) u[c] += shapes[a] * u_[fem::dof_of(nodes[a], c)];
  }
  return u;
}

fem::Stress6 PackageModel::stress_at(const mesh::Point3& p) const {
  return fem::stress_at(mesh_, materials_, u_, thermal_load_, p);
}

std::shared_ptr<const PackageModel> build_demo_package(double pitch, int padded_blocks,
                                                       double tsv_height, double thermal_load) {
  return std::make_shared<const PackageModel>(
      demo_package_geometry(pitch, padded_blocks, tsv_height), demo_coarse_spec(), thermal_load);
}

}  // namespace ms::chiplet
