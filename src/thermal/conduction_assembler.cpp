#include "thermal/conduction_assembler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "fem/assembler.hpp"
#include "thermal/conduction.hpp"

namespace ms::thermal {

namespace {

/// What an element's conduction or capacitance terms depend on: its edge
/// lengths, one or two coefficients and whether it carries the film.
using ElementKey = std::tuple<double, double, double, double, double, bool>;

ElementKey element_key(const mesh::HexMesh& mesh, idx_t e, double a, double b, bool film) {
  const mesh::Point3 lo = mesh.elem_min(e);
  const mesh::Point3 hi = mesh.elem_max(e);
  return {hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, a, b, film};
}

void require_per_elem(const mesh::HexMesh& mesh, const Vec& field, const char* what) {
  if (field.size() != static_cast<std::size_t>(mesh.num_elems())) {
    throw std::invalid_argument(std::string(what) + ": one value per element required");
  }
}

/// The capacitance element terms: lumped vectors or consistent matrices.
fem::ElementTerms capacitance_terms(const mesh::HexMesh& mesh, const Vec& capacity, bool lumped) {
  require_per_elem(mesh, capacity, "capacitance assembly");
  return fem::memoize_elements(
      mesh, 1, [&](idx_t e) { return element_key(mesh, e, capacity[e], 0.0, false); },
      [&](const ElementKey& key, fem::ElementTerms& terms) {
        const double hx = std::get<0>(key), hy = std::get<1>(key), hz = std::get<2>(key);
        const double c = std::get<3>(key);
        if (lumped) {
          const auto me = hex8_lumped_capacitance(c, hx, hy, hz);
          terms.vectors.insert(terms.vectors.end(), me.begin(), me.end());
        } else {
          const auto me = hex8_capacitance_matrix(c, hx, hy, hz);
          terms.matrices.insert(terms.matrices.end(), me.begin(), me.end());
        }
      });
}

}  // namespace

CsrMatrix assemble_conduction(const mesh::HexMesh& mesh, const ConductivityField& conductivity,
                              double film_coefficient) {
  require_per_elem(mesh, conductivity.in_plane, "assemble_conduction");
  require_per_elem(mesh, conductivity.through_plane, "assemble_conduction");
  if (film_coefficient < 0.0) {
    throw std::invalid_argument("assemble_conduction: film coefficient must be >= 0");
  }
  // The bottom layer's elements come first in element order.
  const idx_t bottom = film_coefficient > 0.0 ? mesh.elems_x() * mesh.elems_y() : 0;
  const fem::ElementTerms terms = fem::memoize_elements(
      mesh, 1,
      [&](idx_t e) {
        return element_key(mesh, e, conductivity.in_plane[e], conductivity.through_plane[e],
                           e < bottom);
      },
      [&](const ElementKey& key, fem::ElementTerms& terms) {
        const auto& [hx, hy, hz, k_in, k_through, film] = key;
        auto ke = hex8_conduction_stiffness(k_in, k_in, k_through, hx, hy, hz);
        if (film) {
          const auto me = hex8_face_film_matrix(film_coefficient, hx, hy, /*face=*/0);
          for (std::size_t i = 0; i < ke.size(); ++i) ke[i] += me[i];
        }
        terms.matrices.insert(terms.matrices.end(), ke.begin(), ke.end());
      });
  CsrMatrix k = fem::mesh_pattern(mesh, 1);
  fem::scatter(mesh, terms, &k, nullptr);
  return k;
}

CsrMatrix assemble_capacitance(const mesh::HexMesh& mesh, const Vec& capacity_per_elem) {
  CsrMatrix m = fem::mesh_pattern(mesh, 1);
  fem::scatter(mesh, capacitance_terms(mesh, capacity_per_elem, false), &m, nullptr);
  return m;
}

Vec assemble_lumped_capacitance(const mesh::HexMesh& mesh, const Vec& capacity_per_elem) {
  Vec m(static_cast<std::size_t>(mesh.num_nodes()), 0.0);
  fem::scatter(mesh, capacitance_terms(mesh, capacity_per_elem, true), nullptr, &m);
  return m;
}

Vec assemble_power_load(const mesh::HexMesh& mesh, const PowerMap& power) {
  Vec rhs(static_cast<std::size_t>(mesh.num_nodes()), 0.0);
  const idx_t kz = mesh.elems_z() - 1;  // top element layer
  for (idx_t j = 0; j < mesh.elems_y(); ++j) {
    for (idx_t i = 0; i < mesh.elems_x(); ++i) {
      const idx_t e = mesh.elem_id(i, j, kz);
      const mesh::Point3 c = mesh.elem_centroid(e);
      const double q = power.density_at(c.x, c.y) * kPerMm2ToPerUm2;
      if (q == 0.0) continue;
      const mesh::Point3 lo = mesh.elem_min(e);
      const mesh::Point3 hi = mesh.elem_max(e);
      const auto fe = hex8_top_flux_load(q, hi.x - lo.x, hi.y - lo.y);
      const auto nodes = mesh.elem_nodes(e);
      for (int a = 0; a < kCondDofs; ++a) rhs[nodes[a]] += fe[a];
    }
  }
  return rhs;
}

namespace {

/// The three phase areas of a unit block cross-section and their
/// conductivities, shared by every effective-medium estimate.
struct BlockPhases {
  double cu_area, liner_area, si_area, block_area;
  double k_cu, k_liner, k_si;
};

BlockPhases block_phases(const mesh::TsvGeometry& geometry, const fem::MaterialTable& materials) {
  BlockPhases p{};
  p.block_area = geometry.pitch * geometry.pitch;
  p.cu_area = M_PI * geometry.copper_radius() * geometry.copper_radius();
  p.liner_area = M_PI * geometry.liner_radius() * geometry.liner_radius() - p.cu_area;
  p.si_area = p.block_area - p.cu_area - p.liner_area;
  p.k_si = materials.at(mesh::MaterialId::Silicon).conductivity;
  p.k_cu = materials.at(mesh::MaterialId::Copper).conductivity;
  p.k_liner = materials.at(mesh::MaterialId::Liner).conductivity;
  if (p.k_si <= 0.0 || p.k_cu <= 0.0 || p.k_liner <= 0.0) {
    throw std::invalid_argument("block conductivity: material conductivities must be positive");
  }
  return p;
}

}  // namespace

double effective_block_conductivity(const mesh::TsvGeometry& geometry,
                                    const fem::MaterialTable& materials) {
  const BlockPhases p = block_phases(geometry, materials);
  return (p.si_area * p.k_si + p.cu_area * p.k_cu + p.liner_area * p.k_liner) / p.block_area;
}

double effective_block_capacity(const mesh::TsvGeometry& geometry,
                                const fem::MaterialTable& materials) {
  const BlockPhases p = block_phases(geometry, materials);
  const double c_si = materials.at(mesh::MaterialId::Silicon).volumetric_heat_capacity;
  const double c_cu = materials.at(mesh::MaterialId::Copper).volumetric_heat_capacity;
  const double c_liner = materials.at(mesh::MaterialId::Liner).volumetric_heat_capacity;
  if (c_si <= 0.0 || c_cu <= 0.0 || c_liner <= 0.0) {
    throw std::invalid_argument("block capacity: material heat capacities must be positive");
  }
  return (p.si_area * c_si + p.cu_area * c_cu + p.liner_area * c_liner) / p.block_area;
}

double block_capacity(const mesh::TsvGeometry& geometry, const fem::MaterialTable& materials,
                      bool is_tsv, ConductivityModel model) {
  if (model == ConductivityModel::kTsvAware && !is_tsv) {
    const double c_si = materials.at(mesh::MaterialId::Silicon).volumetric_heat_capacity;
    if (c_si <= 0.0) {
      throw std::invalid_argument("block_capacity: silicon heat capacity must be positive");
    }
    return c_si;
  }
  return effective_block_capacity(geometry, materials);
}

double reuss_block_conductivity(const mesh::TsvGeometry& geometry,
                                const fem::MaterialTable& materials) {
  const BlockPhases p = block_phases(geometry, materials);
  return p.block_area /
         (p.si_area / p.k_si + p.cu_area / p.k_cu + p.liner_area / p.k_liner);
}

double maxwell_garnett_in_plane_conductivity(const mesh::TsvGeometry& geometry,
                                             const fem::MaterialTable& materials) {
  const BlockPhases p = block_phases(geometry, materials);
  // Step 1: homogenize the liner-coated copper cylinder (2D core-shell
  // formula; fc is the core's share of the coated cylinder's cross-section).
  const double fc = p.cu_area / (p.cu_area + p.liner_area);
  const double k_via = p.k_liner *
                       ((1.0 + fc) * p.k_cu + (1.0 - fc) * p.k_liner) /
                       ((1.0 - fc) * p.k_cu + (1.0 + fc) * p.k_liner);
  // Step 2: 2D Maxwell-Garnett for the homogenized cylinder in the silicon
  // matrix at the via area fraction f.
  const double f = (p.cu_area + p.liner_area) / p.block_area;
  return p.k_si * ((1.0 + f) * k_via + (1.0 - f) * p.k_si) /
         ((1.0 - f) * k_via + (1.0 + f) * p.k_si);
}

BlockBinning::BlockBinning(int blocks_x, int blocks_y, double pitch,
                           std::vector<std::uint8_t> tsv_mask)
    : blocks_x_(blocks_x), blocks_y_(blocks_y), pitch_(pitch), mask_(std::move(tsv_mask)) {
  if (blocks_x_ < 1 || blocks_y_ < 1) {
    throw std::invalid_argument("BlockBinning: need >= 1 block per axis");
  }
  if (pitch_ <= 0.0) throw std::invalid_argument("BlockBinning: pitch must be positive");
  if (!mask_.empty() && mask_.size() != static_cast<std::size_t>(blocks_x_) * blocks_y_) {
    throw std::invalid_argument("BlockBinning: mask size must be blocks_x*blocks_y");
  }
}

bool BlockBinning::is_tsv(double x, double y) const {
  const int bx = std::min(std::max(static_cast<int>(x / pitch_), 0), blocks_x_ - 1);
  const int by = std::min(std::max(static_cast<int>(y / pitch_), 0), blocks_y_ - 1);
  return mask_.empty() || mask_[static_cast<std::size_t>(by) * blocks_x_ + bx] != 0;
}

BlockConductivityMap::BlockConductivityMap(const mesh::TsvGeometry& geometry,
                                           const fem::MaterialTable& materials, int blocks_x,
                                           int blocks_y, std::vector<std::uint8_t> tsv_mask,
                                           ConductivityModel model)
    : binning_(blocks_x, blocks_y, geometry.pitch, std::move(tsv_mask)),
      tsv_k_(block_conductivity(geometry, materials, /*is_tsv=*/true, model)),
      dummy_k_(block_conductivity(geometry, materials, /*is_tsv=*/false, model)) {}

const BlockConductivity& BlockConductivityMap::at(double x, double y) const {
  return binning_.is_tsv(x, y) ? tsv_k_ : dummy_k_;
}

BlockConductivity block_conductivity(const mesh::TsvGeometry& geometry,
                                     const fem::MaterialTable& materials, bool is_tsv,
                                     ConductivityModel model) {
  if (model == ConductivityModel::kViaAveraged) {
    const double k = effective_block_conductivity(geometry, materials);
    return {k, k};
  }
  if (!is_tsv) {
    // Dummy blocks carry no via: they conduct like bulk silicon.
    const double k_si = materials.at(mesh::MaterialId::Silicon).conductivity;
    if (k_si <= 0.0) {
      throw std::invalid_argument("block_conductivity: silicon conductivity must be positive");
    }
    return {k_si, k_si};
  }
  return {maxwell_garnett_in_plane_conductivity(geometry, materials),
          effective_block_conductivity(geometry, materials)};
}

}  // namespace ms::thermal
