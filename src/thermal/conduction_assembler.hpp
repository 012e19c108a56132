#pragma once
// Assembly of the steady-state conduction system K T = f over a HexMesh.
// One DoF per node (dof = node id), so the fem Dirichlet elimination
// applies unchanged. Heat enters through a PowerMap sampled on the z-max
// face (the active-layer convention for dies); it leaves through a Dirichlet
// or convective ambient boundary installed by the thermal solver.
//
// Units: mesh in um, conductivity in W/(m K), power maps in W/mm^2, film
// coefficients in W/(m^2 K); assembled entries are W/K and W, temperatures
// in degrees C.

#include <cstdint>
#include <vector>

#include "fem/material.hpp"
#include "la/sparse.hpp"
#include "mesh/tsv_block.hpp"
#include "thermal/power_map.hpp"

namespace ms::thermal {

using la::CsrMatrix;
using la::idx_t;
using la::Vec;

/// Conduction triplets with per-element in-plane (x = y) and through-plane
/// (z) conductivities (each of size num_elems), the form the TSV-aware
/// effective block model produces; compose with boundary terms before
/// compressing to CSR.
la::TripletList conduction_triplets(const mesh::HexMesh& mesh, const Vec& in_plane_per_elem,
                                    const Vec& through_plane_per_elem);

/// Capacitance (thermal mass) triplets with per-element volumetric heat
/// capacities (size num_elems, J/(m^3 K)): the M of the transient system
/// M dT/dt + K T = f. `lumped` row-sums each element matrix onto the
/// diagonal (the robust default for implicit stepping); consistent keeps the
/// full tensor-product mass.
la::TripletList capacitance_triplets(const mesh::HexMesh& mesh, const Vec& capacity_per_elem,
                                     bool lumped);

/// Volume-weighted effective heat capacity of a TSV unit block [J/(m^3 K)].
/// Unlike conductivity, the volume average is exact for capacity (it is an
/// extensive quantity), so there is one estimate, not a Voigt/Reuss pair.
double effective_block_capacity(const mesh::TsvGeometry& geometry,
                                const fem::MaterialTable& materials);

/// Load vector of `power` applied as a surface flux on the z-max face; the
/// map is sampled at each top-face centroid (elements finer than tiles see
/// exact tile values, coarser elements see the centroid tile).
Vec assemble_power_load(const mesh::HexMesh& mesh, const PowerMap& power);

/// Add a convective (Robin) ambient boundary on a z face: the stiffness
/// gains the film matrix. The solvers work in the rise over ambient, so the
/// film's ambient term, and with it any rhs share, is zero. `face` is 0 for
/// z-min, 1 for z-max.
void add_convective_face(const mesh::HexMesh& mesh, double film_coefficient, int face,
                         la::TripletList& triplets);

/// Area-weighted vertical effective conductivity of a TSV unit block
/// (parallel Cu / liner / Si paths): the coarse array thermal mesh uses one
/// isotropic value per block instead of resolving the via. This is the Voigt
/// (arithmetic, parallel-path) bound of the three-phase mixture.
double effective_block_conductivity(const mesh::TsvGeometry& geometry,
                                    const fem::MaterialTable& materials);

/// Reuss (harmonic, series-path) bound of the same mixture: the lower bracket
/// any admissible effective conductivity must respect.
double reuss_block_conductivity(const mesh::TsvGeometry& geometry,
                                const fem::MaterialTable& materials);

/// In-plane effective conductivity of a TSV unit block: the liner-coated
/// copper cylinder is first homogenized (2D coated-inclusion formula), then
/// embedded in the silicon matrix with the 2D Maxwell-Garnett mixing rule at
/// the via area fraction. Lies strictly within the Voigt/Reuss bracket.
double maxwell_garnett_in_plane_conductivity(const mesh::TsvGeometry& geometry,
                                             const fem::MaterialTable& materials);

/// How unit-block conductivities are derived for coarse thermal meshes.
enum class ConductivityModel {
  kViaAveraged,  ///< PR-1 behaviour: one isotropic Voigt average for every block
  kTsvAware,     ///< per-block: dummy = bulk Si; TSV = anisotropic (MG / Voigt)
};

/// Effective conductivity of one unit block, split into the two independent
/// components of the transversely isotropic tensor (x = y in plane, z through).
struct BlockConductivity {
  double in_plane = 0.0;       ///< kx = ky [W/(m K)]
  double through_plane = 0.0;  ///< kz [W/(m K)]
};

/// Per-block effective conductivity: dummy blocks (is_tsv = false) conduct
/// like bulk silicon under kTsvAware; TSV blocks combine the through-plane
/// Voigt average (parallel via) with the in-plane Maxwell-Garnett estimate
/// (liner-shielded via). kViaAveraged reproduces the PR-1 isotropic value for
/// every block regardless of is_tsv.
BlockConductivity block_conductivity(const mesh::TsvGeometry& geometry,
                                     const fem::MaterialTable& materials, bool is_tsv,
                                     ConductivityModel model);

/// Per-block effective volumetric heat capacity [J/(m^3 K)], the companion
/// of block_conductivity for transient solves: dummy blocks hold bulk
/// silicon under kTsvAware, TSV blocks (and every block under kViaAveraged)
/// the exact volume-weighted three-phase average.
double block_capacity(const mesh::TsvGeometry& geometry, const fem::MaterialTable& materials,
                      bool is_tsv, ConductivityModel model);

/// Per-element orthotropic conductivity field over a coarse thermal mesh
/// (one in-plane and one through-plane value per element).
struct ConductivityField {
  Vec in_plane;
  Vec through_plane;
};

/// Centroid -> unit-block binning (clamped floor) plus the y-major TSV mask
/// convention (1 = TSV, empty = all TSV): the one owner of the block-lookup
/// rules every per-block field builder (conductivity, capacity, array and
/// package meshes) shares.
class BlockBinning {
 public:
  BlockBinning(int blocks_x, int blocks_y, double pitch, std::vector<std::uint8_t> tsv_mask);

  /// Whether the block containing window-local plan point (x, y) carries a
  /// via; callers outside the window must not ask (coordinates are clamped).
  [[nodiscard]] bool is_tsv(double x, double y) const;

  [[nodiscard]] int blocks_x() const { return blocks_x_; }
  [[nodiscard]] int blocks_y() const { return blocks_y_; }

 private:
  int blocks_x_, blocks_y_;
  double pitch_;
  std::vector<std::uint8_t> mask_;
};

/// Per-block conductivity lookup for a window of unit blocks, layered on
/// BlockBinning.
class BlockConductivityMap {
 public:
  BlockConductivityMap(const mesh::TsvGeometry& geometry, const fem::MaterialTable& materials,
                       int blocks_x, int blocks_y, std::vector<std::uint8_t> tsv_mask,
                       ConductivityModel model);

  /// Conductivity of the block containing window-local plan point (x, y);
  /// callers outside the window must not ask (coordinates are clamped).
  [[nodiscard]] const BlockConductivity& at(double x, double y) const;

 private:
  BlockBinning binning_;
  BlockConductivity tsv_k_, dummy_k_;
};

}  // namespace ms::thermal
