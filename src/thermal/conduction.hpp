#pragma once
// Scalar 8-node conduction element for the steady-state heat equation
// div(k grad T) + q = 0 on the axis-aligned hex meshes used everywhere in
// this repository. Reuses the trilinear shape machinery of fem/hex8; like
// the elastic element, the constant diagonal Jacobian lets every integral
// specialize to closed 2x2x2 Gauss sums.
//
// Unit convention (see conduction_assembler.hpp): lengths in micrometres,
// conductivity in W/(m K), surface power density in W/mm^2, temperatures in
// degrees C. The element kernels absorb the unit conversions so assembled
// systems are consistently in watts and kelvins.

#include <array>

#include "fem/hex8.hpp"

namespace ms::thermal {

/// One temperature DoF per node.
inline constexpr int kCondDofs = fem::kHexNodes;  // 8

/// Micrometre -> metre, applied once per power of length in each integral.
inline constexpr double kMicro = 1e-6;

/// W/mm^2 -> W/um^2 for surface power densities.
inline constexpr double kPerMm2ToPerUm2 = 1e-6;

/// Element conduction matrix Ke (8 x 8, row-major) = integral k grad(N_a) .
/// grad(N_b) dV for a box element of edges (hx, hy, hz) [um] and conductivity
/// k [W/(m K)]. Entries come out in W/K.
std::array<double, kCondDofs * kCondDofs> hex8_conduction_stiffness(double conductivity, double hx,
                                                                    double hy, double hz);

/// Orthotropic variant: a diagonal conductivity tensor diag(kx, ky, kz)
/// [W/(m K)] aligned with the mesh axes — the form the TSV-aware effective
/// block conductivity produces (in-plane kx = ky, through-plane kz). The
/// isotropic overload is the kx = ky = kz special case. Exactly symmetric:
/// the lower triangle mirrors the upper one.
std::array<double, kCondDofs * kCondDofs> hex8_conduction_stiffness(double kx, double ky, double kz,
                                                                    double hx, double hy,
                                                                    double hz);

/// Nodal load of a uniform normal heat flux q [W/um^2] on the z-max face:
/// q A / 4 on each of the four top nodes (bilinear face functions integrate
/// to A/4 each). Entries in W; only indices 4..7 are nonzero.
std::array<double, kCondDofs> hex8_top_flux_load(double q, double hx, double hy);

/// Consistent capacitance (thermal mass) matrix Me (8 x 8, row-major) =
/// integral c N_a N_b dV for a box element of edges (hx, hy, hz) [um] and
/// volumetric heat capacity c = rho c_p [J/(m^3 K)]. Entries come out in J/K
/// (three powers of length, so kMicro^3 converts the um^3 volume); the total
/// sums to c V. Closed form: the 1-D linear mass factors 1/3 (same corner) /
/// 1/6 (opposite corner) tensor-multiplied over the three axes.
std::array<double, kCondDofs * kCondDofs> hex8_capacitance_matrix(double capacity, double hx,
                                                                  double hy, double hz);

/// Lumped (row-sum) capacitance: c V / 8 [J/K] on each of the 8 nodes. The
/// diagonal form keeps M positive definite and makes M v a pointwise product.
std::array<double, kCondDofs> hex8_lumped_capacitance(double capacity, double hx, double hy,
                                                      double hz);

/// Bilinear face "mass" matrix scaled by a film coefficient: integral h N_a
/// N_b dA over the z-min (face = 0) or z-max (face = 1) face of the element.
/// h is in W/(m^2 K); entries come out in W/K. Used for convective (Robin)
/// ambient boundaries: Ke += M, rhs += h T_amb A / 4 on the face nodes.
std::array<double, kCondDofs * kCondDofs> hex8_face_film_matrix(double film_coefficient, double hx,
                                                               double hy, int face);

}  // namespace ms::thermal
