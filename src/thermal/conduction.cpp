#include "thermal/conduction.hpp"

#include <stdexcept>

namespace ms::thermal {

using fem::kGauss2;
using fem::kHexNodes;

std::array<double, kCondDofs * kCondDofs> hex8_conduction_stiffness(double conductivity, double hx,
                                                                    double hy, double hz) {
  return hex8_conduction_stiffness(conductivity, conductivity, conductivity, hx, hy, hz);
}

std::array<double, kCondDofs * kCondDofs> hex8_conduction_stiffness(double kx, double ky, double kz,
                                                                    double hx, double hy,
                                                                    double hz) {
  if (kx <= 0.0 || ky <= 0.0 || kz <= 0.0) {
    throw std::invalid_argument("hex8_conduction_stiffness: conductivity must be positive");
  }
  // One power of length survives in k grad N . grad N dV, so a single kMicro
  // converts the micrometre mesh to the SI conductivity. Each gradient
  // component picks up its own axis conductivity (diagonal tensor).
  const double detj_w = (hx * hy * hz) / 8.0;
  const double jac[3] = {2.0 / hx, 2.0 / hy, 2.0 / hz};
  const double k_axis[3] = {kx * kMicro, ky * kMicro, kz * kMicro};
  std::array<double, kCondDofs * kCondDofs> ke{};
  for (int gx = 0; gx < 2; ++gx) {
    for (int gy = 0; gy < 2; ++gy) {
      for (int gz = 0; gz < 2; ++gz) {
        const double xi = (gx == 0 ? -kGauss2 : kGauss2);
        const double eta = (gy == 0 ? -kGauss2 : kGauss2);
        const double zeta = (gz == 0 ? -kGauss2 : kGauss2);
        const auto grad = fem::hex8_shape_grad(xi, eta, zeta);
        std::array<std::array<double, 3>, kHexNodes> g{};
        for (int a = 0; a < kHexNodes; ++a) {
          for (int c = 0; c < 3; ++c) g[a][c] = grad[a][c] * jac[c];
        }
        for (int a = 0; a < kHexNodes; ++a) {
          for (int b = a; b < kHexNodes; ++b) {
            ke[a * kCondDofs + b] += detj_w * (k_axis[0] * g[a][0] * g[b][0] +
                                               k_axis[1] * g[a][1] * g[b][1] +
                                               k_axis[2] * g[a][2] * g[b][2]);
          }
        }
      }
    }
  }
  // The products above round differently with a and b swapped; mirroring
  // the upper triangle makes the element matrix, and every sum of them,
  // exactly symmetric.
  for (int a = 1; a < kHexNodes; ++a) {
    for (int b = 0; b < a; ++b) ke[a * kCondDofs + b] = ke[b * kCondDofs + a];
  }
  return ke;
}

std::array<double, kCondDofs> hex8_top_flux_load(double q, double hx, double hy) {
  std::array<double, kCondDofs> fe{};
  const double share = q * hx * hy / 4.0;
  for (int a = 4; a < 8; ++a) fe[a] = share;
  return fe;
}

std::array<double, kCondDofs * kCondDofs> hex8_capacitance_matrix(double capacity, double hx,
                                                                  double hy, double hz) {
  if (capacity <= 0.0) {
    throw std::invalid_argument("hex8_capacitance_matrix: heat capacity must be positive");
  }
  // Tensor product of the 1-D linear mass matrix (h/6) [2 1; 1 2]: the
  // normalized per-axis factor is 1/3 when nodes a and b sit on the same
  // side of that axis and 1/6 when they sit on opposite sides. Three powers
  // of length convert via kMicro^3.
  const double cv = capacity * (hx * hy * hz) * kMicro * kMicro * kMicro;
  // Corner order (xi,eta,zeta) = 000,100,110,010,001,101,111,011.
  static constexpr int kSide[kCondDofs][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
                                              {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};
  std::array<double, kCondDofs * kCondDofs> me{};
  for (int a = 0; a < kCondDofs; ++a) {
    for (int b = 0; b < kCondDofs; ++b) {
      double w = cv;
      for (int c = 0; c < 3; ++c) w *= (kSide[a][c] == kSide[b][c]) ? (1.0 / 3.0) : (1.0 / 6.0);
      me[a * kCondDofs + b] = w;
    }
  }
  return me;
}

std::array<double, kCondDofs> hex8_lumped_capacitance(double capacity, double hx, double hy,
                                                      double hz) {
  if (capacity <= 0.0) {
    throw std::invalid_argument("hex8_lumped_capacitance: heat capacity must be positive");
  }
  const double share = capacity * (hx * hy * hz) * kMicro * kMicro * kMicro / 8.0;
  std::array<double, kCondDofs> me{};
  me.fill(share);
  return me;
}

std::array<double, kCondDofs * kCondDofs> hex8_face_film_matrix(double film_coefficient, double hx,
                                                               double hy, int face) {
  if (face != 0 && face != 1) {
    throw std::invalid_argument("hex8_face_film_matrix: face must be 0 (z-min) or 1 (z-max)");
  }
  // Bilinear quad mass matrix on the face, cyclic corner order (00,10,11,01):
  // (A/36) * [4 2 1 2; 2 4 2 1; 1 2 4 2; 2 1 2 4]. Two powers of length, so
  // kMicro^2 converts um^2 areas against the SI film coefficient.
  static constexpr int kPattern[4][4] = {{4, 2, 1, 2}, {2, 4, 2, 1}, {1, 2, 4, 2}, {2, 1, 2, 4}};
  // Hex corner order is (00,10,11,01) on both z faces: nodes 0..3 and 4..7.
  const int base = (face == 0) ? 0 : 4;
  const double scale = film_coefficient * kMicro * kMicro * hx * hy / 36.0;
  std::array<double, kCondDofs * kCondDofs> me{};
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      me[(base + a) * kCondDofs + (base + b)] = scale * kPattern[a][b];
    }
  }
  return me;
}

}  // namespace ms::thermal
