#pragma once
// A solved temperature field: the mesh it lives on plus one value per node.
// Provides point evaluation (trilinear interpolation through HexMesh::locate)
// and the block-averaged ΔT reductions the ROM coupling consumes.

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "la/vec.hpp"
#include "mesh/hex_mesh.hpp"

namespace ms::thermal {

using la::idx_t;
using la::Vec;

class TemperatureField {
 public:
  TemperatureField() = default;
  TemperatureField(mesh::HexMesh mesh, Vec nodal_temperature);

  [[nodiscard]] const mesh::HexMesh& mesh() const { return mesh_; }
  [[nodiscard]] const Vec& nodal() const { return t_; }

  /// Trilinear interpolation at a point (clamped to the mesh box).
  [[nodiscard]] double at(const mesh::Point3& p) const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Volume-averaged temperature of each block (y-major) of the blocks_x x
  /// blocks_y window of pitch p whose lower-left plan corner is `origin`,
  /// restricted to z in [z0, z1] (the package mesh's interposer layer).
  /// Elements with centroids outside the window are ignored; throws if any
  /// block of the window has no covering element. Exact when block
  /// boundaries coincide with mesh grid lines: the average of a trilinear
  /// function over a box is the mean of its corner values, accumulated
  /// element-wise.
  [[nodiscard]] std::vector<double> block_averages(int blocks_x, int blocks_y, double pitch,
                                                   const mesh::Point3& origin, double z0,
                                                   double z1) const;

 private:
  mesh::HexMesh mesh_;
  Vec t_;
};

/// Precomputed block reduction for repeated use (the transient stepper
/// reduces every step): element -> block binning and volume weights are
/// resolved once, so reduce() is a single pass over the elements.
class BlockAverager {
 public:
  /// Whole-mesh variant for an array mesh: each element joins the
  /// pitch-sized block (y-major) its centroid falls in, clamped into the
  /// blocks_x x blocks_y footprint.
  BlockAverager(const mesh::HexMesh& mesh, int blocks_x, int blocks_y, double pitch);

  /// Windowed variant for meshes larger than the block array (the package
  /// conduction mesh): only elements whose centroids fall inside the
  /// blocks_x x blocks_y window at `origin` with z in [z0, z1] contribute;
  /// throws if any window block has no covering element. Mirrors the
  /// windowed TemperatureField::block_averages reduction.
  BlockAverager(const mesh::HexMesh& mesh, int blocks_x, int blocks_y, double pitch,
                const mesh::Point3& origin, double z0, double z1);

  /// Volume-averaged block temperatures (y-major) of a nodal field on the
  /// mesh the averager was built for.
  [[nodiscard]] std::vector<double> reduce(const Vec& nodal) const;

  [[nodiscard]] int blocks_x() const { return blocks_x_; }
  [[nodiscard]] int blocks_y() const { return blocks_y_; }

 private:
  void build(const mesh::HexMesh& mesh, double pitch, const mesh::Point3& origin, double z0,
             double z1, bool windowed);

  int blocks_x_ = 0, blocks_y_ = 0;
  idx_t num_nodes_ = 0;
  std::vector<std::array<idx_t, 8>> elem_nodes_;  ///< node ids per element
  std::vector<std::size_t> elem_block_;           ///< block index per element
  std::vector<double> elem_weight_;               ///< elem volume / block volume
};

/// Time history of a transient conduction solve reduced to per-block ΔT:
/// what the time-domain ROM coupling consumes. ΔT is measured from the
/// reduction reference (the stress-free temperature in coupled runs); the
/// record always starts with the initial state at times[0].
struct TransientTemperatureResult {
  std::vector<double> times;       ///< recorded instants [s], t = 0 first
  int blocks_x = 0, blocks_y = 0;
  /// Per recorded instant, the y-major per-block ΔT (one entry per time).
  std::vector<std::vector<double>> block_delta_t;
  /// Per-block ΔT of largest magnitude (signed) over the whole recorded
  /// history (y-major): the transient envelope the worst-case stress
  /// evaluation uses. Stress grows with |ΔT|, so this is the worst state
  /// both for ambient-referenced heating (all ΔT >= 0, where it equals the
  /// plain max) and for reflow-referenced runs (all ΔT <= 0).
  std::vector<double> peak_envelope;
  /// Per-block trapezoidal time-average of ΔT over the recorded window: the
  /// steady-equivalent load a pulsed trace would be mistaken for.
  std::vector<double> time_average;
  /// Nodal temperature field at the final step.
  TemperatureField final_field;

  [[nodiscard]] std::size_t num_records() const { return times.size(); }
};

}  // namespace ms::thermal
