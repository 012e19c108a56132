#pragma once
// The abstract global "mesh" of the global stage (paper Fig. 4(b)(c)): a
// regular grid of unit blocks, each an abstract element whose DoFs are the
// surface interpolation nodes. Adjacent blocks share face nodes; grid nodes
// strictly inside a block are not DoFs.

#include <vector>

#include "rom/surface_nodes.hpp"

namespace ms::rom {

class BlockGrid {
 public:
  /// blocks_x x blocks_y blocks, one block thick in z. Node counts and block
  /// dimensions come from the surface-node set (which all block models in
  /// the array must share).
  BlockGrid(int blocks_x, int blocks_y, int nodes_x, int nodes_y, int nodes_z, double pitch,
            double height);

  [[nodiscard]] int blocks_x() const { return blocks_x_; }
  [[nodiscard]] int blocks_y() const { return blocks_y_; }
  [[nodiscard]] int num_blocks() const { return blocks_x_ * blocks_y_; }

  /// Grid-line counts of the global interpolation-node lattice.
  [[nodiscard]] int grid_x() const { return gx_; }
  [[nodiscard]] int grid_y() const { return gy_; }
  [[nodiscard]] int grid_z() const { return gz_; }

  [[nodiscard]] idx_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] idx_t num_dofs() const { return 3 * num_nodes_; }

  /// Global node index of lattice point (gi, gj, gk), or -1 if the point is
  /// strictly interior to a block (not a DoF).
  [[nodiscard]] idx_t node_at(int gi, int gj, int gk) const {
    return index_of_[(static_cast<std::size_t>(gk) * gy_ + gj) * gx_ + gi];
  }

  /// Lattice point (gi, gj, gk) of a global node.
  [[nodiscard]] const std::array<int, 3>& node_ijk(idx_t node) const { return ijk_[node]; }

  /// Physical position of a global node.
  [[nodiscard]] mesh::Point3 node_position(idx_t node) const;

  /// Global dof ids of block (bx, by), ordered exactly like the local-stage
  /// element DoFs (surface-node order x 3 components). Length n.
  [[nodiscard]] std::vector<idx_t> block_dofs(int bx, int by) const;

  /// Global nodes on the top or bottom face of the array (clamped-surface
  /// boundary condition of scenario 1).
  [[nodiscard]] std::vector<idx_t> nodes_top_bottom() const;

  /// Global nodes on any outer face of the array (sub-modeling boundary).
  [[nodiscard]] std::vector<idx_t> nodes_outer_boundary() const;

  [[nodiscard]] const SurfaceNodeSet& surface_nodes() const { return sns_; }

 private:
  int blocks_x_, blocks_y_;
  int nx_, ny_, nz_;   // per-block node counts
  double pitch_, height_;
  int gx_, gy_, gz_;   // lattice sizes
  idx_t num_nodes_ = 0;
  std::vector<idx_t> index_of_;         // lattice -> global node (-1 interior)
  std::vector<std::array<int, 3>> ijk_; // global node -> lattice coords
  SurfaceNodeSet sns_;
};

/// Rectangular sub-region of blocks [bx0, bx1) x [by0, by1).
struct BlockRange {
  int bx0 = 0, bx1 = 0, by0 = 0, by1 = 0;

  [[nodiscard]] int width() const { return bx1 - bx0; }
  [[nodiscard]] int height() const { return by1 - by0; }

  static BlockRange all(const BlockGrid& grid) {
    return {0, grid.blocks_x(), 0, grid.blocks_y()};
  }
};

}  // namespace ms::rom
