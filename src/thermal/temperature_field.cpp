#include "thermal/temperature_field.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fem/hex8.hpp"

namespace ms::thermal {

TemperatureField::TemperatureField(mesh::HexMesh mesh, Vec nodal_temperature)
    : mesh_(std::move(mesh)), t_(std::move(nodal_temperature)) {
  if (t_.size() != static_cast<std::size_t>(mesh_.num_nodes())) {
    throw std::invalid_argument("TemperatureField: one temperature per node required");
  }
}

double TemperatureField::at(const mesh::Point3& p) const {
  const auto loc = mesh_.locate(p);
  const auto shapes = fem::hex8_shape(loc.xi, loc.eta, loc.zeta);
  const auto nodes = mesh_.elem_nodes(loc.elem);
  double sum = 0.0;
  for (int a = 0; a < fem::kHexNodes; ++a) sum += shapes[a] * t_[nodes[a]];
  return sum;
}

double TemperatureField::min() const { return *std::min_element(t_.begin(), t_.end()); }

double TemperatureField::max() const { return *std::max_element(t_.begin(), t_.end()); }

BlockAverager::BlockAverager(const mesh::HexMesh& mesh, int blocks_x, int blocks_y, double pitch)
    : blocks_x_(blocks_x), blocks_y_(blocks_y), num_nodes_(mesh.num_nodes()) {
  build(mesh, pitch, mesh::Point3{0.0, 0.0, 0.0}, 0.0, 0.0, /*windowed=*/false);
}

BlockAverager::BlockAverager(const mesh::HexMesh& mesh, int blocks_x, int blocks_y, double pitch,
                             const mesh::Point3& origin, double z0, double z1)
    : blocks_x_(blocks_x), blocks_y_(blocks_y), num_nodes_(mesh.num_nodes()) {
  if (z1 <= z0) throw std::invalid_argument("block_averages: need z1 > z0");
  build(mesh, pitch, origin, z0, z1, /*windowed=*/true);
}

void BlockAverager::build(const mesh::HexMesh& mesh, double pitch, const mesh::Point3& origin,
                          double z0, double z1, bool windowed) {
  if (blocks_x_ < 1 || blocks_y_ < 1) {
    throw std::invalid_argument("block_averages: need >= 1 block per axis");
  }
  if (pitch <= 0.0) throw std::invalid_argument("block_averages: pitch must be positive");
  elem_nodes_.reserve(static_cast<std::size_t>(mesh.num_elems()));
  elem_block_.reserve(elem_nodes_.capacity());
  elem_weight_.reserve(elem_nodes_.capacity());
  std::vector<double> vol(static_cast<std::size_t>(blocks_x_) * blocks_y_, 0.0);
  for (idx_t e = 0; e < mesh.num_elems(); ++e) {
    const mesh::Point3 c = mesh.elem_centroid(e);
    int bx, by;
    if (windowed) {
      if (c.z < z0 || c.z > z1) continue;
      bx = static_cast<int>(std::floor((c.x - origin.x) / pitch));
      by = static_cast<int>(std::floor((c.y - origin.y) / pitch));
      if (bx < 0 || bx >= blocks_x_ || by < 0 || by >= blocks_y_) continue;
    } else {
      bx = std::clamp(static_cast<int>(c.x / pitch), 0, blocks_x_ - 1);
      by = std::clamp(static_cast<int>(c.y / pitch), 0, blocks_y_ - 1);
    }
    elem_nodes_.push_back(mesh.elem_nodes(e));
    elem_block_.push_back(static_cast<std::size_t>(by) * blocks_x_ + bx);
    elem_weight_.push_back(mesh.elem_volume(e));
    vol[elem_block_.back()] += elem_weight_.back();
  }
  for (std::size_t b = 0; b < vol.size(); ++b) {
    if (vol[b] <= 0.0) throw std::logic_error("block_averages: block not covered by the mesh");
  }
  for (std::size_t e = 0; e < elem_weight_.size(); ++e) elem_weight_[e] /= vol[elem_block_[e]];
}

std::vector<double> BlockAverager::reduce(const Vec& nodal) const {
  if (nodal.size() != static_cast<std::size_t>(num_nodes_)) {
    throw std::invalid_argument("BlockAverager::reduce: one value per mesh node required");
  }
  std::vector<double> avg(static_cast<std::size_t>(blocks_x_) * blocks_y_, 0.0);
  for (std::size_t e = 0; e < elem_nodes_.size(); ++e) {
    double mean = 0.0;
    for (idx_t node : elem_nodes_[e]) mean += nodal[node];
    avg[elem_block_[e]] += elem_weight_[e] * (mean / 8.0);
  }
  return avg;
}

std::vector<double> TemperatureField::block_averages(int blocks_x, int blocks_y, double pitch,
                                                     const mesh::Point3& origin, double z0,
                                                     double z1) const {
  // Delegating keeps one windowed reduction: a caller composing the layer
  // calls gets the simulator's per-block values bit for bit.
  return BlockAverager(mesh_, blocks_x, blocks_y, pitch, origin, z0, z1).reduce(t_);
}

}  // namespace ms::thermal
