#include "rom/rom_model.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace ms::rom {
namespace {

constexpr char kMagic[8] = {'M', 'S', 'R', 'O', 'M', '0', '0', '4'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void write_bytes(std::FILE* f, const void* data, std::size_t bytes) {
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("RomModel::save: write failed");
  }
}

void read_bytes(std::FILE* f, void* data, std::size_t bytes) {
  if (std::fread(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("RomModel::load: unexpected end of file");
  }
}

template <typename T>
void write_pod(std::FILE* f, const T& value) {
  write_bytes(f, &value, sizeof(T));
}

template <typename T>
T read_pod(std::FILE* f) {
  T value{};
  read_bytes(f, &value, sizeof(T));
  return value;
}

void write_matrix(std::FILE* f, const DenseMatrix& m) {
  write_pod<std::int64_t>(f, m.rows());
  write_pod<std::int64_t>(f, m.cols());
  if (!m.data().empty()) write_bytes(f, m.data().data(), m.data().size() * sizeof(double));
}

DenseMatrix read_matrix(std::FILE* f) {
  const auto rows = read_pod<std::int64_t>(f);
  const auto cols = read_pod<std::int64_t>(f);
  if (rows < 0 || cols < 0) throw std::runtime_error("RomModel::load: corrupt matrix header");
  DenseMatrix m(static_cast<idx_t>(rows), static_cast<idx_t>(cols));
  if (!m.data().empty()) read_bytes(f, m.data().data(), m.data().size() * sizeof(double));
  return m;
}

void write_vec(std::FILE* f, const Vec& v) {
  write_pod<std::int64_t>(f, static_cast<std::int64_t>(v.size()));
  if (!v.empty()) write_bytes(f, v.data(), v.size() * sizeof(double));
}

Vec read_vec(std::FILE* f) {
  const auto n = read_pod<std::int64_t>(f);
  if (n < 0) throw std::runtime_error("RomModel::load: corrupt vector header");
  Vec v(static_cast<std::size_t>(n));
  if (!v.empty()) read_bytes(f, v.data(), v.size() * sizeof(double));
  return v;
}

}  // namespace

SurfaceNodeSet RomModel::surface_nodes() const {
  return SurfaceNodeSet(nodes_x, nodes_y, nodes_z, geometry.pitch, geometry.pitch,
                        geometry.height);
}

idx_t RomModel::num_element_dofs() const {
  const idx_t total = static_cast<idx_t>(nodes_x) * nodes_y * nodes_z;
  const idx_t interior = static_cast<idx_t>(nodes_x - 2) * (nodes_y - 2) * (nodes_z - 2);
  return 3 * (total - interior);
}

std::size_t RomModel::memory_bytes() const {
  return (element_stiffness.data().size() + stress_samples.data().size() +
          displacement_samples.data().size() + bump_shear_samples.data().size() +
          element_load.size()) *
         sizeof(double);
}

bool RomModel::compatible_with(const RomModel& other) const {
  return nodes_x == other.nodes_x && nodes_y == other.nodes_y && nodes_z == other.nodes_z &&
         samples_per_block == other.samples_per_block &&
         geometry.pitch == other.geometry.pitch && geometry.height == other.geometry.height &&
         mesh_spec.elems_xy == other.mesh_spec.elems_xy &&
         mesh_spec.elems_z == other.mesh_spec.elems_z;
}

void RomModel::save(const std::string& path, std::uint64_t fingerprint) const {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) throw std::runtime_error("RomModel::save: cannot open " + path);
  write_bytes(f.get(), kMagic, sizeof(kMagic));
  write_pod<std::uint64_t>(f.get(), fingerprint);
  write_pod<std::uint8_t>(f.get(), static_cast<std::uint8_t>(kind));
  write_pod<double>(f.get(), geometry.pitch);
  write_pod<double>(f.get(), geometry.diameter);
  write_pod<double>(f.get(), geometry.liner_thickness);
  write_pod<double>(f.get(), geometry.height);
  write_pod<std::int32_t>(f.get(), mesh_spec.elems_xy);
  write_pod<std::int32_t>(f.get(), mesh_spec.elems_z);
  write_pod<std::int32_t>(f.get(), nodes_x);
  write_pod<std::int32_t>(f.get(), nodes_y);
  write_pod<std::int32_t>(f.get(), nodes_z);
  write_pod<std::int32_t>(f.get(), samples_per_block);
  write_pod<std::int64_t>(f.get(), fine_mesh_dofs);
  write_pod<double>(f.get(), local_stage_seconds);
  write_matrix(f.get(), element_stiffness);
  write_vec(f.get(), element_load);
  write_matrix(f.get(), stress_samples);
  write_matrix(f.get(), displacement_samples);
  write_matrix(f.get(), bump_shear_samples);
}

RomModel RomModel::load(const std::string& path, std::uint64_t fingerprint) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) throw std::runtime_error("RomModel::load: cannot open " + path);
  char magic[sizeof(kMagic)];
  read_bytes(f.get(), magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("RomModel::load: bad magic in " + path);
  }
  if (read_pod<std::uint64_t>(f.get()) != fingerprint) {
    throw std::runtime_error("RomModel::load: " + path + " was built for other inputs");
  }
  RomModel m;
  m.kind = static_cast<BlockKind>(read_pod<std::uint8_t>(f.get()));
  m.geometry.pitch = read_pod<double>(f.get());
  m.geometry.diameter = read_pod<double>(f.get());
  m.geometry.liner_thickness = read_pod<double>(f.get());
  m.geometry.height = read_pod<double>(f.get());
  m.mesh_spec.elems_xy = read_pod<std::int32_t>(f.get());
  m.mesh_spec.elems_z = read_pod<std::int32_t>(f.get());
  m.nodes_x = read_pod<std::int32_t>(f.get());
  m.nodes_y = read_pod<std::int32_t>(f.get());
  m.nodes_z = read_pod<std::int32_t>(f.get());
  m.samples_per_block = read_pod<std::int32_t>(f.get());
  m.fine_mesh_dofs = static_cast<idx_t>(read_pod<std::int64_t>(f.get()));
  m.local_stage_seconds = read_pod<double>(f.get());
  m.element_stiffness = read_matrix(f.get());
  m.element_load = read_vec(f.get());
  m.stress_samples = read_matrix(f.get());
  m.displacement_samples = read_matrix(f.get());
  m.bump_shear_samples = read_matrix(f.get());
  return m;
}

}  // namespace ms::rom
