#include "rom/rom_model.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace ms::rom {
namespace {

RomModel tiny_model() {
  RomModel m;
  m.kind = BlockKind::Dummy;
  m.geometry = {15.0, 5.0, 0.5, 50.0};
  m.mesh_spec = {8, 4};
  m.nodes_x = 3;
  m.nodes_y = 3;
  m.nodes_z = 2;
  m.samples_per_block = 2;
  m.fine_mesh_dofs = 1234;
  m.local_stage_seconds = 0.5;
  const idx_t n = m.num_element_dofs();
  m.element_stiffness = DenseMatrix(n, n);
  for (idx_t i = 0; i < n; ++i) m.element_stiffness(i, i) = 1.0 + i;
  m.element_load.assign(n, 0.25);
  m.stress_samples = DenseMatrix(6 * 4, n + 1, 0.125);
  m.displacement_samples = DenseMatrix(3 * 4, n + 1, -0.5);
  return m;
}

TEST(RomModel, ElementDofCount) {
  RomModel m;
  m.nodes_x = 4;
  m.nodes_y = 4;
  m.nodes_z = 4;
  EXPECT_EQ(m.num_element_dofs(), 168);
  m.nodes_z = 2;
  EXPECT_EQ(m.num_element_dofs(), 3 * 4 * 4 * 2);
}

TEST(RomModel, SaveLoadRoundTrip) {
  const RomModel original = tiny_model();
  const std::string path = std::filesystem::temp_directory_path() / "ms_rom_test.bin";
  original.save(path, 0x1234);
  const RomModel loaded = RomModel::load(path, 0x1234);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.kind, original.kind);
  EXPECT_DOUBLE_EQ(loaded.geometry.pitch, original.geometry.pitch);
  EXPECT_EQ(loaded.mesh_spec.elems_xy, original.mesh_spec.elems_xy);
  EXPECT_EQ(loaded.nodes_x, original.nodes_x);
  EXPECT_EQ(loaded.samples_per_block, original.samples_per_block);
  EXPECT_EQ(loaded.fine_mesh_dofs, original.fine_mesh_dofs);
  EXPECT_DOUBLE_EQ(loaded.local_stage_seconds, original.local_stage_seconds);
  EXPECT_EQ(loaded.element_stiffness.rows(), original.element_stiffness.rows());
  EXPECT_LT(loaded.element_stiffness.frobenius_diff(original.element_stiffness), 1e-15);
  EXPECT_EQ(loaded.element_load, original.element_load);
  EXPECT_LT(loaded.stress_samples.frobenius_diff(original.stress_samples), 1e-15);
  EXPECT_LT(loaded.displacement_samples.frobenius_diff(original.displacement_samples), 1e-15);
}

TEST(RomModel, LoadRejectsMissingAndCorrupt) {
  EXPECT_THROW(RomModel::load("/nonexistent/path.bin", 0), std::runtime_error);
  const std::string path = std::filesystem::temp_directory_path() / "ms_rom_corrupt.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a rom model", f);
    std::fclose(f);
  }
  EXPECT_THROW(RomModel::load(path, 0), std::runtime_error);
  std::remove(path.c_str());
}

TEST(RomModel, LoadRejectsFileStampedForOtherInputs) {
  const std::string path = std::filesystem::temp_directory_path() / "ms_rom_stamp.bin";
  tiny_model().save(path, 0x1234);
  EXPECT_THROW(RomModel::load(path, 0x1235), std::runtime_error);
  EXPECT_NO_THROW(RomModel::load(path, 0x1234));
  // A file of the previous format revision carries no stamp at all.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    std::fputs("MSROM003", f);
    std::fclose(f);
  }
  EXPECT_THROW(RomModel::load(path, 0x1234), std::runtime_error);
  std::remove(path.c_str());
}

TEST(RomModel, CompatibilityChecks) {
  const RomModel a = tiny_model();
  RomModel b = tiny_model();
  EXPECT_TRUE(a.compatible_with(b));
  b.nodes_x = 4;
  EXPECT_FALSE(a.compatible_with(b));
  b = tiny_model();
  b.geometry.pitch = 10.0;
  EXPECT_FALSE(a.compatible_with(b));
  b = tiny_model();
  b.mesh_spec.elems_z = 9;
  EXPECT_FALSE(a.compatible_with(b));
}

TEST(RomModel, MemoryBytesCountsPayloads) {
  const RomModel m = tiny_model();
  const std::size_t expected =
      (m.element_stiffness.data().size() + m.stress_samples.data().size() +
       m.displacement_samples.data().size() + m.element_load.size()) *
      sizeof(double);
  EXPECT_EQ(m.memory_bytes(), expected);
}

TEST(RomModel, SurfaceNodesMatchConfiguration) {
  const RomModel m = tiny_model();
  const SurfaceNodeSet sns = m.surface_nodes();
  EXPECT_EQ(sns.num_dofs(), m.num_element_dofs());
}

}  // namespace
}  // namespace ms::rom
