#include "fem/material.hpp"

#include <gtest/gtest.h>

namespace ms::fem {
namespace {

TEST(Material, LameConversionMatchesEq2) {
  const Material m{"test", 100.0, 0.25, 1e-6};
  // lambda = E nu / ((1+nu)(1-2nu)) = 100*0.25/(1.25*0.5) = 40
  EXPECT_NEAR(m.lame_lambda(), 40.0, 1e-12);
  // mu = E / (2(1+nu)) = 40
  EXPECT_NEAR(m.lame_mu(), 40.0, 1e-12);
  EXPECT_NEAR(m.thermal_modulus(), 1e-6 * (3 * 40.0 + 2 * 40.0), 1e-15);
}

TEST(Material, DMatrixStructure) {
  const Material m{"test", 210.0, 0.3, 0.0};
  const auto d = m.d_matrix();
  const double lambda = m.lame_lambda();
  const double mu = m.lame_mu();
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(d[i * kVoigt + i], lambda + 2 * mu, 1e-9);
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_NEAR(d[i * kVoigt + j], lambda, 1e-9);
      }
    }
    EXPECT_NEAR(d[(i + 3) * kVoigt + (i + 3)], mu, 1e-9);
  }
  // Normal/shear coupling is zero for isotropy.
  for (int i = 0; i < 3; ++i) {
    for (int j = 3; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(d[i * kVoigt + j], 0.0);
      EXPECT_DOUBLE_EQ(d[j * kVoigt + i], 0.0);
    }
  }
}

TEST(Material, ThermalStressUnitIsIsotropic) {
  const Material m = copper();
  const auto s = m.thermal_stress_unit();
  EXPECT_DOUBLE_EQ(s[0], s[1]);
  EXPECT_DOUBLE_EQ(s[1], s[2]);
  EXPECT_DOUBLE_EQ(s[3], 0.0);
  EXPECT_DOUBLE_EQ(s[4], 0.0);
  EXPECT_DOUBLE_EQ(s[5], 0.0);
  EXPECT_GT(s[0], 0.0);
}

TEST(Material, ValidationBounds) {
  Material bad{"bad", -1.0, 0.3, 0.0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {"bad", 1.0, 0.5, 0.0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {"bad", 1.0, -1.0, 0.0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(MaterialTable, StandardSetMapsIds) {
  const MaterialTable table = MaterialTable::standard();
  EXPECT_EQ(table.at(mesh::MaterialId::Silicon).name, "Si");
  EXPECT_EQ(table.at(mesh::MaterialId::Copper).name, "Cu");
  EXPECT_EQ(table.at(mesh::MaterialId::Liner).name, "SiO2");
  EXPECT_EQ(table.at(mesh::MaterialId::Organic).name, "organic");
  EXPECT_THROW((void)table.at(static_cast<mesh::MaterialId>(9)), std::out_of_range);
}

TEST(MaterialTable, CopperExpandsMoreThanSilicon) {
  // The physical driver of TSV stress: CTE mismatch Cu >> Si.
  EXPECT_GT(copper().cte, 5.0 * silicon().cte);
  EXPECT_LT(sio2_liner().cte, silicon().cte);
}

}  // namespace
}  // namespace ms::fem
