// Seeded reference-free invariants of array and sub-model scenarios, checked
// through simulate(spec) on a small direct-solver configuration. The clamped
// array problem, the clamped package problem and the conduction problem are
// linear, so the relations below need no fine-FEM reference:
//
//   - zero load gives exactly zero stress: a uniform ΔT of 0, and zero power
//     in the steady, transient and fatigue analyses (conduction solves for
//     the rise over ambient, so zero power leaves exactly the ambient);
//   - scaling the load by 1/2 halves every stress component exactly (a
//     power-of-two scale commutes with every rounding), and by 0.3 within
//     kTolEps machine epsilons of the field's largest component;
//   - doubling a trace's power doubles the transient and fatigue stress
//     within kTolEps (the ambient is added back before the block reduction,
//     so ΔT doubles only to rounding);
//   - steady power maps superpose on the stress tensors (von Mises is not
//     linear, so tensors are compared): s(a,h) + s(0,0) = s(a,0) + s(0,h);
//   - an x-mirrored hotspot gives the x-mirrored field (xz and xy flip sign);
//   - a square array is symmetric under transposition (x <-> y): the uniform
//     load's field is its own transpose, and a hotspot at (x, y) gives the
//     transpose of the field of one at (y, x) (xx <-> yy, yz <-> xz);
//   - every column of a global panel is bitwise the steady solve of its own
//     load: a transient's envelope and snapshots, and a fatigue envelope.
//
// Sub-model rows cover the uniform load only: its boundary displacement is
// the package's, scaled to the spec's ΔT. Power and trace sub-models still
// take the package's displacement at the package's own load.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "chiplet/package_model.hpp"
#include "core/results.hpp"
#include "core/simulator.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"

namespace ms::sweep {
namespace {

using Field = std::vector<fem::Stress6>;

constexpr double kEps = std::numeric_limits<double>::epsilon();
/// Bound on an inexact relation, in machine epsilons of the field's
/// largest component. The measured residuals are about 1 eps (0.3 scaling),
/// 10 eps (superposition), 26 eps (mirror) and a few eps (power x2).
constexpr double kTolEps = 128.0;
/// Bound on the transposition rows, in machine epsilons of the field's
/// largest component; the block mesh is x/y symmetric only up to the
/// rounding of its node coordinates. Measured on this suite's 4x4 array:
/// 33 eps for the uniform load, and 27-35 eps over 49 hotspot pairs (24
/// seeded draws and a 5x5 grid of placements).
constexpr double kTransposeTolEps = 256.0;
constexpr int kEdge = 4;
constexpr int kSamples = 8;  ///< samples per block edge

core::SimulationConfig direct_config() {
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = kSamples;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  return config;
}

core::MoreStressSimulator& simulator() {
  static core::MoreStressSimulator sim(direct_config());
  return sim;
}

double max_abs(const Field& f) {
  double m = 0.0;
  for (const fem::Stress6& s : f) {
    for (double v : s) m = std::max(m, std::abs(v));
  }
  return m;
}

Field stress_of(const ScenarioSpec& spec) {
  const ScenarioResult r = simulator().simulate(spec);
  EXPECT_FALSE(r.failed()) << r.error.message;
  return r.failed() ? Field{} : r.base().stress;
}

Field uniform_stress(double delta_t) {
  ScenarioSpec spec;
  spec.blocks_x = spec.blocks_y = kEdge;
  spec.delta_t = delta_t;
  return stress_of(spec);
}

Field power_stress(double background, double hotspot_peak, double hotspot_x, double hotspot_y) {
  ScenarioSpec spec;
  spec.blocks_x = spec.blocks_y = kEdge;
  spec.load = LoadKind::kPower;
  spec.power.background = background;
  spec.power.hotspot_peak = hotspot_peak;
  spec.power.hotspot_x = hotspot_x;
  spec.power.hotspot_y = hotspot_y;
  return stress_of(spec);
}

/// Stress at the peak envelope of the declarative square-wave trace between
/// idle and the power map (background, centred hotspot peak).
Field trace_stress(AnalysisKind analysis, double background, double hotspot_peak) {
  ScenarioSpec spec;
  spec.blocks_x = spec.blocks_y = kEdge;
  spec.analysis = analysis;
  spec.load = LoadKind::kTrace;
  spec.power.background = background;
  spec.power.hotspot_peak = hotspot_peak;
  return stress_of(spec);
}

/// A 2x2 sub-model padded by one dummy ring, in the demo package solved at
/// the config's own load (built once and shared, as the sweep engine does).
ScenarioSpec submodel_spec() {
  static const std::shared_ptr<const chiplet::PackageModel> package = [] {
    const core::SimulationConfig& config = simulator().config();
    return chiplet::build_demo_package(config.geometry.pitch, 4, config.geometry.height,
                                       config.thermal_load);
  }();
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kSubmodel;
  spec.blocks_x = spec.blocks_y = 2;
  spec.dummy_rings = 1;
  spec.package = package;
  return spec;
}

Field submodel_stress(double delta_t) {
  ScenarioSpec spec = submodel_spec();
  spec.delta_t = delta_t;
  return stress_of(spec);
}

void expect_all_zero(const Field& f) {
  ASSERT_FALSE(f.empty());
  for (const fem::Stress6& s : f) {
    for (double v : s) ASSERT_EQ(v, 0.0);
  }
}

void expect_exact_half(const Field& half, const Field& full) {
  ASSERT_EQ(half.size(), full.size());
  ASSERT_GT(max_abs(full), 0.0);
  for (std::size_t p = 0; p < full.size(); ++p) {
    for (int c = 0; c < fem::kVoigt; ++c) ASSERT_EQ(half[p][c], 0.5 * full[p][c]);
  }
}

/// max |a - b| over every component, each side a signed sum of fields.
double max_diff(const std::vector<std::pair<double, const Field*>>& lhs,
                const std::vector<std::pair<double, const Field*>>& rhs) {
  const std::size_t n = lhs.front().second->size();
  double m = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    for (int c = 0; c < fem::kVoigt; ++c) {
      double l = 0.0;
      double r = 0.0;
      for (const auto& [w, f] : lhs) l += w * (*f)[p][c];
      for (const auto& [w, f] : rhs) r += w * (*f)[p][c];
      m = std::max(m, std::abs(l - r));
    }
  }
  return m;
}

/// The field of the x-mirrored problem: columns reversed, and the two shear
/// components with one x index (xz, xy) negated.
Field mirror_x(const Field& f) {
  const std::size_t width = static_cast<std::size_t>(kEdge) * kSamples;
  Field out(f.size());
  for (std::size_t p = 0; p < f.size(); ++p) {
    const std::size_t row = p / width;
    const std::size_t col = p % width;
    fem::Stress6 s = f[row * width + (width - 1 - col)];
    s[4] = -s[4];
    s[5] = -s[5];
    out[p] = s;
  }
  return out;
}

/// The field of the transposed problem (x <-> y): rows and columns swapped,
/// and with them xx <-> yy and yz <-> xz.
Field transpose(const Field& f) {
  const std::size_t width = static_cast<std::size_t>(kEdge) * kSamples;
  Field out(f.size());
  for (std::size_t p = 0; p < f.size(); ++p) {
    const fem::Stress6& s = f[(p % width) * width + p / width];
    out[p] = {s[1], s[0], s[2], s[4], s[3], s[5]};
  }
  return out;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// `column`'s fields against the steady run of `spec`'s window whose
/// per-block load is `load`: stress, von Mises and solution, bit for bit.
void expect_steady_solve_of(const core::ArrayResult& column, ScenarioSpec spec,
                            const rom::BlockLoadField& load) {
  spec.analysis = AnalysisKind::kSteady;
  spec.load = LoadKind::kUniform;
  spec.load_field = std::make_shared<const rom::BlockLoadField>(load);
  spec.snapshot_steps.clear();
  const ScenarioResult steady = simulator().simulate(spec);
  ASSERT_FALSE(steady.failed()) << steady.error.message;
  ASSERT_FALSE(column.stress.empty());
  EXPECT_TRUE(bitwise_equal(column.stress, steady.base().stress));
  EXPECT_TRUE(bitwise_equal(column.von_mises, steady.base().von_mises));
  EXPECT_TRUE(bitwise_equal(column.solution, steady.base().solution));
}

TEST(ScenarioInvariants, ArrayRelationsHoldWithoutReference) {
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> delta_t(-300.0, -200.0);
  std::uniform_real_distribution<double> background(5.0, 40.0);
  std::uniform_real_distribution<double> peak(50.0, 300.0);
  std::uniform_real_distribution<double> off_centre(0.15, 0.4);
  std::uniform_real_distribution<double> row(0.2, 0.8);

  const Field zero = uniform_stress(0.0);
  ASSERT_EQ(zero.size(), static_cast<std::size_t>(kEdge * kEdge * kSamples * kSamples));
  expect_all_zero(zero);
  expect_all_zero(power_stress(0.0, 0.0, 0.5, 0.5));

  for (int draw = 0; draw < 2; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    // Load scaling.
    const double dt = delta_t(rng);
    const Field full = uniform_stress(dt);
    const Field half = uniform_stress(0.5 * dt);
    const Field scaled = uniform_stress(0.3 * dt);
    expect_exact_half(half, full);
    EXPECT_LE(max_diff({{1.0, &scaled}}, {{0.3, &full}}), kTolEps * kEps * max_abs(full));

    // Superposition of steady power maps: background a, hotspot peak h.
    const double a = background(rng);
    const double h = peak(rng);
    const double x = off_centre(rng);
    const double y = row(rng);
    const Field both = power_stress(a, h, x, y);
    const Field none = power_stress(0.0, 0.0, x, y);
    const Field only_a = power_stress(a, 0.0, x, y);
    const Field only_h = power_stress(0.0, h, x, y);
    const double power_scale = max_abs(both);
    ASSERT_GT(power_scale, 0.0);
    EXPECT_LE(max_diff({{1.0, &both}, {1.0, &none}}, {{1.0, &only_a}, {1.0, &only_h}}),
              kTolEps * kEps * power_scale);

    // Mirror symmetry: the hotspot at 1 - x gives the mirrored field.
    const Field mirrored = mirror_x(power_stress(0.0, h, 1.0 - x, y));
    EXPECT_LE(max_diff({{1.0, &mirrored}}, {{1.0, &only_h}}), kTolEps * kEps * max_abs(only_h));
  }
}

TEST(ScenarioInvariants, TraceRelationsHoldWithoutReference) {
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> background(5.0, 40.0);
  std::uniform_real_distribution<double> peak(50.0, 300.0);
  const double a = background(rng);
  const double h = peak(rng);
  for (const AnalysisKind analysis : {AnalysisKind::kTransient, AnalysisKind::kFatigue}) {
    SCOPED_TRACE(to_string(analysis));
    expect_all_zero(trace_stress(analysis, 0.0, 0.0));
    const Field once = trace_stress(analysis, a, h);
    const Field twice = trace_stress(analysis, 2.0 * a, 2.0 * h);
    ASSERT_EQ(once.size(), twice.size());
    const double scale = max_abs(twice);
    ASSERT_GT(scale, 0.0);
    EXPECT_LE(max_diff({{1.0, &twice}}, {{2.0, &once}}), kTolEps * kEps * scale);
  }
}

TEST(ScenarioInvariants, SquareArraysAreSymmetricUnderTransposition) {
  std::mt19937_64 rng(20261021);
  std::uniform_real_distribution<double> delta_t(-300.0, -200.0);
  std::uniform_real_distribution<double> background(5.0, 40.0);
  std::uniform_real_distribution<double> peak(50.0, 300.0);
  std::uniform_real_distribution<double> off_centre(0.15, 0.4);
  std::uniform_real_distribution<double> row(0.2, 0.8);

  const Field uniform = uniform_stress(delta_t(rng));
  ASSERT_GT(max_abs(uniform), 0.0);
  const Field uniform_t = transpose(uniform);
  EXPECT_LE(max_diff({{1.0, &uniform_t}}, {{1.0, &uniform}}),
            kTransposeTolEps * kEps * max_abs(uniform));

  for (int draw = 0; draw < 2; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    const double a = background(rng);
    const double h = peak(rng);
    const double x = off_centre(rng);
    const double y = row(rng);
    const Field at_xy = power_stress(a, h, x, y);
    const Field at_yx_t = transpose(power_stress(a, h, y, x));
    ASSERT_GT(max_abs(at_xy), 0.0);
    EXPECT_LE(max_diff({{1.0, &at_yx_t}}, {{1.0, &at_xy}}),
              kTransposeTolEps * kEps * max_abs(at_xy));
  }
}

TEST(ScenarioInvariants, PanelColumnsEqualTheirOwnSteadySolves) {
  // An array transient: the envelope and two snapshots share one panel.
  ScenarioSpec transient;
  transient.blocks_x = transient.blocks_y = 3;
  transient.analysis = AnalysisKind::kTransient;
  transient.load = LoadKind::kTrace;
  transient.power.background = 20.0;
  transient.power.hotspot_peak = 150.0;
  transient.snapshot_steps = {2, 5};
  const ScenarioResult r = simulator().simulate(transient);
  ASSERT_FALSE(r.failed()) << r.error.message;
  const core::TransientResult& t = *r.transient;
  ASSERT_EQ(t.snapshots.size(), transient.snapshot_steps.size());
  {
    SCOPED_TRACE("transient envelope");
    expect_steady_solve_of(t, transient, t.envelope_load);
  }
  for (std::size_t c = 0; c < t.snapshots.size(); ++c) {
    SCOPED_TRACE("snapshot " + std::to_string(c));
    const int step = transient.snapshot_steps[c];
    expect_steady_solve_of(t.snapshots[c], transient,
                           rom::BlockLoadField(t.transient.blocks_x, t.transient.blocks_y,
                                               la::Vec(t.transient.block_delta_t[step])));
  }

  // Fatigue envelopes, array and sub-model: their panels hold every
  // recorded step besides.
  ScenarioSpec array = transient;
  array.snapshot_steps.clear();
  ScenarioSpec submodel = submodel_spec();
  submodel.load = LoadKind::kTrace;
  submodel.power = transient.power;
  for (ScenarioSpec fatigue : {array, submodel}) {
    SCOPED_TRACE(std::string("fatigue ") + to_string(fatigue.kind));
    fatigue.analysis = AnalysisKind::kFatigue;
    const ScenarioResult f = simulator().simulate(fatigue);
    ASSERT_FALSE(f.failed()) << f.error.message;
    ASSERT_GT(f.fatigue->stats.solve.num_rhs, 1);
    expect_steady_solve_of(*f.fatigue, fatigue, f.fatigue->envelope_load);
  }
}

TEST(ScenarioInvariants, SubmodelRelationsHoldWithoutReference) {
  std::mt19937_64 rng(20261020);
  std::uniform_real_distribution<double> delta_t(-300.0, -200.0);
  expect_all_zero(submodel_stress(0.0));
  const double dt = delta_t(rng);
  expect_exact_half(submodel_stress(0.5 * dt), submodel_stress(dt));
}

}  // namespace
}  // namespace ms::sweep
