// Transient conduction: the implicit θ-stepper against the steady-state
// solver (constant trace), against the analytic lumped-RC cooling curve
// (single near-isothermal body with a convective sink), the Crank–Nicolson
// 2nd-order convergence sweep, and the peak-envelope invariants of pulsed
// traces. The coupled path (an array transient scenario) is
// regression-locked to the steady thermal coupling for constant traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/simulator.hpp"
#include "sweep/scenario_result.hpp"
#include "thermal/conduction_assembler.hpp"
#include "thermal/power_trace.hpp"
#include "thermal/thermal_solver.hpp"
#include "util/scenario_specs.hpp"
#include "util/validation_harness.hpp"

namespace ms::thermal {
namespace {

mesh::HexMesh bar_mesh(double side, double height, int elems_xy, int elems_z) {
  const auto lines = [](int n, double length) {
    std::vector<double> v(static_cast<std::size_t>(n) + 1);
    for (int i = 0; i <= n; ++i) v[i] = length * i / n;
    return v;
  };
  return mesh::HexMesh(lines(elems_xy, side), lines(elems_xy, side), lines(elems_z, height));
}

/// Conductivity k on every element, in plane and through it.
ConductivityField isotropic(const mesh::HexMesh& mesh, double k) {
  const la::Vec per_elem(static_cast<std::size_t>(mesh.num_elems()), k);
  return {per_elem, per_elem};
}

/// Max-abs relative mismatch of two nodal fields.
double max_rel_diff(const la::Vec& a, const la::Vec& b) {
  double peak = 0.0;
  for (double v : b) peak = std::max(peak, std::abs(v));
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff = std::max(diff, std::abs(a[i] - b[i]));
  return peak > 0.0 ? diff / peak : diff;
}

TEST(TransientConduction, ConstantTraceRelaxesToSteadyState) {
  const mesh::HexMesh mesh = bar_mesh(30.0, 50.0, 3, 5);
  const ConductivityField k = isotropic(mesh, 149.0);
  const la::Vec c(static_cast<std::size_t>(mesh.num_elems()), 1.63e6);
  PowerMap power(3, 3, 30.0, 30.0, 25.0);
  power.set_tile(1, 1, 120.0);  // non-uniform so the comparison is non-trivial

  ThermalSolveOptions steady_options;
  steady_options.method = "direct";
  const TemperatureField steady = solve_power_map(mesh, k, power, steady_options);

  // Die thermal time constant tau ~ c L^2 / k ~ 3e-5 s; 80 backward-Euler
  // steps of 1e-4 s damp the slowest transient mode by far below 1e-8.
  TransientSolveOptions options;
  options.time_step = 1e-4;
  options.num_steps = 80;
  options.scheme = "backward-euler";
  BlockReduction reduction;
  reduction.blocks_x = reduction.blocks_y = 1;
  reduction.pitch = 30.0;
  TransientSolveStats stats;
  const TransientTemperatureResult result =
      solve_power_trace(mesh, k, c, PowerTrace::constant(power, 80e-4), reduction, options,
                        &stats);

  EXPECT_EQ(stats.num_steps, 80);
  EXPECT_EQ(stats.num_dofs, mesh.num_nodes());
  EXPECT_LT(max_rel_diff(result.final_field.nodal(), steady.nodal()), 1e-8);
}

TEST(TransientConduction, ConsistentCapacitanceAlsoRelaxesToSteadyState) {
  const mesh::HexMesh mesh = bar_mesh(30.0, 50.0, 3, 4);
  const ConductivityField k = isotropic(mesh, 149.0);
  const la::Vec c(static_cast<std::size_t>(mesh.num_elems()), 1.63e6);
  const PowerMap power(3, 3, 30.0, 30.0, 60.0);

  ThermalSolveOptions steady_options;
  steady_options.method = "direct";
  const TemperatureField steady = solve_power_map(mesh, k, power, steady_options);

  TransientSolveOptions options;
  options.time_step = 1e-4;
  options.num_steps = 80;
  options.lumped_capacitance = false;
  BlockReduction reduction;
  reduction.blocks_x = reduction.blocks_y = 1;
  reduction.pitch = 30.0;
  const TransientTemperatureResult result =
      solve_power_trace(mesh, k, c, PowerTrace::constant(power, 1.0), reduction, options);
  EXPECT_LT(max_rel_diff(result.final_field.nodal(), steady.nodal()), 1e-8);
}

/// Lumped-RC configuration: a single element with near-infinite conductivity
/// (isothermal body) cooling through a z-min film into ambient. Analytic:
/// T(t) = T_amb + (T0 - T_amb) exp(-t / tau), tau = c V / (h A) = c h_z / h.
struct RcCase {
  mesh::HexMesh mesh = bar_mesh(10.0, 20.0, 1, 1);
  double capacity = 1.6e6;
  double film = 4.0e4;
  double t0 = 125.0;
  double ambient = 25.0;
  double reference = 25.0;  ///< ΔT reduction reference (default: ambient)
  [[nodiscard]] double tau() const { return capacity * 20.0 * 1e-6 / film; }

  [[nodiscard]] TransientTemperatureResult run(const std::string& scheme, double dt,
                                               int steps) const {
    // ~isothermal: conduction much faster than the film
    const ConductivityField k = isotropic(mesh, 1.0e6);
    const la::Vec c(1, capacity);
    TransientSolveOptions options;
    options.scheme = scheme;
    options.time_step = dt;
    options.num_steps = steps;
    options.initial_temperature = t0;
    options.base.ambient = ambient;
    options.base.sink_film_coefficient = film;
    BlockReduction reduction;
    reduction.blocks_x = reduction.blocks_y = 1;
    reduction.pitch = 10.0;
    reduction.reference = reference;
    PowerMap off(1, 1, 10.0, 10.0, 0.0);
    return solve_power_trace(mesh, k, c, PowerTrace::constant(off, dt * steps), reduction,
                             options);
  }

  /// Max-abs error of the recorded mean ΔT against the analytic decay,
  /// normalized by the initial excess.
  [[nodiscard]] double error_vs_analytic(const TransientTemperatureResult& result) const {
    double err = 0.0;
    for (std::size_t r = 0; r < result.times.size(); ++r) {
      const double analytic = (t0 - ambient) * std::exp(-result.times[r] / tau());
      err = std::max(err, std::abs(result.block_delta_t[r][0] - analytic));
    }
    return err / (t0 - ambient);
  }
};

TEST(TransientConduction, LumpedRcCoolingMatchesAnalyticCurve) {
  const RcCase rc;
  // ~tau/50 steps over two time constants: both schemes must track the
  // exponential tightly (BE first order ~ dt/tau, CN ~ (dt/tau)^2).
  const int steps = 100;
  const double dt = 2.0 * rc.tau() / steps;
  EXPECT_LT(rc.error_vs_analytic(rc.run("backward-euler", dt, steps)), 2e-2);
  EXPECT_LT(rc.error_vs_analytic(rc.run("crank-nicolson", dt, steps)), 5e-4);
}

TEST(TransientConduction, CrankNicolsonConvergesAtSecondOrder) {
  const RcCase rc;
  const double horizon = 2.0 * rc.tau();
  std::vector<double> errors;
  for (int steps : {25, 50, 100}) {
    errors.push_back(rc.error_vs_analytic(rc.run("crank-nicolson", horizon / steps, steps)));
  }
  // Successive halvings of dt must shrink the error ~4x (allow 3.4x for the
  // saturating tail); backward Euler at the same resolution only halves it.
  EXPECT_GT(errors[0] / errors[1], 3.4);
  EXPECT_GT(errors[1] / errors[2], 3.4);
  const double be_coarse = rc.error_vs_analytic(rc.run("backward-euler", horizon / 25, 25));
  const double be_fine = rc.error_vs_analytic(rc.run("backward-euler", horizon / 50, 50));
  EXPECT_GT(be_coarse / be_fine, 1.7);
  EXPECT_LT(be_coarse / be_fine, 2.6);
}

TEST(TransientConduction, EnvelopeTracksLargestMagnitudeWhenDeltaTIsNegative) {
  // Reflow-style reference: ΔT is measured from the *initial* temperature,
  // so the cooling body sweeps ΔT from 0 down to ~-(t0 - ambient). The
  // worst thermal-mismatch state is the most negative ΔT — a signed max
  // would wrongly pick the initial 0.
  RcCase rc;
  rc.reference = rc.t0;
  const TransientTemperatureResult result = rc.run("crank-nicolson", rc.tau() / 25.0, 50);
  EXPECT_LT(result.peak_envelope[0], -0.8 * (rc.t0 - rc.ambient));
  EXPECT_DOUBLE_EQ(result.peak_envelope[0], result.block_delta_t.back()[0]);
  EXPECT_DOUBLE_EQ(result.block_delta_t.front()[0], 0.0);
}

TEST(TransientConduction, PeakEnvelopeDominatesEveryRecordedState) {
  const mesh::HexMesh mesh = bar_mesh(30.0, 50.0, 3, 4);
  const ConductivityField k = isotropic(mesh, 149.0);
  const la::Vec c(static_cast<std::size_t>(mesh.num_elems()), 1.63e6);
  const PowerMap low(3, 3, 30.0, 30.0, 10.0);
  PowerMap high = low;
  high.add_gaussian_hotspot(15.0, 15.0, 8.0, 300.0);
  // Two 60 us pulses with a 40% duty cycle, 10 us steps.
  const PowerTrace trace = PowerTrace::square_wave(low, high, 60e-6, 0.4, 2);

  TransientSolveOptions options;
  options.time_step = 1e-5;
  BlockReduction reduction;
  reduction.blocks_x = reduction.blocks_y = 3;
  reduction.pitch = 10.0;
  reduction.reference = 25.0;
  const TransientTemperatureResult result =
      solve_power_trace(mesh, k, c, trace, reduction, options);

  ASSERT_EQ(result.peak_envelope.size(), 9u);
  for (const auto& blocks : result.block_delta_t) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_GE(result.peak_envelope[b], blocks[b]);
    }
  }
  // A pulsed trace must leave daylight between the envelope and the
  // time-average (otherwise the transient run degenerated to steady state).
  const std::size_t centre = 1 * 3 + 1;
  EXPECT_GT(result.peak_envelope[centre], 1.05 * result.time_average[centre]);
  // The envelope is attained at some record; times must be uniform from 0.
  EXPECT_DOUBLE_EQ(result.times.front(), 0.0);
  EXPECT_EQ(result.num_records(), result.block_delta_t.size());
}

TEST(TransientConduction, StepperIsBitIdenticalWithoutCacheColdAndWarm) {
  // The stepper takes its factor through the one factor-fetching path: no
  // cache, a cold cache and a warm cache march the same history bit for bit
  // from the same factor of M/dt + theta K. The sink temperature is not in
  // the key: a warm hit at another ambient equals that ambient's own
  // uncached march.
  const mesh::HexMesh mesh = bar_mesh(30.0, 50.0, 3, 4);
  const ConductivityField k = isotropic(mesh, 149.0);
  const la::Vec c(static_cast<std::size_t>(mesh.num_elems()), 1.63e6);
  const PowerMap low(3, 3, 30.0, 30.0, 10.0);
  PowerMap high = low;
  high.add_gaussian_hotspot(15.0, 15.0, 8.0, 300.0);
  const PowerTrace trace = PowerTrace::square_wave(low, high, 60e-6, 0.4, 2);
  BlockReduction reduction;
  reduction.blocks_x = reduction.blocks_y = 3;
  reduction.pitch = 10.0;
  reduction.reference = 25.0;

  TransientSolveOptions options;
  options.time_step = 1e-5;
  options.scheme = "crank-nicolson";
  TransientSolveStats plain_stats;
  const TransientTemperatureResult expected =
      solve_power_trace(mesh, k, c, trace, reduction, options, &plain_stats);
  TransientSolveOptions other = options;
  other.base.ambient = 40.0;
  const TransientTemperatureResult other_expected =
      solve_power_trace(mesh, k, c, trace, reduction, other);

  la::FactorCache cache;
  options.base.factor_cache = &cache;
  options.base.factor_key = "stepper";
  TransientSolveStats cold_stats, warm_stats;
  const TransientTemperatureResult cold =
      solve_power_trace(mesh, k, c, trace, reduction, options, &cold_stats);
  const TransientTemperatureResult warm =
      solve_power_trace(mesh, k, c, trace, reduction, options, &warm_stats);
  other.base.factor_cache = &cache;
  other.base.factor_key = options.base.factor_key;
  TransientSolveStats other_stats;
  const TransientTemperatureResult other_warm =
      solve_power_trace(mesh, k, c, trace, reduction, other, &other_stats);

  for (const TransientTemperatureResult* r : {&cold, &warm}) {
    EXPECT_EQ(r->block_delta_t, expected.block_delta_t);
    EXPECT_EQ(r->final_field.nodal(), expected.final_field.nodal());
  }
  EXPECT_EQ(other_warm.block_delta_t, other_expected.block_delta_t);
  EXPECT_EQ(other_warm.final_field.nodal(), other_expected.final_field.nodal());
  EXPECT_NE(other_warm.block_delta_t, expected.block_delta_t);
  for (const TransientSolveStats* s : {&cold_stats, &warm_stats, &other_stats}) {
    EXPECT_EQ(s->factor_nnz, plain_stats.factor_nnz);
    EXPECT_EQ(s->fill_ratio, plain_stats.fill_ratio);
    EXPECT_EQ(s->num_supernodes, plain_stats.num_supernodes);
    EXPECT_EQ(s->ordering, plain_stats.ordering);
  }
  EXPECT_GT(plain_stats.factor_nnz, 0);
  EXPECT_EQ(plain_stats.num_factorizations, 1);
  EXPECT_EQ(cold_stats.num_factorizations, 1);
  EXPECT_EQ(warm_stats.num_factorizations, 0);
  EXPECT_EQ(other_stats.num_factorizations, 0);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(TransientConduction, RejectsBadOptions) {
  const mesh::HexMesh mesh = bar_mesh(10.0, 20.0, 1, 1);
  const ConductivityField k = isotropic(mesh, 100.0);
  const la::Vec c(1, 1.6e6);
  const PowerTrace trace = PowerTrace::constant(PowerMap(1, 1, 10.0, 10.0, 1.0), 1e-3);
  BlockReduction reduction;
  reduction.pitch = 10.0;
  TransientSolveOptions options;
  options.scheme = "forward-euler";
  EXPECT_THROW(solve_power_trace(mesh, k, c, trace, reduction, options), std::invalid_argument);
  options = {};
  options.time_step = 0.0;
  EXPECT_THROW(solve_power_trace(mesh, k, c, trace, reduction, options), std::invalid_argument);
  options = {};
  EXPECT_THROW(solve_power_trace(mesh, k, c, PowerTrace(), reduction, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace ms::thermal

namespace ms::core {
namespace {

SimulationConfig coupled_test_config() {
  SimulationConfig config = SimulationConfig::paper_default();
  config.mesh_spec = {8, 6};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = 20;
  config.local.sample_displacements = false;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  return config;
}

TEST(TransientCoupling, ConstantTraceReproducesSteadyCoupling) {
  SimulationConfig config = coupled_test_config();
  // Long horizon: 100 steps of 1e-4 s >> tau, so the constant trace ends at
  // the steady state and the envelope equals the steady per-block ΔT.
  config.coupling.transient.time_step = 1e-4;
  config.coupling.transient.num_steps = 100;
  MoreStressSimulator sim(config);

  thermal::PowerMap power = thermal::PowerMap::per_block(3, 3, config.geometry.pitch, 30.0);
  power.set_tile(1, 1, 90.0);
  const ThermalResult steady =
      *sim.simulate(specs::with_power(specs::array_spec(3, 3), power)).thermal;
  sweep::ScenarioSpec spec =
      specs::with_trace(specs::array_spec(3, 3), thermal::PowerTrace::constant(power, 1e-2));
  spec.snapshot_steps = {0};
  const TransientResult transient = *sim.simulate(spec).transient;

  // Per-block envelope ΔT matches the steady reduction to 1e-8 (relative).
  ASSERT_EQ(transient.envelope_load.values().size(), steady.load.values().size());
  const double dt_peak =
      std::max(std::abs(steady.load.min()), std::abs(steady.load.max()));
  for (std::size_t b = 0; b < steady.load.values().size(); ++b) {
    EXPECT_NEAR(transient.envelope_load.values()[b], steady.load.values()[b], 1e-8 * dt_peak)
        << "block " << b;
  }
  // And hence identical ROM stress to the same tolerance.
  ASSERT_EQ(transient.von_mises.size(), steady.von_mises.size());
  double peak = 0.0;
  for (double v : steady.von_mises) peak = std::max(peak, std::abs(v));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < steady.von_mises.size(); ++i) {
    EXPECT_NEAR(transient.von_mises[i], steady.von_mises[i], 1e-8 * peak) << "sample " << i;
  }
  // The requested snapshot at the initial state carries zero load -> the
  // snapshot machinery ran and produced a distinct (colder) field.
  ASSERT_EQ(transient.snapshots.size(), 1u);
  ASSERT_EQ(transient.snapshot_steps.front(), 0);
}

TEST(TransientCoupling, PulsedTraceEnvelopeExceedsFinalState) {
  SimulationConfig config = coupled_test_config();
  config.coupling.transient.time_step = 1e-5;
  MoreStressSimulator sim(config);

  const double pitch = config.geometry.pitch;
  const thermal::PowerMap low = thermal::PowerMap::per_block(3, 3, pitch, 5.0);
  thermal::PowerMap high = low;
  high.add_gaussian_hotspot(1.5 * pitch, 1.5 * pitch, pitch, 400.0);
  // One 50 us pulse then 50 us of cool-down: the envelope must remember the
  // pulse the final state has already forgotten.
  const thermal::PowerTrace trace = thermal::PowerTrace::square_wave(low, high, 1e-4, 0.5, 1);
  sweep::ScenarioSpec spec = specs::with_trace(specs::array_spec(3, 3), trace);
  const TransientResult result = *sim.simulate(spec).transient;

  const std::size_t centre = 1 * 3 + 1;
  EXPECT_GT(result.envelope_load.values()[centre],
            result.transient.block_delta_t.back()[centre] + 1.0);
  // Envelope >= every recorded state, blockwise.
  for (const auto& blocks : result.transient.block_delta_t) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_GE(result.envelope_load.values()[b], blocks[b]);
    }
  }
  spec.snapshot_steps = {9999};
  EXPECT_THROW((void)sim.simulate(spec), std::invalid_argument);
}

TEST(TransientCoupling, SnapshotStressesValidateAgainstBatchedReferenceFem) {
  // The simulator solves the envelope + all snapshots as one multi-RHS panel
  // against a single global factorization; the harness checks each of those
  // stress fields against brute-force FEM solves that themselves share one
  // fine-mesh factorization (fem::solve_thermal_stress_multi).
  SimulationConfig config = coupled_test_config();
  config.coupling.transient.time_step = 2e-5;
  config.coupling.transient.num_steps = 10;

  const double pitch = config.geometry.pitch;
  const thermal::PowerMap low = thermal::PowerMap::per_block(2, 2, pitch, 10.0);
  thermal::PowerMap high = low;
  high.add_gaussian_hotspot(pitch, pitch, pitch, 300.0);
  const thermal::PowerTrace trace = thermal::PowerTrace::square_wave(low, high, 2e-4, 0.5, 1);

  const testutil::TransientValidationReport report =
      testutil::validate_array_thermal_transient(config, 2, 2, trace, {3, 7, 10});
  // Same error band the steady scenarios are held to (paper Sec. 5.2).
  EXPECT_LT(report.envelope_von_mises_error, 0.05);
  ASSERT_EQ(report.snapshot_von_mises_errors.size(), 3u);
  for (double err : report.snapshot_von_mises_errors) EXPECT_LT(err, 0.05);
}

}  // namespace
}  // namespace ms::core
