// The cycle-resolved fatigue scenario end to end, locked against the
// transient-envelope path (ISSUE 5 acceptance): a constant square-wave
// trace must reproduce the envelope ROM solve's peak-stress map to 1e-8
// with a monotone history (exactly one rainflow half cycle per block
// channel), the whole per-step panel must reuse a single factorization
// (GlobalSolveStats), and a genuinely pulsed hotspot trace must localize
// fatigue damage at the cycled block.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/simulator.hpp"
#include "reliability/rainflow.hpp"
#include "sweep/scenario_result.hpp"
#include "util/scenario_specs.hpp"

namespace ms::core {
namespace {

SimulationConfig test_config() {
  SimulationConfig config = SimulationConfig::paper_default();
  config.mesh_spec = {8, 6};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = 20;
  config.local.sample_displacements = false;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  // Die thermal time constant ~3e-5 s: 1e-5 steps resolve each pulse.
  config.coupling.transient.time_step = 1e-5;
  return config;
}

/// Per-block peak of a y-major sample field (s x s samples per block).
std::vector<double> block_peaks(const std::vector<double>& field, int blocks_x, int blocks_y,
                                int s) {
  std::vector<double> peaks(static_cast<std::size_t>(blocks_x) * blocks_y, 0.0);
  const int width = blocks_x * s;
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      double peak = 0.0;
      for (int my = 0; my < s; ++my) {
        for (int mx = 0; mx < s; ++mx) {
          peak = std::max(peak, field[static_cast<std::size_t>(by * s + my) * width + bx * s + mx]);
        }
      }
      peaks[static_cast<std::size_t>(by) * blocks_x + bx] = peak;
    }
  }
  return peaks;
}

TEST(FatigueCoupling, ConstantTraceMatchesEnvelopePathAndCountsOneHalfCycle) {
  SimulationConfig config = test_config();
  const int blocks = 3;
  const double pitch = config.geometry.pitch;
  thermal::PowerMap power = thermal::PowerMap::per_block(blocks, blocks, pitch, 30.0);
  const double mid = 0.5 * blocks * pitch;
  power.add_gaussian_hotspot(mid, mid, pitch, 250.0);
  // A "square wave" whose high and low maps coincide: a constant trace over
  // one cycle — the degenerate case the envelope path already covers. The
  // horizon (~2.7 thermal time constants) keeps every block's temperature
  // strictly rising through the last step, so the stress history is a clean
  // monotone ramp.
  const thermal::PowerTrace trace =
      thermal::PowerTrace::square_wave(power, power, /*period=*/8e-5, /*duty=*/0.5, /*cycles=*/1);
  ASSERT_TRUE(trace.is_constant());

  MoreStressSimulator sim(config);
  const sweep::ScenarioSpec array = specs::array_spec(blocks, blocks);
  const FatigueResult fatigue =
      *sim.simulate(specs::with_trace(array, trace, sweep::AnalysisKind::kFatigue)).fatigue;
  const TransientResult envelope = *sim.simulate(specs::with_trace(array, trace)).transient;

  // The fatigue result's base solve *is* the envelope solve.
  ASSERT_EQ(fatigue.von_mises.size(), envelope.von_mises.size());
  double peak = 0.0;
  for (double v : envelope.von_mises) peak = std::max(peak, v);
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < fatigue.von_mises.size(); ++i) {
    EXPECT_NEAR(fatigue.von_mises[i], envelope.von_mises[i], 1e-8 * peak);
  }

  // Acceptance: the fatigue path's per-block peak-stress map (max over the
  // recorded history) reproduces the envelope ROM solve's map to 1e-8 —
  // a constant trace relaxes monotonically, so the history peaks at the
  // envelope state.
  const std::vector<double> history_peaks =
      fatigue.history.peak_map(reliability::StressChannel::kVonMises);
  const std::vector<double> envelope_peaks =
      block_peaks(envelope.von_mises, blocks, blocks, envelope.samples_per_block);
  ASSERT_EQ(history_peaks.size(), envelope_peaks.size());
  for (std::size_t b = 0; b < history_peaks.size(); ++b) {
    EXPECT_NEAR(history_peaks[b], envelope_peaks[b], 1e-8 * peak);
  }

  // Monotone history: exactly one rainflow half cycle per block channel.
  for (int c = 0; c < reliability::kNumChannels; ++c) {
    for (std::size_t b = 0; b < fatigue.history.num_blocks(); ++b) {
      const auto cycles = reliability::rainflow_count(
          fatigue.history.series(static_cast<reliability::StressChannel>(c), b));
      ASSERT_EQ(cycles.size(), 1u) << "channel " << c << " block " << b;
      EXPECT_DOUBLE_EQ(cycles[0].count, 0.5);
    }
  }

  // Batching invariant: the envelope plus every recorded step ran as one
  // multi-RHS panel against a single factorization.
  EXPECT_EQ(fatigue.stats.solve.num_factorizations, 1);
  EXPECT_EQ(fatigue.stats.solve.num_rhs,
            static_cast<la::idx_t>(fatigue.history_steps.size()) + 1);
  EXPECT_GT(fatigue.stats.solve.factor_nnz, 0);
  EXPECT_EQ(fatigue.history.num_steps(), fatigue.history_steps.size());
  EXPECT_EQ(fatigue.history_steps.size(), fatigue.transient.num_records());
}

TEST(FatigueCoupling, PulsedHotspotLocalizesDamageAndReportsLifetime) {
  SimulationConfig config = test_config();
  const int blocks = 3;
  const double pitch = config.geometry.pitch;
  const thermal::PowerMap idle = thermal::PowerMap::per_block(blocks, blocks, pitch, 5.0);
  thermal::PowerMap active = idle;
  const double mid = 0.5 * blocks * pitch;
  active.add_gaussian_hotspot(mid, mid, pitch, 400.0);
  const thermal::PowerTrace trace =
      thermal::PowerTrace::square_wave(idle, active, /*period=*/1.2e-4, /*duty=*/0.5,
                                       /*cycles=*/3);

  MoreStressSimulator sim(config);
  FatigueOptions options;
  options.range_bins = 6;
  options.mean_bins = 3;
  sweep::ScenarioSpec spec = specs::with_trace(specs::array_spec(blocks, blocks), trace,
                                               sweep::AnalysisKind::kFatigue);
  spec.fatigue = options;
  const FatigueResult result = *sim.simulate(spec).fatigue;

  // Three channels assessed under the standard model set.
  ASSERT_EQ(result.report.channels.size(), 3u);
  ASSERT_EQ(result.report.blocks_x, blocks);

  // The hotspot's *thermal* cycling is strongest at the centre block (the
  // stress ranges need not peak there — clamping concentrates them at the
  // array edge — but the ΔT swing must).
  const std::size_t centre = 1 * blocks + 1;
  const std::size_t corner = 0;
  EXPECT_GT(result.transient.peak_envelope[centre], result.transient.peak_envelope[corner]);

  double governing = std::numeric_limits<double>::infinity();
  for (const auto& a : result.report.channels) {
    // Pulsing damages every block of this small array; each channel's worst
    // block is the argmax of its own damage map, with a populated cycle
    // matrix.
    ASSERT_GE(a.min_life_block, 0) << a.model_name;
    for (std::size_t b = 0; b < a.damage.size(); ++b) {
      EXPECT_GT(a.damage[b], 0.0) << a.model_name << " block " << b;
      EXPECT_LE(a.damage[b], a.damage[a.min_life_block]) << a.model_name;
    }
    EXPECT_GT(a.half_cycle_counts[centre], 1.0) << a.model_name;
    ASSERT_GT(a.min_life_matrix.total_count, 0.0) << a.model_name;
    EXPECT_GE(a.min_life_matrix.dominant_bin(), 0) << a.model_name;
    governing = std::min(governing, a.min_life_cycles);
  }
  // Governing verdict: the minimum over channels, finite, consistent units.
  EXPECT_DOUBLE_EQ(result.report.min_life_cycles, governing);
  EXPECT_TRUE(std::isfinite(result.report.min_life_cycles));
  EXPECT_GT(result.report.min_life_cycles, 0.0);
  EXPECT_NEAR(result.report.min_life_seconds,
              result.report.min_life_cycles * trace.duration(), 1e-9);
  EXPECT_DOUBLE_EQ(result.report.trace_duration, trace.duration());

  // Pulsing means real cycles: strictly more rainflow content than the
  // single half cycle of a monotone history at the centre block.
  const auto vm = result.report.assessment(reliability::StressChannel::kVonMises);
  ASSERT_NE(vm, nullptr);
  EXPECT_GT(vm->half_cycle_counts[centre], 2.0);

  // Strided recording still spans the whole history.
  FatigueOptions strided = options;
  strided.record_stride = 4;
  spec.fatigue = strided;
  const FatigueResult coarse = *sim.simulate(spec).fatigue;
  EXPECT_LT(coarse.history.num_steps(), result.history.num_steps());
  EXPECT_EQ(coarse.history_steps.back(),
            static_cast<int>(coarse.transient.num_records()) - 1);
  // Fewer samples of the same waveform cannot grow the counted content.
  const auto coarse_vm = coarse.report.assessment(reliability::StressChannel::kVonMises);
  ASSERT_NE(coarse_vm, nullptr);
  EXPECT_LE(coarse_vm->half_cycle_counts[centre], vm->half_cycle_counts[centre] + 1e-12);
}

}  // namespace
}  // namespace ms::core
