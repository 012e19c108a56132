// Transient hotspot: worst-case stress of a TSV array under a time-varying
// workload — a duty-cycled hotspot that also migrates across the die.
//
//   ./transient_hotspot [--blocks 8] [--background 20] [--peak 400]
//                       [--period-us 60] [--duty 0.4] [--cycles 3]
//                       [--dt-us 2] [--scheme backward-euler]
//
// Marches implicit transient conduction through the trace (one
// factorization, one triangular solve per step), reduces every state to
// per-block ΔT, and runs the ROM stress path at the per-block *peak
// envelope* — the worst instantaneous thermal state each block sees. Prints
// the envelope vs. time-average ΔT maps and the envelope-driven von Mises
// field, then validates two invariants:
//   1. the peak envelope strictly exceeds the time-average somewhere (a
//      pulsed workload is *not* its own mean), and
//   2. the envelope dominates every recorded state blockwise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/simulator.hpp"
#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/cli.hpp"

namespace {

/// Coarse ASCII rendering of a per-block map (one cell per block).
void print_block_map(const char* title, const std::vector<double>& values, int blocks_x,
                     int blocks_y) {
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  std::printf("%s (min %.3g, max %.3g):\n", title, lo, hi);
  static const char kShades[] = " .:-=+*#%@";
  for (int by = blocks_y - 1; by >= 0; --by) {
    std::printf("  ");
    for (int bx = 0; bx < blocks_x; ++bx) {
      const double v = values[static_cast<std::size_t>(by) * blocks_x + bx];
      const int shade = (hi > lo) ? static_cast<int>(9.0 * (v - lo) / (hi - lo) + 0.5) : 0;
      std::printf("%c%c", kShades[shade], kShades[shade]);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  ms::util::CliParser cli("transient_hotspot", "Worst-case stress under a pulsed power trace");
  cli.add_int("blocks", 8, "array edge length in blocks");
  cli.add_int("nodes", 4, "Lagrange interpolation nodes per axis");
  cli.add_int("samples", 30, "plane samples per block");
  cli.add_double("background", 20.0, "background power density [W/mm^2]");
  cli.add_double("peak", 400.0, "hotspot peak power density [W/mm^2]");
  cli.add_double("period-us", 60.0, "pulse period [us]");
  cli.add_double("duty", 0.4, "pulse duty cycle (0..1)");
  cli.add_int("cycles", 3, "number of pulse periods");
  cli.add_double("dt-us", 2.0, "time step [us]");
  cli.add_string("scheme", "backward-euler", "backward-euler or crank-nicolson");
  ms::obs::add_cli_flags(cli);
  cli.parse(argc, argv);
  ms::obs::apply_cli_flags(cli);

  const int blocks = static_cast<int>(cli.get_int("blocks"));
  ms::core::SimulationConfig config = ms::core::SimulationConfig::paper_default();
  config.mesh_spec = {8, 6};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z =
      static_cast<int>(cli.get_int("nodes"));
  config.local.samples_per_block = static_cast<int>(cli.get_int("samples"));
  config.local.sample_displacements = false;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  config.coupling.transient.time_step = 1e-6 * cli.get_double("dt-us");
  config.coupling.transient.scheme = cli.get_string("scheme");

  const double pitch = config.geometry.pitch;
  const double extent = blocks * pitch;

  // The pulse: background-only when idle, background + a hotspot migrating
  // from the lower-left quadrant to the upper-right one while powered. The
  // duty-cycled square wave supplies the idle/active alternation; migration
  // enters through the "high" map changing every cycle.
  const ms::thermal::PowerMap idle =
      ms::thermal::PowerMap::per_block(blocks, blocks, pitch, cli.get_double("background"));
  const double period = 1e-6 * cli.get_double("period-us");
  const double duty = cli.get_double("duty");
  const int cycles = static_cast<int>(cli.get_int("cycles"));
  ms::thermal::PowerTrace trace;  // piecewise-constant
  for (int c = 0; c < cycles; ++c) {
    const double w = cycles > 1 ? static_cast<double>(c) / (cycles - 1) : 0.5;
    ms::thermal::PowerMap active = idle;
    active.add_gaussian_hotspot((0.3 + 0.4 * w) * extent, (0.3 + 0.4 * w) * extent,
                                1.5 * pitch, cli.get_double("peak"));
    trace.add_keyframe(c * period, active);
    trace.add_keyframe((c + duty) * period, idle);
  }

  std::printf("transient hotspot: %dx%d blocks, %d pulses of %.0f us (duty %.0f%%), dt %.1f us, "
              "%s\n\n",
              blocks, blocks, cycles, 1e6 * period, 100.0 * duty,
              1e6 * config.coupling.transient.time_step,
              config.coupling.transient.scheme.c_str());

  ms::core::MoreStressSimulator sim(config);
  ms::sweep::ScenarioSpec spec;
  spec.analysis = ms::sweep::AnalysisKind::kTransient;
  spec.load = ms::sweep::LoadKind::kTrace;
  spec.blocks_x = spec.blocks_y = blocks;
  spec.power_trace = std::make_shared<const ms::thermal::PowerTrace>(trace);
  const ms::core::TransientResult result = *sim.simulate(spec).transient;

  std::printf("transient solve: %d dofs, %d steps; assemble %.3f s, factor %.3f s, "
              "stepping %.3f s\n",
              static_cast<int>(result.thermal_stats.num_dofs), result.thermal_stats.num_steps,
              result.thermal_stats.assemble_seconds, result.thermal_stats.factor_seconds,
              result.thermal_stats.step_seconds);
  std::printf("global stage:    %.3f s (%d dofs)\n\n", result.stats.global_seconds(),
              static_cast<int>(result.stats.solve.num_dofs));

  print_block_map("per-block peak-envelope dT [C]", result.transient.peak_envelope, blocks,
                  blocks);
  std::printf("\n");
  print_block_map("per-block time-average dT [C]", result.transient.time_average, blocks,
                  blocks);
  std::printf("\n");
  print_block_map("envelope von Mises [MPa] (per-block peak)",
                  [&] {
                    std::vector<double> peaks(static_cast<std::size_t>(blocks) * blocks, 0.0);
                    const int s = result.samples_per_block;
                    const int width = blocks * s;
                    for (int by = 0; by < blocks; ++by) {
                      for (int bx = 0; bx < blocks; ++bx) {
                        double peak = 0.0;
                        for (int my = 0; my < s; ++my) {
                          for (int mx = 0; mx < s; ++mx) {
                            peak = std::max(peak,
                                            result.von_mises[static_cast<std::size_t>(
                                                                 by * s + my) * width +
                                                             bx * s + mx]);
                          }
                        }
                        peaks[static_cast<std::size_t>(by) * blocks + bx] = peak;
                      }
                    }
                    return peaks;
                  }(),
                  blocks, blocks);

  // --- invariants ----------------------------------------------------------
  // 1. Somewhere the envelope strictly exceeds the time-average: a pulsed
  //    trace is hotter at its peak than on average.
  double max_excess_ratio = 0.0;
  bool envelope_dominates = true;
  for (std::size_t b = 0; b < result.transient.peak_envelope.size(); ++b) {
    if (result.transient.time_average[b] > 0.0) {
      max_excess_ratio =
          std::max(max_excess_ratio,
                   result.transient.peak_envelope[b] / result.transient.time_average[b]);
    }
  }
  // 2. Envelope >= every recorded state, blockwise.
  for (const auto& state : result.transient.block_delta_t) {
    for (std::size_t b = 0; b < state.size(); ++b) {
      if (result.transient.peak_envelope[b] < state[b]) envelope_dominates = false;
    }
  }

  std::printf("\npeak envelope vs time-average: max ratio %.3f (%s)\n", max_excess_ratio,
              max_excess_ratio > 1.01 ? "OK, pulsed" : "FAIL, degenerate");
  std::printf("envelope dominates every recorded state: %s\n",
              envelope_dominates ? "OK" : "FAIL");
  ms::obs::write_cli_outputs(cli);
  return (max_excess_ratio > 1.01 && envelope_dominates) ? 0 : 1;
}
