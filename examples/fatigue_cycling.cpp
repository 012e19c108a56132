// Fatigue under power cycling: a duty-cycled hotspot square wave marched
// cycle-resolved through the reliability pipeline — transient conduction,
// one batched multi-RHS ROM panel over every recorded step, per-block stress
// channels, ASTM E1049 rainflow, and Miner damage under the standard model
// set. Prints the lifetime map and the reliability verdict.
//
//   ./fatigue_cycling [--blocks 4] [--background 5] [--peak 400]
//                     [--period-us 400] [--cycles 4] [--dt-us 20]
//
// Self-checks (exit 1 on failure):
//   1. Consistency: the reported Miner damage of the life-limiting block
//      equals an independent rainflow + Miner recomputation of its recorded
//      channel series (same model), to near machine precision.
//   2. Analytic Miner sum: each square-wave phase spans many thermal time
//      constants, so the von Mises history of every block saturates between
//      two levels l < h. E1049 counting of such a two-level history is
//      exactly (N - 1) full cycles of range h - l plus half cycles of ranges
//      h and h - l, so the damage must match
//        D = (N - 1/2) / Nf(h - l) + 1/2 / Nf(h)
//      with the levels read off the recorded history (small tolerance covers
//      the first-cycle ramp's residual transient).
//   3. Batching invariant: envelope + all steps solved as one panel on a
//      single factorization.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "obs/obs_cli.hpp"
#include "reliability/rainflow.hpp"
#include "sweep/scenario_result.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  ms::util::CliParser cli("fatigue_cycling", "Cycle-resolved fatigue of a pulsed TSV array");
  cli.add_int("blocks", 4, "array edge length in blocks");
  cli.add_int("nodes", 3, "Lagrange interpolation nodes per axis");
  cli.add_int("samples", 20, "plane samples per block");
  cli.add_double("background", 5.0, "idle power density [W/mm^2]");
  cli.add_double("peak", 400.0, "hotspot peak power density [W/mm^2]");
  cli.add_double("period-us", 400.0, "pulse period [us]");
  cli.add_int("cycles", 4, "number of pulse periods");
  cli.add_double("dt-us", 20.0, "time step [us]");
  ms::obs::add_cli_flags(cli);
  cli.parse(argc, argv);
  ms::obs::apply_cli_flags(cli);

  const int blocks = static_cast<int>(cli.get_int("blocks"));
  const int cycles = static_cast<int>(cli.get_int("cycles"));
  ms::core::SimulationConfig config = ms::core::SimulationConfig::paper_default();
  config.mesh_spec = {8, 6};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z =
      static_cast<int>(cli.get_int("nodes"));
  config.local.samples_per_block = static_cast<int>(cli.get_int("samples"));
  config.local.sample_displacements = false;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  config.coupling.transient.time_step = 1e-6 * cli.get_double("dt-us");

  const double pitch = config.geometry.pitch;
  const double period = 1e-6 * cli.get_double("period-us");
  const ms::thermal::PowerMap idle =
      ms::thermal::PowerMap::per_block(blocks, blocks, pitch, cli.get_double("background"));
  ms::thermal::PowerMap active = idle;
  const double mid = 0.5 * blocks * pitch;
  active.add_gaussian_hotspot(mid, mid, 1.5 * pitch, cli.get_double("peak"));
  const ms::thermal::PowerTrace trace =
      ms::thermal::PowerTrace::square_wave(idle, active, period, 0.5, cycles);

  std::printf("fatigue cycling: %dx%d blocks, %d pulses of %.0f us, dt %.0f us\n\n", blocks,
              blocks, cycles, 1e6 * period, 1e6 * config.coupling.transient.time_step);

  ms::core::MoreStressSimulator sim(config);
  ms::sweep::ScenarioSpec spec;
  spec.analysis = ms::sweep::AnalysisKind::kFatigue;
  spec.load = ms::sweep::LoadKind::kTrace;
  spec.blocks_x = spec.blocks_y = blocks;
  spec.power_trace = std::make_shared<const ms::thermal::PowerTrace>(trace);
  const ms::core::FatigueResult result = *sim.simulate(spec).fatigue;

  std::printf("transient: %d steps; ROM panel: %d rhs on %d factorization(s), "
              "factor %.3f s + triangular %.3f s; channels %.3f s, rainflow+damage %.3f s\n\n",
              result.thermal_stats.num_steps, static_cast<int>(result.stats.solve.num_rhs),
              result.stats.solve.num_factorizations, result.stats.solve.factor_seconds,
              result.stats.solve.triangular_seconds, result.history_seconds,
              result.reliability_seconds);
  std::printf("%s\n", ms::core::format_reliability(result.report).c_str());

  // --- lifetime map (log10 trace passes, governing channel) ----------------
  const auto* vm = result.report.assessment(ms::reliability::StressChannel::kVonMises);
  std::printf("von Mises lifetime map [log10 trace passes]:\n");
  for (int by = blocks - 1; by >= 0; --by) {
    std::printf("  ");
    for (int bx = 0; bx < blocks; ++bx) {
      std::printf("%6.1f", std::log10(vm->cycles_to_failure[by * blocks + bx]));
    }
    std::printf("\n");
  }

  // --- self-check 1: reported damage == independent recomputation ----------
  bool ok = true;
  const auto copper_model =
      ms::reliability::basquin_from_material(config.materials.at(ms::mesh::MaterialId::Copper));
  const int worst = vm->min_life_block;
  const std::vector<double> series =
      result.history.series(ms::reliability::StressChannel::kVonMises, worst);
  const double recomputed =
      ms::reliability::miner_damage(ms::reliability::rainflow_count(series), *copper_model);
  const double reported = vm->damage[worst];
  const double consistency = std::abs(recomputed - reported) / reported;
  std::printf("\nconsistency: reported damage %.6e vs recomputed %.6e (rel diff %.2e) %s\n",
              reported, recomputed, consistency, consistency < 1e-12 ? "OK" : "FAIL");
  ok = ok && consistency < 1e-12;

  // --- self-check 2: analytic Miner sum of the saturated square wave -------
  const double h = *std::max_element(series.begin(), series.end());
  const double l = series.back();  // the saturated idle level ends the trace
  // Rainflow reports the true cycle means ((h+l)/2 for the full cycles, h/2
  // for the peak half cycle); the model's Goodman correction uses them, so
  // the analytic sum must charge the same means.
  const double nf_range = copper_model->cycles_to_failure(h - l, 0.5 * (h + l));
  const double nf_peak = copper_model->cycles_to_failure(h, 0.5 * h);
  const double analytic = (cycles - 0.5) / nf_range + 0.5 / nf_peak;
  const double ratio = reported / analytic;
  std::printf("analytic Miner sum: D = (N - 1/2)/Nf(%.1f) + 1/2/Nf(%.1f) = %.6e, "
              "reported/analytic = %.3f %s\n",
              h - l, h, analytic, ratio, (ratio > 0.8 && ratio < 1.25) ? "OK" : "FAIL");
  ok = ok && ratio > 0.8 && ratio < 1.25;

  // --- self-check 3: one factorization, one panel ---------------------------
  const bool batched = result.stats.solve.num_factorizations == 1 &&
                       result.stats.solve.num_rhs ==
                           static_cast<ms::la::idx_t>(result.history_steps.size()) + 1;
  std::printf("batched panel: %d rhs, %d factorization(s) %s\n",
              static_cast<int>(result.stats.solve.num_rhs),
              result.stats.solve.num_factorizations, batched ? "OK" : "FAIL");
  ok = ok && batched;

  ms::obs::write_cli_outputs(cli);
  return ok ? 0 : 1;
}
