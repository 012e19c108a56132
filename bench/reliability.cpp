// Reliability bench: cost of the cycle-resolved fatigue pipeline — the
// transient conduction march, the batched per-step ROM panel (one
// factorization for envelope + every step), channel extraction, and the
// rainflow + Miner reduction — plus a pure rainflow-kernel throughput case.
// Emits BENCH_reliability.json for the CI regression gate; num_rhs and the
// log10 lifetime double as determinism tripwires.
//
//   ./bench_reliability [--blocks 8] [--pulse-period-us 60] [--pulse-cycles 3]
//                       [--json BENCH_reliability.json] ...

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_cli.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "reliability/rainflow.hpp"
#include "sweep/scenario_result.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  ms::util::CliParser cli("reliability", "Cycle-resolved fatigue pipeline bench");
  ms::bench::add_common_flags(cli);
  cli.add_int("blocks", 8, "array edge length in blocks");
  cli.add_double("background", 20.0, "idle power density [W/mm^2]");
  cli.add_double("peak", 400.0, "hotspot peak power density [W/mm^2]");
  cli.add_double("pulse-period-us", 60.0, "pulse period [us]");
  cli.add_int("pulse-cycles", 3, "pulse count");
  cli.add_int("rainflow-points", 2000000, "synthetic series length of the kernel case");
  cli.add_string("json", "BENCH_reliability.json", "machine-readable output path (empty skips)");
  cli.parse(argc, argv);

  ms::bench::BenchSetup setup = ms::bench::default_setup(15.0);
  ms::bench::apply_common_flags(cli, setup);
  ms::core::SimulationConfig config = setup.config;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  const double period = 1e-6 * cli.get_double("pulse-period-us");
  config.coupling.transient.time_step = period / 20.0;
  std::vector<ms::util::JsonObject> records;

  // --- array fatigue: trace -> batched panel -> rainflow -> damage ---------
  const int blocks = static_cast<int>(cli.get_int("blocks"));
  const double pitch = config.geometry.pitch;
  const ms::thermal::PowerMap idle =
      ms::thermal::PowerMap::per_block(blocks, blocks, pitch, cli.get_double("background"));
  ms::thermal::PowerMap active = idle;
  const double mid = 0.5 * blocks * pitch;
  active.add_gaussian_hotspot(mid, mid, 1.5 * pitch, cli.get_double("peak"));
  const ms::thermal::PowerTrace trace = ms::thermal::PowerTrace::square_wave(
      idle, active, period, 0.5, static_cast<int>(cli.get_int("pulse-cycles")));

  ms::core::MoreStressSimulator sim(config);
  (void)sim.prepare_local_stage(/*with_dummy=*/false);
  ms::util::WallTimer timer;
  const ms::obs::RunReport before_case = ms::obs::RunReport::capture();
  ms::sweep::ScenarioSpec spec;
  spec.analysis = ms::sweep::AnalysisKind::kFatigue;
  spec.load = ms::sweep::LoadKind::kTrace;
  spec.blocks_x = spec.blocks_y = blocks;
  spec.power_trace = std::make_shared<const ms::thermal::PowerTrace>(trace);
  const ms::core::FatigueResult result = *sim.simulate(spec).fatigue;
  const double fatigue_seconds = timer.seconds();
  const ms::obs::RunReport after_case = ms::obs::RunReport::capture();

  std::printf("=== array fatigue: trace -> batched ROM panel -> rainflow -> damage ===\n");
  std::printf("%8s %8s %8s %12s %12s %12s %12s %12s\n", "array", "steps", "rhs", "thermal[s]",
              "panel[s]", "channels[s]", "damage[s]", "total[s]");
  // Stage timings come out of the metric registry (the solve paths publish
  // the same values the stats structs carry), not bench-side bookkeeping.
  const double thermal_seconds =
      after_case.delta(before_case, "thermal.transient.assemble_seconds") +
      after_case.delta(before_case, "thermal.transient.factor_seconds") +
      after_case.delta(before_case, "thermal.transient.step_seconds");
  const double panel_seconds = after_case.delta(before_case, "core.run.assemble_seconds") +
                               after_case.delta(before_case, "rom.global.solve_seconds");
  const double damage_seconds = after_case.delta(before_case, "reliability.assess_seconds");
  std::printf("%5dx%-3d %8d %8d %12.3f %12.3f %12.3f %12.3f %12.3f\n", blocks, blocks,
              result.thermal_stats.num_steps, static_cast<int>(result.stats.solve.num_rhs),
              thermal_seconds, panel_seconds, result.history_seconds, damage_seconds,
              fatigue_seconds);
  const double min_life_log10 = std::log10(result.report.min_life_cycles);
  std::printf("min lifetime: 1e%.3f trace passes (channel %s); factor %.3f s for %d rhs "
              "(%.2f ms/rhs triangular)\n",
              min_life_log10, ms::reliability::channel_name(result.report.min_life_channel),
              result.stats.solve.factor_seconds, static_cast<int>(result.stats.solve.num_rhs),
              1e3 * result.stats.solve.triangular_seconds /
                  std::max<ms::la::idx_t>(result.stats.solve.num_rhs, 1));

  // Fraction of point-steps the reduced-basis screen actually evaluated in
  // full — the cost of channel extraction scales with this, and a regression
  // toward 1.0 means the screen stopped pruning.
  const double screen_evaluated =
      after_case.delta(before_case, "reliability.screen.evaluated_point_steps");
  const double screen_total =
      after_case.delta(before_case, "reliability.screen.total_point_steps");
  const double screen_fraction = screen_total > 0.0 ? screen_evaluated / screen_total : 1.0;
  std::printf("screen evaluated %.0f of %.0f point-steps (%.1f%%)\n", screen_evaluated,
              screen_total, 100.0 * screen_fraction);

  double peak_vm = 0.0;
  for (double v : result.von_mises) peak_vm = std::max(peak_vm, v);
  records.push_back(
      ms::util::JsonObject()
          .set("scenario", "array_fatigue")
          .set("edge", blocks)
          .set("num_steps", result.thermal_stats.num_steps)
          .set("num_rhs", static_cast<std::int64_t>(result.stats.solve.num_rhs))
          .set("num_factorizations", result.stats.solve.num_factorizations)
          .set("thermal_seconds", thermal_seconds)
          .set("panel_seconds", panel_seconds)
          .set("panel_factor_seconds", after_case.delta(before_case, "rom.global.factor_seconds"))
          .set("panel_triangular_seconds",
               after_case.delta(before_case, "rom.global.triangular_seconds"))
          .set("channel_extraction_seconds", result.history_seconds)
          .set("damage_seconds", damage_seconds)
          .set("fatigue_seconds", fatigue_seconds)
          .set("global_dofs", static_cast<std::int64_t>(result.stats.solve.num_dofs))
          .set("peak_von_mises", peak_vm)
          .set("min_life_log10", min_life_log10)
          .set("screen_evaluated_fraction", screen_fraction)
          .set("memory_bytes", result.stats.memory_bytes));

  // --- rainflow kernel throughput ------------------------------------------
  const std::size_t points = static_cast<std::size_t>(cli.get_int("rainflow-points"));
  std::vector<double> series(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = static_cast<double>(i);
    series[i] = 60.0 * std::sin(0.37 * t) + 25.0 * std::sin(0.011 * t) + 10.0 * std::sin(1.7 * t);
  }
  // Time the kernel through the registry: record into a bench-owned
  // histogram, then read the duration back out of a report snapshot.
  const ms::obs::RunReport before_kernel = ms::obs::RunReport::capture();
  std::vector<ms::reliability::Cycle> cycles;
  {
    ms::obs::ScopedSpan kernel_span(
        "bench.rainflow.kernel",
        ms::obs::MetricRegistry::global().histogram("bench.rainflow.kernel_seconds"));
    cycles = ms::reliability::rainflow_count(series);
  }
  const double rainflow_seconds =
      ms::obs::RunReport::capture().delta(before_kernel, "bench.rainflow.kernel_seconds");
  double total = 0.0;
  for (const auto& c : cycles) total += c.count;
  std::printf("\n=== rainflow kernel ===\n");
  std::printf("%zu points -> %.0f cycle counts in %.3f s (%.1f Mpts/s)\n", points, total,
              rainflow_seconds, 1e-6 * static_cast<double>(points) / rainflow_seconds);
  records.push_back(ms::util::JsonObject()
                        .set("scenario", "rainflow_kernel")
                        .set("edge", static_cast<int>(points))
                        .set("rainflow_seconds", rainflow_seconds)
                        .set("total_cycle_counts", total));

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    ms::util::write_bench_json(json_path, "reliability", records);
    std::printf("\nwrote %s (%d cases)\n", json_path.c_str(), static_cast<int>(records.size()));
  }
  ms::obs::write_cli_outputs(cli);
  return 0;
}
