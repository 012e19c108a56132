// Thermal-coupling bench: cost of the conduction -> ΔT -> ROM pipeline for
// both thermally coupled scenarios — standalone arrays (scenario 3) and the
// package sub-model (scenario 2) — plus the OpenMP speedup of the one-shot
// local stage. Emits a machine-readable BENCH_thermal.json so the perf
// trajectory of the coupling path is tracked run over run.
//
//   ./bench_thermal_coupling [--sizes 8,16] [--submodel 5] [--rings 2]
//                            [--json BENCH_thermal.json] ...

#include <algorithm>
#include <cmath>
#include <cstdio>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "chiplet/package_model.hpp"
#include "chiplet/submodel.hpp"
#include "common.hpp"
#include "obs/obs_cli.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sweep/scenario_result.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

double peak_of(const std::vector<double>& field) {
  double peak = 0.0;
  for (double v : field) peak = std::max(peak, v);
  return peak;
}

/// Steady power-map scenario of an edge x edge array driven by `power`.
ms::sweep::ScenarioSpec power_spec(int edge, const ms::thermal::PowerMap& power) {
  ms::sweep::ScenarioSpec spec;
  spec.load = ms::sweep::LoadKind::kPower;
  spec.blocks_x = spec.blocks_y = edge;
  spec.power_map = std::make_shared<const ms::thermal::PowerMap>(power);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  ms::util::CliParser cli("thermal_coupling", "Power-map -> temperature -> ROM stress bench");
  ms::bench::add_common_flags(cli);
  cli.add_string("sizes", "8,16", "array edge lengths");
  cli.add_int("submodel", 5, "sub-model TSV array edge (0 skips the case)");
  cli.add_int("rings", 2, "sub-model dummy-block padding rings");
  cli.add_double("background", 20.0, "array background power density [W/mm^2]");
  cli.add_double("peak", 400.0, "array hotspot peak power density [W/mm^2]");
  // The package sinks through a thick low-k organic substrate, so a few
  // W/mm^2 already produce reflow-scale dT; the array flags would melt it.
  cli.add_double("submodel-power", 2.0, "sub-model die power density [W/mm^2]");
  cli.add_double("pulse-period-us", 60.0, "transient-case pulse period [us]");
  cli.add_int("pulse-cycles", 3, "transient-case pulse count");
  cli.add_string("json", "BENCH_thermal.json", "machine-readable output path (empty skips)");
  cli.parse(argc, argv);

  ms::bench::BenchSetup setup = ms::bench::default_setup(15.0);
  ms::bench::apply_common_flags(cli, setup);
  const ms::core::SimulationConfig& config = setup.config;
  std::vector<ms::util::JsonObject> records;

  // --- local-stage parallel speedup ---------------------------------------
#ifdef _OPENMP
  const int max_threads = omp_get_max_threads();
  omp_set_num_threads(1);
#else
  const int max_threads = 1;
#endif
  // Timings come from the metric registry (the local stage records itself
  // into rom.local.stage_seconds), not bench-side stopwatches.
  ms::obs::RunReport before_serial = ms::obs::RunReport::capture();
  (void)ms::rom::run_local_stage(config.geometry, config.mesh_spec, config.materials,
                                 ms::rom::BlockKind::Tsv, config.local);
  const double serial_seconds =
      ms::obs::RunReport::capture().delta(before_serial, "rom.local.stage_seconds");
#ifdef _OPENMP
  omp_set_num_threads(max_threads);
#endif
  ms::obs::RunReport before_parallel = ms::obs::RunReport::capture();
  (void)ms::rom::run_local_stage(config.geometry, config.mesh_spec, config.materials,
                                 ms::rom::BlockKind::Tsv, config.local);
  const double parallel_seconds =
      ms::obs::RunReport::capture().delta(before_parallel, "rom.local.stage_seconds");
  std::printf("=== local stage OpenMP speedup ===\n");
  std::printf("1 thread:   %.3f s\n", serial_seconds);
  std::printf("%d thread%s: %.3f s  (speedup %.2fx)\n\n", max_threads,
              max_threads == 1 ? " " : "s", parallel_seconds,
              serial_seconds / std::max(parallel_seconds, 1e-12));
  records.push_back(ms::util::JsonObject()
                        .set("scenario", "local_stage_speedup")
                        .set("threads", max_threads)
                        .set("serial_seconds", serial_seconds)
                        .set("parallel_seconds", parallel_seconds));

  // --- scenario 3: array power map -> dT -> stress -------------------------
  ms::core::MoreStressSimulator sim(config);
  (void)sim.prepare_local_stage(/*with_dummy=*/false);

  std::printf("=== array: power map -> dT -> stress ===\n");
  std::printf("%8s %12s %12s %12s %12s %10s\n", "array", "thermal[s]", "global[s]", "dT min[C]",
              "dT max[C]", "peak[MPa]");
  for (int edge : ms::bench::parse_int_list(cli.get_string("sizes"))) {
    ms::thermal::PowerMap power = ms::thermal::PowerMap::per_block(
        edge, edge, config.geometry.pitch, cli.get_double("background"));
    const double mid = 0.5 * edge * config.geometry.pitch;
    power.add_gaussian_hotspot(mid, mid, 1.5 * config.geometry.pitch, cli.get_double("peak"));

    // Timings and factor detail read back from the registry: the solve paths
    // publish the same values the stats structs carry (regression-locked by
    // tests/obs), so the bench emits registry deltas.
    const ms::obs::RunReport before_case = ms::obs::RunReport::capture();
    const ms::core::ThermalResult result = *sim.simulate(power_spec(edge, power)).thermal;
    const ms::obs::RunReport after_case = ms::obs::RunReport::capture();
    const double thermal_seconds =
        after_case.delta(before_case, "thermal.steady.assemble_seconds") +
        after_case.delta(before_case, "thermal.steady.solve_seconds");
    const double global_seconds = after_case.delta(before_case, "core.run.assemble_seconds") +
                                  after_case.delta(before_case, "rom.global.solve_seconds") +
                                  after_case.delta(before_case, "core.run.reconstruct_seconds");
    const double peak = peak_of(result.von_mises);
    std::printf("%5dx%-3d %12.3f %12.3f %12.3f %12.3f %10.1f\n", edge, edge, thermal_seconds,
                global_seconds, result.load.min(), result.load.max(), peak);
    ms::util::JsonObject record;
    record.set("scenario", "array")
        .set("edge", edge)
        .set("thermal_seconds", thermal_seconds)
        .set("thermal_dofs", static_cast<std::int64_t>(after_case.value("thermal.steady.num_dofs")))
        .set("global_seconds", global_seconds)
        .set("global_dofs", static_cast<std::int64_t>(after_case.value("rom.global.num_dofs")))
        .set("dt_min", result.load.min())
        .set("dt_max", result.load.max())
        .set("peak_von_mises", peak)
        .set("memory_bytes", result.stats.memory_bytes);
    const auto factor_nnz = static_cast<std::int64_t>(after_case.value("rom.global.factor_nnz"));
    if (factor_nnz > 0 &&
        after_case.count_delta(before_case, "rom.global.factorizations") > 0) {
      // Global stage ran the direct path: surface its factorization detail.
      const double factor_seconds = after_case.delta(before_case, "rom.global.factor_seconds");
      record.set("global_factor_seconds", factor_seconds)
          .set("global_factor_nnz", factor_nnz)
          .set("global_fill_ratio", after_case.value("rom.global.fill_ratio"))
          .set("global_ordering", result.stats.solve.ordering);
      std::printf("   global factor: %s ordering, nnz(L) = %lld (fill %.2fx, %.3fs)\n",
                  result.stats.solve.ordering.c_str(), static_cast<long long>(factor_nnz),
                  after_case.value("rom.global.fill_ratio"), factor_seconds);
    }
    records.push_back(std::move(record));
  }

  // --- scenario 3, time domain: pulsed trace -> envelope -> stress ---------
  {
    const int edge = ms::bench::parse_int_list(cli.get_string("sizes")).front();
    const double pitch = config.geometry.pitch;
    const ms::thermal::PowerMap idle =
        ms::thermal::PowerMap::per_block(edge, edge, pitch, cli.get_double("background"));
    ms::thermal::PowerMap active = idle;
    const double mid = 0.5 * edge * pitch;
    active.add_gaussian_hotspot(mid, mid, 1.5 * pitch, cli.get_double("peak"));
    const double period = 1e-6 * cli.get_double("pulse-period-us");
    const ms::thermal::PowerTrace trace = ms::thermal::PowerTrace::square_wave(
        idle, active, period, 0.5, static_cast<int>(cli.get_int("pulse-cycles")));

    ms::core::SimulationConfig transient_config = config;
    transient_config.coupling.transient.time_step = period / 20.0;
    ms::core::MoreStressSimulator transient_sim(transient_config);
    (void)transient_sim.prepare_local_stage(/*with_dummy=*/false);
    const ms::obs::RunReport before_case = ms::obs::RunReport::capture();
    ms::sweep::ScenarioSpec spec;
    spec.analysis = ms::sweep::AnalysisKind::kTransient;
    spec.load = ms::sweep::LoadKind::kTrace;
    spec.blocks_x = spec.blocks_y = edge;
    spec.power_trace = std::make_shared<const ms::thermal::PowerTrace>(trace);
    const ms::core::TransientResult result = *transient_sim.simulate(spec).transient;
    const ms::obs::RunReport after_case = ms::obs::RunReport::capture();
    const double factor_seconds = after_case.delta(before_case, "thermal.transient.factor_seconds");
    const double step_seconds = after_case.delta(before_case, "thermal.transient.step_seconds");
    const double thermal_seconds =
        after_case.delta(before_case, "thermal.transient.assemble_seconds") + factor_seconds +
        step_seconds;
    const double global_seconds = after_case.delta(before_case, "core.run.assemble_seconds") +
                                  after_case.delta(before_case, "rom.global.solve_seconds") +
                                  after_case.delta(before_case, "core.run.reconstruct_seconds");
    const auto num_steps =
        static_cast<int>(after_case.count_delta(before_case, "thermal.transient.steps"));
    const double peak = peak_of(result.von_mises);

    std::printf("\n=== array transient: power trace -> envelope -> stress ===\n");
    std::printf("%8s %8s %12s %12s %12s %12s %10s\n", "array", "steps", "factor[s]", "steps[s]",
                "env max[C]", "avg max[C]", "peak[MPa]");
    const double env_max =
        *std::max_element(result.transient.peak_envelope.begin(),
                          result.transient.peak_envelope.end());
    const double avg_max = *std::max_element(result.transient.time_average.begin(),
                                             result.transient.time_average.end());
    std::printf("%5dx%-3d %8d %12.3f %12.3f %12.3f %12.3f %10.1f\n", edge, edge, num_steps,
                factor_seconds, step_seconds, env_max, avg_max, peak);
    std::printf("stepper factor: %s ordering, nnz(L) = %lld (fill %.2fx)\n",
                result.thermal_stats.ordering.c_str(),
                static_cast<long long>(after_case.value("thermal.transient.factor_nnz")),
                after_case.value("thermal.transient.fill_ratio"));
    records.push_back(ms::util::JsonObject()
                          .set("scenario", "array_transient")
                          .set("edge", edge)
                          .set("num_steps", num_steps)
                          .set("thermal_seconds", thermal_seconds)
                          .set("factor_seconds", factor_seconds)
                          .set("step_seconds", step_seconds)
                          .set("thermal_dofs",
                               static_cast<std::int64_t>(
                                   after_case.value("thermal.transient.num_dofs")))
                          .set("global_seconds", global_seconds)
                          .set("stepper_factor_nnz",
                               static_cast<std::int64_t>(
                                   after_case.value("thermal.transient.factor_nnz")))
                          .set("stepper_fill_ratio",
                               after_case.value("thermal.transient.fill_ratio"))
                          .set("stepper_ordering", result.thermal_stats.ordering)
                          .set("envelope_dt_max", env_max)
                          .set("time_average_dt_max", avg_max)
                          .set("peak_von_mises", peak)
                          .set("memory_bytes", result.stats.memory_bytes));
  }

  // --- scenario 2: package sub-model under the same hotspot ----------------
  const int submodel_edge = static_cast<int>(cli.get_int("submodel"));
  if (submodel_edge > 0) {
    const int rings = static_cast<int>(cli.get_int("rings"));
    const int padded = submodel_edge + 2 * rings;

    const ms::chiplet::PackageGeometry geom = ms::chiplet::demo_package_geometry(
        config.geometry.pitch, padded, config.geometry.height);

    std::printf("\n=== sub-model: package power map -> dT -> stress ===\n");
    // The package ctor runs one full FEM solve; read its cost and factor
    // detail back out of the fem.* metrics it published.
    const ms::obs::RunReport before_package = ms::obs::RunReport::capture();
    ms::util::WallTimer timer;
    const auto package = std::make_shared<const ms::chiplet::PackageModel>(
        geom, ms::chiplet::demo_coarse_spec(), config.thermal_load);
    const double package_seconds = timer.seconds();
    const ms::obs::RunReport after_package = ms::obs::RunReport::capture();
    const double package_factor_seconds =
        after_package.delta(before_package, "fem.factor_seconds");
    const auto package_factor_nnz =
        static_cast<std::int64_t>(after_package.value("fem.factor_nnz"));
    const double package_fill_ratio = after_package.value("fem.fill_ratio");
    std::printf("coarse package solve: %.2f s (%d dofs; factor %.2f s, %s ordering, "
                "nnz(L) = %lld, fill %.2fx)\n",
                package_seconds, static_cast<int>(after_package.value("fem.num_dofs")),
                package_factor_seconds, package->stats().ordering.c_str(),
                static_cast<long long>(package_factor_nnz), package_fill_ratio);
    (void)sim.prepare_local_stage(/*with_dummy=*/rings > 0);

    const auto locations =
        ms::chiplet::standard_locations(geom, config.geometry.pitch, padded, padded);
    const ms::chiplet::SubmodelPlacement& loc = locations[0];

    const double die_power = cli.get_double("submodel-power");
    const ms::thermal::PowerMap power = ms::chiplet::demo_power_map(
        geom, loc, config.geometry.pitch, die_power, 10.0 * die_power);

    const ms::obs::RunReport before_case = ms::obs::RunReport::capture();
    ms::sweep::ScenarioSpec spec;
    spec.kind = ms::sweep::ScenarioKind::kSubmodel;
    spec.load = ms::sweep::LoadKind::kPower;
    spec.blocks_x = spec.blocks_y = submodel_edge;
    spec.dummy_rings = rings;
    spec.package = package;
    spec.placement = loc;
    spec.power_map = std::make_shared<const ms::thermal::PowerMap>(power);
    const ms::core::ThermalResult result = *sim.simulate(spec).thermal;
    const ms::obs::RunReport after_case = ms::obs::RunReport::capture();
    const double thermal_seconds =
        after_case.delta(before_case, "thermal.steady.assemble_seconds") +
        after_case.delta(before_case, "thermal.steady.solve_seconds");
    const double global_seconds = after_case.delta(before_case, "core.run.assemble_seconds") +
                                  after_case.delta(before_case, "rom.global.solve_seconds") +
                                  after_case.delta(before_case, "core.run.reconstruct_seconds");
    const double peak = peak_of(result.von_mises);
    std::printf("%8s %12s %12s %12s %12s %10s\n", "submodel", "thermal[s]", "global[s]",
                "dT min[C]", "dT max[C]", "peak[MPa]");
    std::printf("%5dx%-3d %12.3f %12.3f %12.3f %12.3f %10.1f\n", submodel_edge, submodel_edge,
                thermal_seconds, global_seconds, result.load.min(), result.load.max(), peak);
    records.push_back(ms::util::JsonObject()
                          .set("scenario", "submodel")
                          .set("edge", submodel_edge)
                          .set("rings", rings)
                          .set("location", loc.label)
                          .set("package_solve_seconds", package_seconds)
                          .set("package_factor_seconds", package_factor_seconds)
                          .set("package_factor_nnz", package_factor_nnz)
                          .set("package_fill_ratio", package_fill_ratio)
                          .set("package_ordering", package->stats().ordering)
                          .set("thermal_seconds", thermal_seconds)
                          .set("thermal_dofs", static_cast<std::int64_t>(
                                                   after_case.value("thermal.steady.num_dofs")))
                          .set("global_seconds", global_seconds)
                          .set("global_dofs",
                               static_cast<std::int64_t>(after_case.value("rom.global.num_dofs")))
                          .set("dt_min", result.load.min())
                          .set("dt_max", result.load.max())
                          .set("peak_von_mises", peak)
                          .set("memory_bytes", result.stats.memory_bytes));
  }

  // --- tracing overhead: instrumented vs disabled ---------------------------
  // Gated by tools/bench_gate.py: the span/metric layer must stay within a
  // few percent of the untraced pipeline. One solve lasts tens of
  // milliseconds, so each sample repeats it to half a second (see
  // bench::measure_overhead); the same solve runs in both states so the work
  // is identical.
  {
    const int edge = ms::bench::parse_int_list(cli.get_string("sizes")).front();
    ms::thermal::PowerMap power = ms::thermal::PowerMap::per_block(
        edge, edge, config.geometry.pitch, cli.get_double("background"));
    const double mid = 0.5 * edge * config.geometry.pitch;
    power.add_gaussian_hotspot(mid, mid, 1.5 * config.geometry.pitch, cli.get_double("peak"));
    const ms::sweep::ScenarioSpec spec = power_spec(edge, power);
    const bool was_enabled = ms::obs::tracing_enabled();
    ms::util::WallTimer warmup;  // wall clock: the registry cannot time itself
    (void)sim.simulate(spec);
    const ms::bench::OverheadSamples samples = ms::bench::measure_overhead(
        warmup.seconds(), [](bool traced) { ms::obs::set_tracing_enabled(traced); },
        [&] { (void)sim.simulate(spec); });
    ms::obs::set_tracing_enabled(was_enabled);
    std::printf("\n=== tracing overhead (array %dx%d, %d solves per sample, min of 3) ===\n",
                edge, edge, samples.repeats);
    std::printf("disabled %.3f s, enabled %.3f s -> ratio %.3f\n", samples.disabled_seconds,
                samples.enabled_seconds, samples.ratio());
    records.push_back(ms::util::JsonObject()
                          .set("scenario", "trace_overhead")
                          .set("edge", edge)
                          .set("repeats", samples.repeats)
                          .set("disabled_seconds", samples.disabled_seconds)
                          .set("enabled_seconds", samples.enabled_seconds)
                          .set("trace_overhead_ratio", samples.ratio()));
  }

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    ms::util::write_bench_json(json_path, "thermal_coupling", records);
    std::printf("\nwrote %s (%d cases)\n", json_path.c_str(), static_cast<int>(records.size()));
  }
  ms::obs::write_cli_outputs(cli);
  return 0;
}
