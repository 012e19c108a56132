// Sweep bench: throughput of the cached scenario-query service on a
// trace-family sweep — one 8x8 array fatigue scenario per (duty, peak) point
// of a square-wave power pulse. Every scenario shares the ROM block spec and
// the global/conduction operator structure, so the cold cost (assemble +
// factorize per query) amortizes to triangular solves + extraction once the
// caches are warm. Emits BENCH_sweep.json for the CI regression gate; the
// bitwise flag and the cache counters double as correctness tripwires.
//
//   ./bench_sweep [--grid 8] [--blocks 8] [--pulse-period-us 60]
//                 [--json BENCH_sweep.json] ...

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs_cli.hpp"
#include "obs/trace.hpp"
#include "sweep/scenario_spec.hpp"
#include "sweep/sweep_engine.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace {

/// Field-for-field bitwise comparison of a warm engine result against the
/// cold cache-less simulate(spec) result for the same spec.
bool bitwise_equal(const ms::sweep::ScenarioResult& warm,
                   const ms::sweep::ScenarioResult& cold_row) {
  if (warm.fatigue == nullptr || cold_row.fatigue == nullptr) return false;
  const ms::core::FatigueResult& w = *warm.fatigue;
  const ms::core::FatigueResult& cold = *cold_row.fatigue;
  return w.von_mises == cold.von_mises && w.stress == cold.stress &&
         w.solution == cold.solution && w.envelope_load.values() == cold.envelope_load.values() &&
         w.report.min_life_cycles == cold.report.min_life_cycles &&
         w.report.min_life_seconds == cold.report.min_life_seconds &&
         w.report.min_life_channel == cold.report.min_life_channel;
}

}  // namespace

int main(int argc, char** argv) {
  ms::util::CliParser cli("sweep", "Scenario-sweep query-service throughput bench");
  cli.add_int("grid", 8, "sweep grid edge: grid x grid (duty, peak) scenarios");
  cli.add_int("blocks", 8, "array edge length in blocks");
  cli.add_int("samples", 10, "plane samples per block (throughput scale, not table scale)");
  cli.add_double("background", 20.0, "idle power density [W/mm^2]");
  cli.add_double("peak-max", 400.0, "largest hotspot peak power density [W/mm^2]");
  cli.add_double("pulse-period-us", 60.0, "pulse period [us]");
  cli.add_int("steps-per-period", 8, "transient steps per pulse period");
  cli.add_string("log", "warn", "log level: trace..off");
  cli.add_string("json", "BENCH_sweep.json", "machine-readable output path (empty skips)");
  ms::obs::add_cli_flags(cli);
  cli.parse(argc, argv);
  ms::util::set_log_level(ms::util::parse_log_level(cli.get_string("log")));
  ms::obs::apply_cli_flags(cli);

  // Bench-scale config: the query service's throughput is the subject, so
  // the per-query reduction work (plane samples) runs at sweep scale rather
  // than paper-table scale — what a design-space exploration would use.
  ms::core::SimulationConfig config = ms::bench::default_setup(15.0).config;
  config.local.samples_per_block = static_cast<int>(cli.get_int("samples"));
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  const double period = 1e-6 * cli.get_double("pulse-period-us");
  config.coupling.transient.time_step = period / static_cast<double>(cli.get_int("steps-per-period"));

  // --- the trace family: grid x grid (duty, peak) fatigue scenarios --------
  const int grid = static_cast<int>(cli.get_int("grid"));
  const int blocks = static_cast<int>(cli.get_int("blocks"));
  std::vector<ms::sweep::ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(grid) * grid);
  for (int i = 0; i < grid; ++i) {
    for (int j = 0; j < grid; ++j) {
      ms::sweep::ScenarioSpec spec;
      spec.name = "duty" + std::to_string(i + 1) + "_peak" + std::to_string(j + 1);
      spec.kind = ms::sweep::ScenarioKind::kArray;
      spec.analysis = ms::sweep::AnalysisKind::kFatigue;
      spec.load = ms::sweep::LoadKind::kTrace;
      spec.blocks_x = blocks;
      spec.blocks_y = blocks;
      spec.power.background = cli.get_double("background");
      spec.power.hotspot_peak = cli.get_double("peak-max") * (j + 1) / grid;
      spec.trace.shape = "square";
      spec.trace.period = period;
      spec.trace.duty = static_cast<double>(i + 1) / (grid + 1);
      spec.trace.cycles = 1;
      spec.validate();
      specs.push_back(std::move(spec));
    }
  }
  const int num_scenarios = static_cast<int>(specs.size());

  // --- cold baseline: simulate(spec) with no caches attached ---------------
  // One simulator (the local-stage model is one-shot state every flow
  // amortizes), but every query assembles and factorizes from scratch.
  ms::core::MoreStressSimulator cold_sim(config);
  (void)cold_sim.prepare_local_stage(/*with_dummy=*/false);
  std::vector<ms::sweep::ScenarioResult> cold_results;
  cold_results.reserve(specs.size());
  ms::util::WallTimer cold_timer;
  for (const ms::sweep::ScenarioSpec& spec : specs) cold_results.push_back(cold_sim.simulate(spec));
  const double cold_seconds = cold_timer.seconds();
  const double cold_qps = num_scenarios / cold_seconds;
  std::printf("=== cold: cache-less simulate(spec) per spec ===\n");
  std::printf("%d queries in %.3f s (%.2f queries/s)\n", num_scenarios, cold_seconds, cold_qps);

  // --- first engine pass: populates the shared caches, locks correctness ---
  ms::sweep::SweepOptions options;
  options.config = config;
  // The warm pass below is the telemetry-OFF baseline of the overhead gate,
  // so the engine must not auto-enable the flight recorder here.
  options.flight_recorder = false;
  ms::sweep::SweepEngine engine(options);
  ms::sweep::SweepStats first_stats;
  const std::vector<ms::sweep::ScenarioResult> first = engine.run(specs, &first_stats);
  bool bitwise = first.size() == cold_results.size();
  for (std::size_t k = 0; bitwise && k < first.size(); ++k) {
    bitwise = bitwise_equal(first[k], cold_results[k]);
  }
  std::printf("\n=== engine pass 1 (cache fill): %.3f s, factor %llu hit / %llu miss, "
              "model %llu hit / %llu miss ===\n",
              first_stats.wall_seconds,
              static_cast<unsigned long long>(first_stats.factor_cache_hits),
              static_cast<unsigned long long>(first_stats.factor_cache_misses),
              static_cast<unsigned long long>(first_stats.model_cache_hits),
              static_cast<unsigned long long>(first_stats.model_cache_misses));
  std::printf("bitwise identical to cold results: %s\n", bitwise ? "yes" : "NO");

  // --- warm pass: every operator factorization is a cache hit --------------
  ms::sweep::SweepStats warm_stats;
  const std::vector<ms::sweep::ScenarioResult> warm = engine.run(specs, &warm_stats);
  const double warm_qps = num_scenarios / warm_stats.wall_seconds;
  std::int64_t warm_factorizations = 0;
  int pareto_count = 0;
  for (const ms::sweep::ScenarioResult& r : warm) {
    if (r.fatigue != nullptr) warm_factorizations += r.fatigue->stats.solve.num_factorizations;
    pareto_count += r.pareto_optimal ? 1 : 0;
  }
  std::printf("\n=== warm: shared factorizations + models ===\n");
  std::printf("%d queries in %.3f s (%.2f queries/s, %.1fx cold); "
              "%lld global factorizations, %d Pareto-optimal\n",
              num_scenarios, warm_stats.wall_seconds, warm_qps, warm_qps / cold_qps,
              static_cast<long long>(warm_factorizations), pareto_count);

  // --- telemetry overhead: same warm caches, everything on vs off ---------
  // Span tracing + flight recorder (the event log is on the whole run when
  // --events-jsonl is given, so it cancels out of the ratio). The warm pass
  // above is the warm-up that sizes each sample (bench::measure_overhead).
  // The gate in tools/bench_gate.py holds telemetry_overhead_ratio to <= 1.05.
  const bool was_tracing = ms::obs::tracing_enabled();
  ms::sweep::SweepStats telemetry_stats;  // of the last pass, an enabled one
  std::int64_t attributed_hits = 0;
  const ms::bench::OverheadSamples samples = ms::bench::measure_overhead(
      warm_stats.wall_seconds,
      [](bool enabled) {
        ms::obs::set_tracing_enabled(enabled);
        ms::obs::FlightRecorder::set_enabled(enabled);
      },
      [&] {
        attributed_hits = 0;
        for (const ms::sweep::ScenarioResult& r : engine.run(specs, &telemetry_stats)) {
          attributed_hits += r.telemetry.count("la.factor_cache.hits");
        }
      });
  ms::obs::set_tracing_enabled(was_tracing);
  ms::obs::FlightRecorder::set_enabled(false);
  std::printf("\n=== telemetry on (tracing + flight recorder + attribution), "
              "%d passes per sample, min of 3 ===\n",
              samples.repeats);
  std::printf("off %.3f s, on %.3f s (%.3fx); last pass: "
              "%lld attributed factor-cache hits (global delta %llu)\n",
              samples.disabled_seconds, samples.enabled_seconds, samples.ratio(),
              static_cast<long long>(attributed_hits),
              static_cast<unsigned long long>(telemetry_stats.factor_cache_hits));

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::vector<ms::util::JsonObject> records;
    records.push_back(
        ms::util::JsonObject()
            .set("scenario", "trace_family_sweep")
            .set("num_scenarios", num_scenarios)
            .set("edge", blocks)
            .set("cold_seconds", cold_seconds)
            .set("cold_queries_per_second", cold_qps)
            .set("warm_seconds", warm_stats.wall_seconds)
            .set("queries_per_second", warm_qps)
            .set("warm_vs_cold_speedup", warm_qps / cold_qps)
            .set("factor_cache_hits", static_cast<std::int64_t>(warm_stats.factor_cache_hits))
            .set("factor_cache_misses",
                 static_cast<std::int64_t>(first_stats.factor_cache_misses))
            .set("model_cache_hits", static_cast<std::int64_t>(warm_stats.model_cache_hits))
            .set("num_factorizations", warm_factorizations)
            .set("pareto_count", pareto_count)
            .set("bitwise_identical", bitwise ? 1 : 0)
            .set("telemetry_repeats", samples.repeats)
            .set("telemetry_disabled_seconds", samples.disabled_seconds)
            .set("telemetry_enabled_seconds", samples.enabled_seconds)
            .set("telemetry_overhead_ratio", samples.ratio()));
    ms::util::write_bench_json(json_path, "sweep", records);
    std::printf("\nwrote %s (%d cases)\n", json_path.c_str(), static_cast<int>(records.size()));
  }
  ms::obs::write_cli_outputs(cli);
  return bitwise ? 0 : 1;
}
