// sweep — run a declarative scenario-sweep config through the cached,
// thread-pooled query service and emit a lifetime/stress Pareto table.
//
//   ./sweep --config specs.txt --out pareto.json [--threads N] [--no-cache]
//           [--cache-dir DIR] [--deadline-seconds S] [--max-failures N]
//
// The config file is the ScenarioSpec `key = value` format (see README's
// "Sweep" section): an optional [defaults] section followed by one [name]
// section per scenario. Results print as a table (Pareto-optimal rows
// starred) and, with --out, land in a JSON file for plotting.

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sim_error.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_cli.hpp"
#include "obs/trace.hpp"
#include "sweep/scenario_spec.hpp"
#include "sweep/sweep_engine.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

/// One flat JSON object from a row's attributed telemetry. Counts and
/// durations share the namespace (keys are disjoint by construction).
ms::util::JsonObject telemetry_json(const ms::obs::QueryTelemetry& telemetry) {
  ms::util::JsonObject o;
  for (const auto& [key, value] : telemetry.counts) o.set(key, value);
  for (const auto& [key, value] : telemetry.seconds) o.set(key, value);
  return o;
}

void print_percentile_footer(const char* label, const char* metric) {
  const ms::obs::Histogram* h = ms::obs::MetricRegistry::global().find_histogram(metric);
  if (h == nullptr || h->count() <= 0) return;
  std::printf("%s p50/p95/p99: %.3f / %.3f / %.3f s (max %.3f s over %lld samples)\n", label,
              h->percentile(0.50), h->percentile(0.95), h->percentile(0.99), h->max(),
              static_cast<long long>(h->count()));
}

}  // namespace

int main(int argc, char** argv) {
  ms::util::CliParser cli("sweep", "Scenario sweep: declarative specs -> Pareto table");
  cli.add_string("config", "", "scenario spec file (required)");
  cli.add_string("out", "", "JSON output path (empty skips)");
  cli.add_int("threads", 0, "worker threads (0 = hardware concurrency)");
  cli.add_flag("no-cache", "disable factorization/model sharing (cold per-spec runs)");
  cli.add_string("cache-dir", "", "on-disk ROM model cache directory");
  cli.add_double("deadline-seconds", 0.0, "per-scenario wall-clock deadline (0 = none)");
  cli.add_int("max-failures", -1,
              "cancel the batch after this many scenario failures (-1 = unlimited)");
  ms::obs::add_cli_flags(cli);
  cli.parse(argc, argv);
  ms::obs::apply_cli_flags(cli);

  const std::string config_path = cli.get_string("config");
  if (config_path.empty()) {
    std::fprintf(stderr, "sweep: --config is required\n%s", cli.usage().c_str());
    return 2;
  }

  std::vector<ms::sweep::ScenarioSpec> specs;
  try {
    specs = ms::sweep::parse_scenario_file(config_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return 1;
  }
  if (specs.empty()) {
    std::fprintf(stderr, "sweep: %s defines no scenarios\n", config_path.c_str());
    return 1;
  }

  ms::sweep::SweepOptions options;
  options.num_threads = static_cast<int>(cli.get_int("threads"));
  options.share_caches = !cli.flag("no-cache");
  options.cache_dir = cli.get_string("cache-dir");
  options.deadline_seconds = cli.get_double("deadline-seconds");
  options.max_failures = static_cast<int>(cli.get_int("max-failures"));
  ms::sweep::SweepEngine engine(options);
  ms::sweep::SweepStats stats;
  std::vector<ms::sweep::ScenarioResult> results;
  try {
    // The batch span parents every worker's sweep.query span (captured at
    // enqueue time), so a traced run renders flow arrows from this slice.
    ms::obs::ScopedSpan batch("sweep.batch");
    results = engine.run(specs, &stats);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return 1;
  }

  std::printf("%-20s %-8s %-9s %-9s %12s %14s %10s %8s\n", "scenario", "kind", "analysis",
              "status", "peak_vm[MPa]", "life[log10]", "time[s]", "pareto");
  for (const ms::sweep::ScenarioResult& r : results) {
    if (r.failed()) {
      std::printf("%-20s %-8s %-9s %-9s   [%s] %s: %s\n", r.name.c_str(),
                  ms::sweep::to_string(r.kind), ms::sweep::to_string(r.analysis),
                  ms::sweep::to_string(r.status), ms::core::to_string(r.error.code),
                  r.error.stage.c_str(), r.error.message.c_str());
      continue;
    }
    char life[32];
    if (r.min_life_log10 == r.min_life_log10) {
      std::snprintf(life, sizeof life, "%.3f", r.min_life_log10);
    } else {
      std::snprintf(life, sizeof life, "-");
    }
    std::printf("%-20s %-8s %-9s %-9s %12.2f %14s %10.3f %8s\n", r.name.c_str(),
                ms::sweep::to_string(r.kind), ms::sweep::to_string(r.analysis),
                ms::sweep::to_string(r.status), r.peak_von_mises, life, r.simulate_seconds,
                r.pareto_optimal ? "*" : "");
  }
  std::printf("\n%d scenarios (%d failed, %d degraded) in %.3f s; "
              "factor cache %llu hit / %llu miss, "
              "model cache %llu hit / %llu miss\n",
              stats.num_scenarios, stats.num_failed, stats.num_degraded, stats.wall_seconds,
              static_cast<unsigned long long>(stats.factor_cache_hits),
              static_cast<unsigned long long>(stats.factor_cache_misses),
              static_cast<unsigned long long>(stats.model_cache_hits),
              static_cast<unsigned long long>(stats.model_cache_misses));
  print_percentile_footer("scenario latency", "sweep.scenario_seconds");
  print_percentile_footer("queue wait", "sweep.queue_wait_seconds");

  const std::string out_path = cli.get_string("out");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "sweep: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\n  \"sweep\": "
        << ms::util::JsonObject()
               .set("config", config_path)
               .set("num_scenarios", stats.num_scenarios)
               .set("wall_seconds", stats.wall_seconds)
               .set("factor_cache_hits", static_cast<std::int64_t>(stats.factor_cache_hits))
               .set("factor_cache_misses", static_cast<std::int64_t>(stats.factor_cache_misses))
               .set("model_cache_hits", static_cast<std::int64_t>(stats.model_cache_hits))
               .set("model_cache_misses", static_cast<std::int64_t>(stats.model_cache_misses))
               .set("num_failed", static_cast<std::int64_t>(stats.num_failed))
               .set("num_degraded", static_cast<std::int64_t>(stats.num_degraded))
               .render()
        << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ms::sweep::ScenarioResult& r = results[i];
      ms::util::JsonObject record;
      record.set("name", r.name)
          .set("kind", ms::sweep::to_string(r.kind))
          .set("analysis", ms::sweep::to_string(r.analysis))
          .set("status", ms::sweep::to_string(r.status));
      if (r.failed()) {
        record.set("error_code", ms::core::to_string(r.error.code))
            .set("error_stage", r.error.stage)
            .set("error_message", r.error.message);
        if (!r.telemetry.empty()) record.set_object("telemetry", telemetry_json(r.telemetry));
        if (!r.flight.empty()) {
          record.set_strings("flight_recorder", ms::obs::format_flight_records(r.flight));
        }
        out << "    " << record.render() << (i + 1 < results.size() ? ",\n" : "\n");
        continue;
      }
      record.set("peak_von_mises", r.peak_von_mises);
      if (r.min_life_log10 == r.min_life_log10) {
        record.set("min_life_log10", r.min_life_log10)
            .set("min_life_seconds", r.min_life_seconds)
            .set("life_channel", r.life_channel);
      }
      if (r.diagonal_shift != 0.0) record.set("diagonal_shift", r.diagonal_shift);
      record.set("simulate_seconds", r.simulate_seconds).set("pareto_optimal", r.pareto_optimal);
      if (!r.telemetry.empty()) record.set_object("telemetry", telemetry_json(r.telemetry));
      if (!r.flight.empty()) {
        record.set_strings("flight_recorder", ms::obs::format_flight_records(r.flight));
      }
      out << "    " << record.render() << (i + 1 < results.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  ms::obs::write_cli_outputs(cli);
  // Partial failure still yields a useful table; only a fully failed batch
  // (nothing to plot) is a hard error.
  return stats.num_failed == stats.num_scenarios ? 1 : 0;
}
