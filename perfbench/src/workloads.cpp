#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common.hpp"
#include "core/report.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace sw = ms::sweep;

namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

sw::ScenarioSpec fatigue_spec(const std::string& name, double duty, double peak, double hx,
                              double hy) {
  sw::ScenarioSpec spec;
  spec.name = name;
  spec.kind = sw::ScenarioKind::kArray;
  spec.analysis = sw::AnalysisKind::kFatigue;
  spec.load = sw::LoadKind::kTrace;
  spec.blocks_x = spec.blocks_y = kFatigueEdge;
  spec.power.background = 20.0;
  spec.power.hotspot_peak = peak;
  spec.power.hotspot_x = hx;
  spec.power.hotspot_y = hy;
  spec.trace.shape = "square";
  spec.trace.period = kPulsePeriod;
  spec.trace.duty = duty;
  spec.trace.cycles = 1;
  return spec;
}

void write_text(const std::string& dir, const std::string& file, const std::string& text) {
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  std::ofstream out(std::filesystem::path(dir) / file);
  out << text;
  if (!out) throw std::runtime_error("perfbench: cannot write " + file + " under " + dir);
}

std::string describe_config(Workload workload, const ms::core::SimulationConfig& config) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "# perfbench workload %s: pitch %.17g, fine mesh %dx%d, nodes %dx%dx%d, "
                "samples %d, global %s, thermal %s, time step %.17g s\n",
                workload_name(workload), config.geometry.pitch, config.mesh_spec.elems_xy,
                config.mesh_spec.elems_z, config.local.nodes_x, config.local.nodes_y,
                config.local.nodes_z, config.local.samples_per_block,
                config.global.method.c_str(), config.coupling.solve.method.c_str(),
                config.coupling.transient.time_step);
  return buf;
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPaperArrays: return "paper_arrays";
    case Workload::kFatigueSweep: return "fatigue_sweep";
    case Workload::kPackageLocations: return "package_locations";
  }
  return "?";
}

Workload parse_workload(const std::string& name) {
  for (Workload w : {Workload::kPaperArrays, Workload::kFatigueSweep,
                     Workload::kPackageLocations}) {
    if (name == workload_name(w)) return w;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (paper_arrays, fatigue_sweep, package_locations)");
}

ms::core::SimulationConfig workload_config(Workload workload) {
  ms::core::SimulationConfig config = ms::bench::default_setup(15.0).config;
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  if (workload == Workload::kFatigueSweep) {
    config.local.samples_per_block = 10;
    config.coupling.transient.time_step = kPulsePeriod / kStepsPerPeriod;
  }
  return config;
}

std::shared_ptr<const ms::chiplet::PackageModel> build_package(
    const ms::core::SimulationConfig& config) {
  const int padded = kPackageTsvEdge + 2 * kPackageRings;
  const ms::chiplet::PackageGeometry geometry = ms::chiplet::demo_package_geometry(
      config.geometry.pitch, padded, config.geometry.height);
  return std::make_shared<const ms::chiplet::PackageModel>(
      geometry, ms::chiplet::demo_coarse_spec(), config.thermal_load);
}

SpecSource::SpecSource(Workload workload, std::uint64_t seed,
                       std::shared_ptr<const ms::chiplet::PackageModel> package)
    : workload_(workload), seed_(seed), timed_(seed, 1), package_(std::move(package)) {
  if (workload_ == Workload::kPackageLocations && package_ == nullptr) {
    throw std::invalid_argument("SpecSource: package_locations needs the demo package");
  }
}

std::vector<sw::ScenarioSpec> SpecSource::next_group() {
  const std::string prefix = "g" + std::to_string(group_++) + "_";
  std::vector<sw::ScenarioSpec> group;
  switch (workload_) {
    case Workload::kPaperArrays:
      for (int edge : kPaperLadder) {
        sw::ScenarioSpec spec;
        spec.name = prefix + "array" + std::to_string(edge);
        spec.kind = sw::ScenarioKind::kArray;
        spec.analysis = sw::AnalysisKind::kSteady;
        spec.load = sw::LoadKind::kUniform;
        spec.blocks_x = spec.blocks_y = edge;
        spec.delta_t = timed_.uniform(-300.0, -200.0);
        group.push_back(std::move(spec));
      }
      break;
    case Workload::kFatigueSweep:
      for (int q = 0; q < kFatigueBatch; ++q) {
        const double duty = timed_.uniform(0.15, 0.85);
        const double peak = timed_.uniform(100.0, 400.0);
        const double hx = timed_.uniform(0.25, 0.75);
        const double hy = timed_.uniform(0.25, 0.75);
        group.push_back(fatigue_spec(prefix + "fatigue" + std::to_string(q), duty, peak, hx, hy));
      }
      break;
    case Workload::kPackageLocations:
      // Location-major: a location's power levels reach the pool together,
      // so one worker factors its conduction operator while the others wait
      // on the single-flight slot, then hit it.
      for (int loc = 1; loc <= kPackageLocations; ++loc) {
        for (int level = 0; level < kPackageLevels; ++level) {
          sw::ScenarioSpec spec;
          spec.name = prefix + "loc" + std::to_string(loc) + "_level" + std::to_string(level);
          spec.kind = sw::ScenarioKind::kSubmodel;
          spec.analysis = sw::AnalysisKind::kSteady;
          spec.load = sw::LoadKind::kPower;
          spec.blocks_x = spec.blocks_y = kPackageTsvEdge;
          spec.dummy_rings = kPackageRings;
          spec.location = loc;
          spec.power.background = timed_.uniform(5.0, 40.0);
          spec.power.hotspot_peak = timed_.uniform(100.0, 400.0);
          spec.package = package_;
          group.push_back(std::move(spec));
        }
      }
      break;
  }
  for (const sw::ScenarioSpec& spec : group) spec.validate();
  return group;
}

sw::ScenarioSpec SpecSource::check_spec() const {
  Rng check(seed_, 2);
  sw::ScenarioSpec spec;
  spec.name = "vm_check";
  spec.kind = sw::ScenarioKind::kArray;
  spec.analysis = sw::AnalysisKind::kSteady;
  spec.load = sw::LoadKind::kUniform;
  spec.blocks_x = spec.blocks_y = kCheckEdge;
  spec.delta_t = check.uniform(-300.0, -200.0);
  return spec;
}

std::vector<std::size_t> SpecSource::checked_rows() const {
  std::size_t group_size = 0;
  switch (workload_) {
    case Workload::kPaperArrays: return {};
    case Workload::kFatigueSweep: group_size = kFatigueBatch; break;
    case Workload::kPackageLocations:
      group_size = static_cast<std::size_t>(kPackageLocations) * kPackageLevels;
      break;
  }
  Rng pick(seed_, 3);
  std::vector<std::size_t> rows;
  while (rows.size() < static_cast<std::size_t>(kCheckedRows)) {
    const std::size_t row = pick.index(group_size);
    if (std::find(rows.begin(), rows.end(), row) == rows.end()) rows.push_back(row);
  }
  return rows;
}

sw::ScenarioSpec fatigue_setup_spec() {
  return fatigue_spec("setup_fill", 0.5, 250.0, 0.5, 0.5);
}

std::string specs_config_text(const std::vector<sw::ScenarioSpec>& specs) {
  std::string text;
  for (sw::ScenarioSpec spec : specs) {
    spec.package = nullptr;
    text += spec.to_config_text();
    text += '\n';
  }
  return text;
}

Setup make_setup(Workload workload, const ms::core::SimulationConfig& config, int workers,
                 std::shared_ptr<const ms::chiplet::PackageModel> package) {
  Setup setup;
  if (workload == Workload::kPaperArrays) {
    setup.simulator = std::make_unique<ms::core::MoreStressSimulator>(config);
    (void)setup.simulator->prepare_local_stage(/*with_dummy=*/false);
    return setup;
  }
  sw::SweepOptions options;
  options.config = config;
  options.num_threads = workers;
  setup.engine = std::make_unique<sw::SweepEngine>(options);
  if (workload == Workload::kFatigueSweep) {
    const std::vector<sw::ScenarioResult> fill = setup.engine->run({fatigue_setup_spec()});
    if (!healthy(fill.front())) throw std::runtime_error("perfbench: cache-fill query failed");
  } else {
    setup.package = package != nullptr ? std::move(package) : build_package(config);
    // Fill the engine's model cache (TSV + dummy local stages) without
    // touching the factor cache: a simulator wired to it forces both models.
    ms::core::MoreStressSimulator warm(config);
    warm.set_model_cache(&setup.engine->model_cache());
    (void)warm.prepare_local_stage(/*with_dummy=*/true);
  }
  return setup;
}

bool healthy(const sw::ScenarioResult& result) {
  if (result.status != sw::ScenarioStatus::kOk) return false;
  if (!(std::isfinite(result.peak_von_mises) && result.peak_von_mises > 0.0)) return false;
  return result.fatigue == nullptr || std::isfinite(result.min_life_log10);
}

bool same_result(const sw::ScenarioResult& a, const sw::ScenarioResult& b) {
  if (a.status != b.status || a.failed()) return false;
  const ms::core::ArrayResult& x = a.base();
  const ms::core::ArrayResult& y = b.base();
  if (!(a.peak_von_mises == b.peak_von_mises && x.von_mises == y.von_mises &&
        x.stress == y.stress && x.solution == y.solution)) {
    return false;
  }
  if ((a.fatigue == nullptr) != (b.fatigue == nullptr)) return false;
  if (a.fatigue != nullptr) {
    const ms::reliability::ReliabilityReport& p = a.fatigue->report;
    const ms::reliability::ReliabilityReport& q = b.fatigue->report;
    return p.min_life_cycles == q.min_life_cycles && p.min_life_seconds == q.min_life_seconds &&
           p.min_life_channel == q.min_life_channel && p.min_life_block == q.min_life_block;
  }
  return true;
}

double vm_error_pct(ms::core::MoreStressSimulator& simulator, const sw::ScenarioSpec& check_spec) {
  const sw::ScenarioResult rom = simulator.simulate(check_spec);
  if (!healthy(rom) || rom.array == nullptr) {
    throw std::runtime_error("perfbench: accuracy-check query failed");
  }
  ms::core::SimulationConfig reference_config = simulator.config();
  reference_config.thermal_load = check_spec.delta_t;
  ms::fem::FemSolveOptions fem;
  fem.method = "cg";
  fem.precond = "ssor";
  fem.rel_tol = 1e-7;
  const ms::core::ReferenceResult reference = ms::core::reference_array(
      reference_config, check_spec.blocks_x, check_spec.blocks_y, fem);
  return 100.0 * ms::core::field_error(reference, rom.array->von_mises);
}

RunOutput run_untraced(const RunOptions& options) {
  const Workload workload = options.workload;
  const ms::core::SimulationConfig config = workload_config(workload);
  RunOutput out;

  // --- set-up: timed here once, and repeated after the timed region -------
  // The repetitions come after peak RSS is read: memory the allocator keeps
  // from a torn-down set-up is residue of the repetition, not the workload's.
  std::vector<double> setup_seconds;
  const auto timed_setup = [&]() {
    ms::util::WallTimer timer;
    Setup fresh = make_setup(workload, config, options.workers);
    setup_seconds.push_back(timer.seconds());
    return fresh;
  };
  Setup setup = timed_setup();

  // --- timed region: whole groups until --seconds have passed -------------
  SpecSource source(workload, options.seed, setup.package);
  const std::vector<std::size_t> checked = source.checked_rows();
  std::vector<sw::ScenarioSpec> timed_specs;
  std::vector<std::pair<sw::ScenarioSpec, sw::ScenarioResult>> kept;
  std::vector<double> latencies;
  long long failed_rows = 0;
  int groups = 0;
  ms::util::WallTimer timed;
  do {
    const std::vector<sw::ScenarioSpec> group = source.next_group();
    if (setup.simulator != nullptr) {
      for (const sw::ScenarioSpec& spec : group) {
        ms::util::WallTimer query;
        bool ok = false;
        try {
          ok = healthy(setup.simulator->simulate(spec));
        } catch (const std::exception& e) {
          out.report.push_back(std::string("query ") + spec.name + " threw: " + e.what());
        }
        latencies.push_back(query.seconds());
        failed_rows += ok ? 0 : 1;
        out.report.push_back(format("latency %.4f s  %s", latencies.back(), spec.name.c_str()));
      }
    } else {
      if (workload == Workload::kPackageLocations) setup.engine->factor_cache().clear();
      const std::vector<sw::ScenarioResult> rows = setup.engine->run(group);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        latencies.push_back(rows[i].simulate_seconds);
        failed_rows += healthy(rows[i]) ? 0 : 1;
        if (groups == 0 && std::find(checked.begin(), checked.end(), i) != checked.end()) {
          kept.emplace_back(group[i], rows[i]);
        }
      }
    }
    timed_specs.insert(timed_specs.end(), group.begin(), group.end());
    ++groups;
  } while (timed.seconds() < options.seconds);
  const double wall = timed.seconds();
  const double rss_mb = static_cast<double>(ms::util::peak_rss_bytes()) / (1024.0 * 1024.0);
  setup = Setup{};
  while (static_cast<int>(setup_seconds.size()) < kSetupRepeats) (void)timed_setup();

  write_text(options.out_dir,
             std::string(workload_name(workload)) + "-seed" + std::to_string(options.seed) +
                 ".specs.txt",
             describe_config(workload, config) + specs_config_text(timed_specs));

  // --- output checks (outside the timed region) ---------------------------
  long long check_failures = 0;
  ms::core::MoreStressSimulator cold(config);  // no factor or model cache
  for (const auto& [spec, row] : kept) {
    bool match = false;
    try {
      match = same_result(row, cold.simulate(spec));
    } catch (const std::exception& e) {
      out.report.push_back(std::string("check of ") + spec.name + " threw: " + e.what());
    }
    if (!match) out.report.push_back("MISMATCH: cold re-run of " + spec.name);
    check_failures += match ? 0 : 1;
  }
  double vm_error = std::numeric_limits<double>::quiet_NaN();
  try {
    vm_error = vm_error_pct(cold, source.check_spec());
  } catch (const std::exception& e) {
    out.report.push_back(std::string("accuracy check threw: ") + e.what());
  }
  if (!(vm_error < kMaxVmErrorPct)) ++check_failures;

  const long long queries = static_cast<long long>(latencies.size());
  out.attempted = queries + static_cast<long long>(kept.size()) + 1;
  out.failed = failed_rows + check_failures;
  out.correct = out.failed == 0;

  const double setup_s = median(setup_seconds);
  const double qps = static_cast<double>(queries) / wall;
  const double p50 = median(latencies);
  out.metrics = {{"setup_s", "s", setup_s},
                 {"queries_per_s", "1/s", qps},
                 {"query_p50_s", "s", p50},
                 {"peak_rss_mb", "MB", rss_mb},
                 {"vm_error_pct", "%", vm_error}};

  const std::size_t p50_needs = samples_needed(0.5);
  const std::size_t p90_needs = samples_needed(0.9);
  out.report.push_back(format("setup_s        %.4f s (median of %d set-ups)", setup_s,
                              kSetupRepeats));
  out.report.push_back(format("queries_per_s  %.4f 1/s (%lld queries in %.3f s)", qps, queries,
                              wall));
  // Reported below the sample rule too, since every workload must report it
  // (paper_arrays gets 8: two ladder passes).
  out.report.push_back(format("query_p50_s    %.4f s (n = %lld%s)", p50, queries,
                              latencies.size() < p50_needs ? ", under the 20 a median needs" : ""));
  if (latencies.size() >= p90_needs) {
    out.report.push_back(
        format("query_p90_s    %.4f s (n = %lld)", percentile(latencies, 0.9), queries));
  } else {
    out.report.push_back(
        format("query_p90_s    not reported (n = %lld < %zu)", queries, p90_needs));
  }
  out.report.push_back(format("peak_rss_mb    %.1f MB", rss_mb));
  out.report.push_back(
      format("vm_error_pct   %.4f %% (%dx%d check array)", vm_error, kCheckEdge, kCheckEdge));
  out.report.push_back(format("failed_frac    %.4f (%lld of %lld)",
                              static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                              out.failed, out.attempted));
  return out;
}

}  // namespace perfbench
