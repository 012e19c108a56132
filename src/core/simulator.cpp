#include "core/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "chiplet/package_thermal.hpp"
#include "core/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/channel_extract.hpp"
#include "rom/local_stage.hpp"
#include "thermal/conduction_assembler.hpp"
#include "util/fault_injector.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace ms::core {

SimulationConfig SimulationConfig::paper_default() {
  SimulationConfig config;
  config.geometry = {15.0, 5.0, 0.5, 50.0};
  config.mesh_spec = {12, 9};
  config.local.nodes_x = 4;
  config.local.nodes_y = 4;
  config.local.nodes_z = 4;
  config.local.samples_per_block = 100;
  config.thermal_load = -250.0;
  return config;
}

MoreStressSimulator::MoreStressSimulator(SimulationConfig config) : config_(std::move(config)) {
  config_.geometry.validate();
  config_.mesh_spec.validate();
}

std::uint64_t MoreStressSimulator::model_inputs_hash(rom::BlockKind kind) const {
  return rom::local_stage_fingerprint(config_.geometry, config_.mesh_spec, config_.materials, kind,
                                      config_.local);
}

std::string MoreStressSimulator::model_fingerprint(rom::BlockKind kind) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "rom_%s_%016llx.bin",
                kind == rom::BlockKind::Tsv ? "tsv" : "dummy",
                static_cast<unsigned long long>(model_inputs_hash(kind)));
  return buf;
}

std::string MoreStressSimulator::cache_path(rom::BlockKind kind) const {
  return (std::filesystem::path(cache_dir_) / model_fingerprint(kind)).string();
}

const rom::RomModel& MoreStressSimulator::model_for(rom::BlockKind kind) {
  auto& slot = (kind == rom::BlockKind::Tsv) ? tsv_model_ : dummy_model_;
  if (slot != nullptr) return *slot;

  const auto build = [this, kind]() -> std::shared_ptr<const rom::RomModel> {
    // Inside the single-flight builder: a cancelled or fault-injected build
    // throws, the cache clears the slot, and concurrent waiters retry.
    cancel_.check("local.stage");
    if (util::FaultInjector::enabled()) util::FaultInjector::global().fire("model_build");
    if (!cache_dir_.empty()) {
      const std::string path = cache_path(kind);
      if (std::filesystem::exists(path)) {
        // A stale, truncated or foreign cache file (an older format revision,
        // or one stamped for other inputs) must not abort the run — recompute
        // and overwrite it.
        try {
          auto loaded =
              std::make_shared<rom::RomModel>(rom::RomModel::load(path, model_inputs_hash(kind)));
          MS_LOG_INFO("loaded cached ROM model from %s", path.c_str());
          return loaded;
        } catch (const std::exception& e) {
          MS_LOG_WARN("discarding unreadable ROM cache %s (%s); recomputing", path.c_str(),
                      e.what());
        }
      }
    }
    auto fresh = std::make_shared<rom::RomModel>(rom::run_local_stage(
        config_.geometry, config_.mesh_spec, config_.materials, kind, config_.local));
    if (!cache_dir_.empty()) {
      std::filesystem::create_directories(cache_dir_);
      fresh->save(cache_path(kind), model_inputs_hash(kind));
    }
    return fresh;
  };
  // The in-memory cache (sweep engine) keys by the same fingerprint the disk
  // cache names files with; disk is only consulted on an in-memory miss.
  slot = model_cache_ != nullptr ? model_cache_->get_or_create(model_fingerprint(kind), build)
                                 : build();
  return *slot;
}

const rom::RomModel& MoreStressSimulator::tsv_model() { return model_for(rom::BlockKind::Tsv); }

const rom::RomModel& MoreStressSimulator::dummy_model() {
  return model_for(rom::BlockKind::Dummy);
}

double MoreStressSimulator::prepare_local_stage(bool with_dummy) {
  util::WallTimer timer;
  const bool tsv_cached = tsv_model_ != nullptr;
  (void)tsv_model();
  if (with_dummy && dummy_model_ == nullptr) (void)dummy_model();
  return tsv_cached && (!with_dummy || dummy_model_ != nullptr) ? 0.0 : timer.seconds();
}

namespace {

/// Record the stages a completed run adds around its global solve — the same
/// values RunStats reports (asserted by the regression lock in tests/obs).
/// The solve itself published rom.global.* already.
void publish_run_stats(const RunStats& s) {
  obs::observe_seconds("core.run.assemble_seconds", s.assemble_seconds);
  obs::observe_seconds("core.run.reconstruct_seconds", s.reconstruct_seconds);
  auto& reg = obs::MetricRegistry::global();
  reg.gauge("core.run.local_stage_seconds").set(s.local_stage_seconds);
  reg.gauge("core.run.memory_bytes").set(static_cast<double>(s.memory_bytes));
}

}  // namespace

rom::BlockGrid MoreStressSimulator::block_grid(int blocks_x, int blocks_y) const {
  return rom::BlockGrid(blocks_x, blocks_y, config_.local.nodes_x, config_.local.nodes_y,
                        config_.local.nodes_z, config_.geometry.pitch, config_.geometry.height);
}

MoreStressSimulator::Window MoreStressSimulator::array_window(int blocks_x, int blocks_y) const {
  const rom::BlockGrid grid = block_grid(blocks_x, blocks_y);
  Window window;
  window.blocks_x = blocks_x;
  window.blocks_y = blocks_y;
  window.bc = rom::clamp_top_bottom(grid);
  window.report = rom::BlockRange::all(grid);
  return window;
}

MoreStressSimulator::Window MoreStressSimulator::submodel_window(
    int tsv_blocks_x, int tsv_blocks_y, int dummy_rings, const Displacement& boundary) const {
  Window window;
  window.blocks_x = tsv_blocks_x + 2 * dummy_rings;
  window.blocks_y = tsv_blocks_y + 2 * dummy_rings;
  const rom::BlockGrid grid = block_grid(window.blocks_x, window.blocks_y);
  window.mask = mesh::padded_tsv_mask(window.blocks_x, window.blocks_y, dummy_rings);
  window.bc = rom::submodel_boundary(grid, boundary);
  window.report = {dummy_rings, dummy_rings + tsv_blocks_x, dummy_rings,
                   dummy_rings + tsv_blocks_y};
  window.uses_dummy = dummy_rings > 0;
  return window;
}

std::string MoreStressSimulator::global_factor_key(const Window& window) {
  // The key must determine the assembled operator's values and the
  // constrained-dof set — BC *values* enter only through the cached coupling
  // K_fc, so they vary freely under one key. The reduced element
  // matrices fingerprint geometry, mesh, materials, and node counts in one
  // shot (any change reruns the local stage and shifts the hash); the mask
  // and constrained dofs cover layout and boundary structure.
  const rom::RomModel& tsv = tsv_model();
  std::uint64_t h = util::fnv1a(tsv.element_stiffness.data());
  h = util::fnv1a(tsv.element_load, h);
  if (window.uses_dummy) {
    const rom::RomModel& dummy = dummy_model();
    h = util::fnv1a(dummy.element_stiffness.data(), h);
    h = util::fnv1a(dummy.element_load, h);
  }
  h = util::fnv1a(window.mask, h);
  h = util::fnv1a(window.bc.dofs, h);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "glob_b%dx%d_n%d%d%d_d%d_%016llx", window.blocks_x,
                window.blocks_y, config_.local.nodes_x, config_.local.nodes_y,
                config_.local.nodes_z, window.uses_dummy ? 1 : 0,
                static_cast<unsigned long long>(h));
  return buf;
}

ArrayResult MoreStressSimulator::run_panel(const Window& window,
                                           const rom::BlockLoadField& primary_load,
                                           const std::vector<rom::BlockLoadField>& extra_loads,
                                           double* consume_seconds,
                                           const PanelConsumer& consumer) {
  MS_TRACE_SCOPE("core.global.panel");
  cancel_.check("global.panel");
  const rom::RomModel& tsv = tsv_model();
  const rom::RomModel* dummy = window.uses_dummy ? &dummy_model() : nullptr;
  const rom::BlockMask& mask = window.mask;

  ArrayResult result;
  result.stats.local_stage_seconds =
      tsv.local_stage_seconds + (dummy != nullptr ? dummy->local_stage_seconds : 0.0);

  rom::GlobalSolveOptions solve_options = config_.global;
  solve_options.cancel = cancel_;
  if (factor_cache_ != nullptr) {
    solve_options.factor_cache = factor_cache_;
    solve_options.factor_key = global_factor_key(window);
  }

  util::WallTimer timer;
  const rom::BlockGrid grid = block_grid(window.blocks_x, window.blocks_y);
  rom::GlobalProblem problem;
  std::vector<Vec> extra_rhs;
  {
    MS_TRACE_SCOPE("core.global.assemble");
    if (fem::factor_resident(solve_options.method, factor_cache_, solve_options.factor_key)) {
      // Warm path: the key's factorization and coupling are already
      // resident (entries are never evicted, so contains() cannot go stale),
      // and assembly reduces to the load vectors. On a cold key the full
      // operator is assembled below and the solver populates the cache.
      problem.num_dofs = grid.num_dofs();
      problem.rhs = rom::assemble_global_rhs(grid, tsv, dummy, mask, primary_load);
    } else {
      problem = rom::assemble_global(grid, tsv, dummy, mask, primary_load);
    }
    // The reduced stiffness is load-independent, so every extra case costs
    // one load-vector assembly against the shared operator.
    extra_rhs.reserve(extra_loads.size());
    for (const rom::BlockLoadField& extra : extra_loads) {
      extra_rhs.push_back(rom::assemble_global_rhs(grid, tsv, dummy, mask, extra));
    }
  }
  result.stats.assemble_seconds = timer.seconds();

  cancel_.check("global.solve");
  std::vector<Vec> solutions = rom::solve_global_multi(problem, std::move(extra_rhs), window.bc,
                                                       solve_options, &result.stats.solve);
  for (const Vec& solution : solutions) {
    require_finite("global.solve", "global solution", solution);
  }
  result.solution = std::move(solutions.front());

  cancel_.check("global.reconstruct");
  timer.reset();
  {
    MS_TRACE_SCOPE("core.global.reconstruct");
    result.stress = rom::reconstruct_plane_stress(grid, tsv, dummy, mask, result.solution,
                                                  primary_load, window.report);
    result.von_mises = fem::to_von_mises(result.stress);
  }
  require_finite("global.reconstruct", "von Mises field", result.von_mises.data(),
                 result.von_mises.size());
  result.stats.reconstruct_seconds = timer.seconds();

  result.region_blocks_x = window.report.width();
  result.region_blocks_y = window.report.height();
  result.samples_per_block = tsv.samples_per_block;
  result.stats.memory_bytes = result.stats.solve.matrix_bytes + result.stats.solve.solver_bytes +
                              tsv.memory_bytes() +
                              (dummy != nullptr ? dummy->memory_bytes() : 0) +
                              result.stress.size() * sizeof(fem::Stress6) +
                              result.solution.size() * sizeof(double);

  timer.reset();
  if (consumer) {
    MS_TRACE_SCOPE("core.global.consume");
    const PanelCaseContext ctx{grid, tsv, dummy, window, result.stats};
    // Consumers write disjoint slots (documented contract), so cases
    // parallelize; each case sees the completed primary stats.
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
    for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(extra_loads.size()); ++c) {
      consumer(static_cast<std::size_t>(c), solutions[static_cast<std::size_t>(c) + 1],
               extra_loads[static_cast<std::size_t>(c)], ctx);
    }
  }
  if (consume_seconds != nullptr) *consume_seconds = timer.seconds();
  return result;
}

ArrayResult MoreStressSimulator::run_global(const Window& window, const rom::BlockLoadField& load,
                                            const std::vector<rom::BlockLoadField>& extra_loads,
                                            std::vector<ArrayResult>* extra_results) {
  PanelConsumer consumer;
  if (extra_results != nullptr) {
    extra_results->clear();
    extra_results->resize(extra_loads.size());
    consumer = [extra_results](std::size_t c, Vec& solution, const rom::BlockLoadField& load_c,
                               const PanelCaseContext& ctx) {
      ArrayResult& extra = (*extra_results)[c];
      extra.stats = ctx.base_stats;  // shared assembly/factorization cost
      extra.solution = std::move(solution);
      util::WallTimer reconstruct_timer;
      extra.stress =
          rom::reconstruct_plane_stress(ctx.grid, ctx.tsv, ctx.dummy, ctx.window.mask,
                                        extra.solution, load_c, ctx.window.report);
      extra.von_mises = fem::to_von_mises(extra.stress);
      extra.stats.reconstruct_seconds = reconstruct_timer.seconds();
      extra.region_blocks_x = ctx.window.report.width();
      extra.region_blocks_y = ctx.window.report.height();
      extra.samples_per_block = ctx.tsv.samples_per_block;
    };
  }
  ArrayResult result = run_panel(window, load, extra_loads, nullptr, consumer);
  publish_run_stats(result.stats);
  return result;
}

namespace {

/// Power maps must cover the thermal model's plan exactly (the array
/// footprint, or the package plan): density_at is 0 outside the map, so a
/// mismatched footprint would silently drop heat.
void require_footprint(const thermal::PowerMap& power, double extent_x, double extent_y,
                       const char* what) {
  if (std::abs(power.width() - extent_x) > 1e-9 * extent_x ||
      std::abs(power.height() - extent_y) > 1e-9 * extent_y) {
    throw std::invalid_argument(std::string("power map footprint must match the ") + what +
                                " (zero tiles for unpowered regions are fine)");
  }
}

/// Factor-cache key of a steady conduction solve. The conductivity fields
/// fingerprint the geometry, materials, layout, and conductivity model; the
/// mesh dimensions and film coefficient fix the sparsity pattern and the
/// constrained-dof set (film == 0 means a Dirichlet sink on the z-min face).
/// The sink *temperature* and the power input are rhs-only and excluded.
std::string thermal_steady_key(const mesh::HexMesh& mesh,
                               const thermal::ConductivityField& conductivity,
                               const thermal::ThermalSolveOptions& solve) {
  std::uint64_t h = util::fnv1a(conductivity.in_plane);
  h = util::fnv1a(conductivity.through_plane, h);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "thermS_n%lld_e%lld_f%.17g_%016llx",
                static_cast<long long>(mesh.num_nodes()), static_cast<long long>(mesh.num_elems()),
                solve.sink_film_coefficient, static_cast<unsigned long long>(h));
  return buf;
}

/// Factor-cache key of the transient θ-stepper's operator M/Δt + θK: the
/// steady key's inputs plus the capacities, time step, scheme, and lumping.
std::string thermal_transient_key(const mesh::HexMesh& mesh,
                                  const thermal::ConductivityField& conductivity,
                                  const Vec& capacities,
                                  const thermal::TransientSolveOptions& options) {
  std::uint64_t h = util::fnv1a(conductivity.in_plane);
  h = util::fnv1a(conductivity.through_plane, h);
  h = util::fnv1a(capacities, h);
  char buf[224];
  std::snprintf(buf, sizeof(buf), "thermT_n%lld_e%lld_f%.17g_dt%.17g_%s_l%d_%016llx",
                static_cast<long long>(mesh.num_nodes()), static_cast<long long>(mesh.num_elems()),
                options.base.sink_film_coefficient, options.time_step, options.scheme.c_str(),
                options.lumped_capacitance ? 1 : 0, static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

MoreStressSimulator::ThermalDomain MoreStressSimulator::thermal_domain(
    const Window& window, const chiplet::PackageModel* package,
    const chiplet::SubmodelPlacement& placement) const {
  MS_TRACE_SCOPE("core.thermal.domain");
  const ThermalCouplingOptions& coupling = config_.coupling;
  const double pitch = config_.geometry.pitch;
  ThermalDomain domain;
  domain.reduction.blocks_x = window.blocks_x;
  domain.reduction.blocks_y = window.blocks_y;
  domain.reduction.pitch = pitch;
  domain.reduction.reference = coupling.stress_free_temperature;
  if (package == nullptr) {
    domain.mesh = thermal::build_array_thermal_mesh(config_.geometry, window.blocks_x,
                                                    window.blocks_y, coupling.elems_per_block_xy,
                                                    coupling.elems_z);
    domain.conductivity = thermal::array_block_conductivities(
        domain.mesh, config_.geometry, config_.materials, window.blocks_x, window.blocks_y,
        window.mask, coupling.conductivity_model);
    domain.capacity = thermal::array_block_capacities(
        domain.mesh, config_.geometry, config_.materials, window.blocks_x, window.blocks_y,
        window.mask, coupling.conductivity_model);
    domain.plan_x = window.blocks_x * pitch;
    domain.plan_y = window.blocks_y * pitch;
    domain.plan_name = "array extent";
    return domain;
  }
  if (placement.blocks_x != window.blocks_x || placement.blocks_y != window.blocks_y) {
    throw std::invalid_argument(
        "sub-model: placement must cover the padded window "
        "(tsv_blocks + 2*dummy_rings per axis)");
  }
  chiplet::PackageThermalSpec spec;
  spec.elems_per_block_xy = coupling.elems_per_block_xy;
  spec.coarse_elems_xy = coupling.package_coarse_elems_xy;
  spec.elems_z_substrate = coupling.package_elems_z_substrate;
  spec.elems_z_interposer = coupling.elems_z;
  spec.elems_z_die = coupling.package_elems_z_die;
  spec.filler_conductivity = coupling.package_filler_conductivity;
  spec.conductivity_model = coupling.conductivity_model;
  const chiplet::PackageGeometry& geometry = package->geometry();
  chiplet::PackageThermalModel model = chiplet::build_package_thermal_model(
      geometry, config_.geometry, placement, window.mask, config_.materials, spec);
  domain.mesh = std::move(model.mesh);
  domain.conductivity = std::move(model.conductivity);
  domain.capacity = std::move(model.capacity);
  // The sub-model window only sees the interposer layer.
  domain.reduction.windowed = true;
  domain.reduction.origin = placement.origin;
  domain.reduction.z0 = geometry.interposer_z0();
  domain.reduction.z1 = geometry.interposer_z1();
  domain.plan_x = geometry.substrate_x;
  domain.plan_y = geometry.substrate_y;
  domain.plan_name = "package plan";
  return domain;
}

void MoreStressSimulator::run_steady(const ThermalDomain& domain, const thermal::PowerMap& power,
                                     ThermalResult& out) {
  MS_TRACE_SCOPE("core.thermal.steady");
  require_footprint(power, domain.plan_x, domain.plan_y, domain.plan_name);
  thermal::ThermalSolveOptions solve = config_.coupling.solve;
  solve.cancel = cancel_;
  if (factor_cache_ != nullptr) {
    solve.factor_cache = factor_cache_;
    solve.factor_key = thermal_steady_key(domain.mesh, domain.conductivity, solve);
  }
  out.temperature =
      thermal::solve_power_map(domain.mesh, domain.conductivity, power, solve, &out.thermal_stats);

  const thermal::BlockReduction& reduction = domain.reduction;
  std::vector<double> delta_t =
      thermal::block_averager(domain.mesh, reduction).reduce(out.temperature.nodal());
  for (double& dt : delta_t) dt -= reduction.reference;
  require_finite("thermal.steady", "per-block dT field", delta_t.data(), delta_t.size());
  out.load = rom::BlockLoadField(reduction.blocks_x, reduction.blocks_y, std::move(delta_t));
}

thermal::TransientTemperatureResult MoreStressSimulator::run_transient(
    const ThermalDomain& domain, const thermal::PowerTrace& trace, double time_step,
    thermal::TransientSolveStats* stats) {
  MS_TRACE_SCOPE("core.thermal.transient");
  if (trace.num_keyframes() == 0) throw std::invalid_argument("transient: trace has no keyframes");
  for (std::size_t i = 0; i < trace.num_keyframes(); ++i) {
    require_footprint(trace.keyframe(i), domain.plan_x, domain.plan_y, domain.plan_name);
  }
  // One boundary model for steady and transient runs: the sink/ambient data
  // rides in coupling.solve, the stepping controls in coupling.transient. The
  // factor key hashes the step, so an overridden step keys its own factor.
  thermal::TransientSolveOptions options = config_.coupling.transient;
  options.time_step = time_step;
  options.base = config_.coupling.solve;
  options.base.cancel = cancel_;
  if (factor_cache_ != nullptr) {
    options.base.factor_cache = factor_cache_;
    options.base.factor_key =
        thermal_transient_key(domain.mesh, domain.conductivity, domain.capacity, options);
  }
  thermal::TransientTemperatureResult transient =
      thermal::solve_power_trace(domain.mesh, domain.conductivity, domain.capacity, trace,
                                 domain.reduction, options, stats);
  require_finite("thermal.transient", "dT peak envelope",
                 transient.peak_envelope.data(), transient.peak_envelope.size());
  return transient;
}

ArrayResult MoreStressSimulator::run_fatigue_panel(
    const Window& window, const rom::BlockLoadField& envelope_load,
    const std::vector<rom::BlockLoadField>& step_loads, const std::vector<double>& step_times,
    reliability::StressHistory* history, double* history_seconds) {
  MS_TRACE_SCOPE("core.fatigue.panel");
  // The panel consumer only stashes each step's solution; the channel
  // reduction runs once afterwards, batched over all steps per block
  // (reliability/channel_extract.hpp), instead of rebuilding the dense
  // plane-stress field step by step.
  *history = reliability::StressHistory(window.report.width(), window.report.height());
  history->resize_steps(step_times);
  std::vector<Vec> step_solutions(step_loads.size());
  const PanelConsumer stash_step = [&step_solutions](std::size_t s, Vec& solution,
                                                     const rom::BlockLoadField&,
                                                     const PanelCaseContext&) {
    step_solutions[s] = std::move(solution);
  };

  // The whole fatigue history — envelope plus every selected step — runs as
  // one multi-RHS panel against a single factorization on the direct path.
  double consume_seconds = 0.0;
  ArrayResult result = run_panel(window, envelope_load, step_loads, &consume_seconds, stash_step);

  util::WallTimer extract_timer;
  {
    MS_TRACE_SCOPE("core.fatigue.channel_extract");
    reliability::extract_channel_history(
        block_grid(window.blocks_x, window.blocks_y), tsv_model(),
        window.uses_dummy ? &dummy_model() : nullptr, window.mask, step_solutions, step_loads,
        window.report, *history);
  }
  require_finite("fatigue.channels", "channel history",
                 history->raw_data().data(), history->raw_data().size());
  if (history_seconds != nullptr) *history_seconds = consume_seconds + extract_timer.seconds();
  // The multi-RHS panel is the allocation that scales with trace length:
  // num_rhs right-hand sides and as many solutions held simultaneously, plus
  // the retained channel history.
  result.stats.memory_bytes += 2 * static_cast<std::size_t>(result.stats.solve.num_rhs) *
                                   static_cast<std::size_t>(result.stats.solve.num_dofs) *
                                   sizeof(double) +
                               history->memory_bytes();
  publish_run_stats(result.stats);
  return result;
}

reliability::ReliabilityReport MoreStressSimulator::assess_fatigue(
    const reliability::StressHistory& history, double trace_duration,
    const FatigueOptions& options) const {
  // Deriving the Engelmaier frequency from sub-millisecond traces produces
  // cycles/day far outside the correlation's validity (and a non-negative
  // exponent); cap the *derived* value at a power-cycling-scale 1e6 — an
  // explicit options.cycles_per_day is taken at face value.
  const double cycles_per_day =
      options.cycles_per_day > 0.0
          ? options.cycles_per_day
          : (trace_duration > 0.0 ? std::min(86400.0 / trace_duration, 1e6) : 0.0);
  const reliability::FatigueModelSet models = reliability::standard_model_set(
      config_.materials, options.solder_shear_modulus, options.solder_mean_temperature,
      cycles_per_day, options.solder_shear_modulus_slope);
  reliability::ReliabilityOptions assess;
  assess.range_bins = options.range_bins;
  assess.mean_bins = options.mean_bins;
  reliability::ReliabilityReport report =
      reliability::assess_history(history, models, trace_duration, assess);
  // Damage maps must be finite (cycles_to_failure is legitimately +inf on
  // damage-free blocks, so only the Miner sums are swept).
  for (const reliability::ChannelAssessment& channel : report.channels) {
    require_finite("fatigue.damage", "damage map", channel.damage.data(), channel.damage.size());
  }
  return report;
}

}  // namespace ms::core
