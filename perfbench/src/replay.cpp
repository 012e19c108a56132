#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "chiplet/displacement_field.hpp"
#include "chiplet/package_thermal.hpp"
#include "chiplet/submodel.hpp"
#include "fem/stress.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "reliability/channel_extract.hpp"
#include "reliability/damage.hpp"
#include "rom/global_solver.hpp"
#include "rom/local_stage.hpp"
#include "rom/reconstruct.hpp"
#include "thermal/thermal_solver.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace sw = ms::sweep;
namespace la = ms::la;
namespace rom = ms::rom;
namespace thermal = ms::thermal;
using ms::la::idx_t;
using ms::la::Vec;

namespace {

// Per-layer metric names: each span's self time feeds exactly one.
constexpr const char* kRoot = "core.replay";
constexpr const char* kLocalStage = "rom.local_stage_s";
constexpr const char* kAssemble = "rom.assemble_s";
constexpr const char* kAssembleRhs = "rom.assemble_rhs_s";
constexpr const char* kSolve = "rom.solve_s";
constexpr const char* kReconstruct = "rom.reconstruct_s";
constexpr const char* kOrdering = "la.ordering_s";
constexpr const char* kSymbolic = "la.symbolic_s";
constexpr const char* kNumeric = "la.numeric_s";
constexpr const char* kTriangular = "la.triangular_s";
constexpr const char* kTransient = "thermal.transient_s";
constexpr const char* kSteady = "thermal.steady_s";
constexpr const char* kExtract = "reliability.channel_extract_s";
constexpr const char* kAssess = "reliability.assess_s";
constexpr const char* kPackageModel = "chiplet.package_model_s";
constexpr const char* kThermalModel = "chiplet.thermal_model_s";

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_of(const std::vector<double>& field) {
  return field.empty() ? 0.0 : *std::max_element(field.begin(), field.end());
}

/// Recorded-history indices a fatigue query solves (mirrors the simulator:
/// every stride-th record, the last one always included).
std::vector<int> history_steps(std::size_t num_records, int stride) {
  if (stride < 1) throw std::invalid_argument("replay: record_stride must be >= 1");
  std::vector<int> steps;
  for (std::size_t r = 0; r < num_records; r += static_cast<std::size_t>(stride)) {
    steps.push_back(static_cast<int>(r));
  }
  if (steps.empty() || steps.back() != static_cast<int>(num_records) - 1) {
    steps.push_back(static_cast<int>(num_records) - 1);
  }
  return steps;
}

/// The package conduction-mesh spec the simulator derives from the coupling
/// options.
ms::chiplet::PackageThermalSpec package_thermal_spec(const ms::core::ThermalCouplingOptions& c) {
  ms::chiplet::PackageThermalSpec spec;
  spec.elems_per_block_xy = c.elems_per_block_xy;
  spec.coarse_elems_xy = c.package_coarse_elems_xy;
  spec.elems_z_substrate = c.package_elems_z_substrate;
  spec.elems_z_interposer = c.elems_z;
  spec.elems_z_die = c.package_elems_z_die;
  spec.filler_conductivity = c.package_filler_conductivity;
  spec.conductivity_model = c.conductivity_model;
  return spec;
}

std::string operator_key(const char* kind, int blocks_x, int blocks_y) {
  return std::string(kind) + "_" + std::to_string(blocks_x) + "x" + std::to_string(blocks_y);
}

bool same_outcome(const Outcome& replayed, const sw::ScenarioResult& reference) {
  const bool life_match =
      std::isnan(replayed.min_life_log10)
          ? std::isnan(reference.min_life_log10)
          : replayed.min_life_log10 == reference.min_life_log10;
  return replayed.peak_von_mises == reference.peak_von_mises && life_match;
}

}  // namespace

// --- the library's la timers -------------------------------------------------

/// SparseCholesky's own phase timers and counters in the metric registry:
/// ordering, symbolic, numeric and solve seconds, factorizations, solved
/// right-hand sides and solve calls (panels).
class LaClock {
 public:
  static LaClock now();
  double ordering = 0.0;
  double symbolic = 0.0;
  double numeric = 0.0;
  double triangular = 0.0;
  std::int64_t factorizations = 0;
  std::int64_t rhs = 0;
  std::int64_t panels = 0;
};

LaClock LaClock::now() {
  struct Instruments {
    ms::obs::Histogram& ordering;
    ms::obs::Histogram& symbolic;
    ms::obs::Histogram& numeric;
    ms::obs::Histogram& solve;
    ms::obs::Counter& factorizations;
    ms::obs::Counter& rhs;
  };
  ms::obs::MetricRegistry& registry = ms::obs::MetricRegistry::global();
  static const Instruments la{registry.histogram("la.cholesky.ordering_seconds"),
                              registry.histogram("la.cholesky.symbolic_seconds"),
                              registry.histogram("la.cholesky.numeric_seconds"),
                              registry.histogram("la.cholesky.solve_seconds"),
                              registry.counter("la.cholesky.factorizations"),
                              registry.counter("la.cholesky.solve_rhs")};
  LaClock clock;
  clock.ordering = la.ordering.sum();
  clock.symbolic = la.symbolic.sum();
  clock.numeric = la.numeric.sum();
  clock.triangular = la.solve.sum();
  clock.factorizations = la.factorizations.value();
  clock.rhs = la.rhs.value();
  clock.panels = la.solve.count();
  return clock;
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int Tracer::open(const char* name, const char* metric) {
  Span span;
  span.name = name;
  span.metric = metric;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query = query_;
  span.start = seconds_between(origin_, std::chrono::steady_clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end =
      seconds_between(origin_, std::chrono::steady_clock::now());
  open_.pop_back();
}

void Tracer::charge(int id, const char* metric, double seconds) {
  if (seconds != 0.0) spans_[static_cast<std::size_t>(id)].charged.emplace_back(metric, seconds);
}

std::map<std::string, double> Tracer::self_seconds(bool setup) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if ((span.query < 0) != setup) continue;
    double own = span.end - span.start - child[i];
    for (const auto& [metric, seconds] : span.charged) {
      self[metric] += seconds;
      own -= seconds;
    }
    self[span.metric] += own;
  }
  return self;
}

double Tracer::root_seconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0 && span.query >= 0) total += span.end - span.start;
  }
  return total;
}

std::string Tracer::to_json() const {
  std::string out = "{\"spans\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, \"query\": %d, \"charged\": {",
                  s.start, s.end, s.parent, s.query);
    out += "  {\"name\": \"" + s.name + "\", \"metric\": \"" + s.metric + buf;
    for (std::size_t c = 0; c < s.charged.size(); ++c) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9f", c > 0 ? ", " : "",
                    s.charged[c].first.c_str(), s.charged[c].second);
      out += buf;
    }
    out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
  }
  return out + "]}\n";
}

// --- Replayer ---------------------------------------------------------------

Replayer::Replayer(const ms::core::SimulationConfig& config, Tracer& tracer, bool with_dummy,
                   bool cache_operators)
    : config_(config), tracer_(tracer), cache_operators_(cache_operators) {
  const auto local_stage = [this](rom::BlockKind kind) {
    Traced span(tracer_, "rom::run_local_stage", kLocalStage);
    return std::make_shared<const rom::RomModel>(rom::run_local_stage(
        config_.geometry, config_.mesh_spec, config_.materials, kind, config_.local));
  };
  tsv_ = local_stage(rom::BlockKind::Tsv);
  if (with_dummy) dummy_ = local_stage(rom::BlockKind::Dummy);
}

Outcome Replayer::replay(const sw::ScenarioSpec& spec) {
  spec.validate();
  if (spec.time_step != 0.0) throw std::logic_error("replay: time-step overrides unsupported");
  if (spec.kind == sw::ScenarioKind::kArray && spec.analysis == sw::AnalysisKind::kSteady &&
      spec.load == sw::LoadKind::kUniform && spec.load_field == nullptr) {
    return array_uniform(spec);
  }
  if (spec.kind == sw::ScenarioKind::kArray && spec.analysis == sw::AnalysisKind::kFatigue &&
      spec.power_trace == nullptr) {
    return array_fatigue(spec);
  }
  if (spec.kind == sw::ScenarioKind::kSubmodel && spec.analysis == sw::AnalysisKind::kSteady &&
      spec.load == sw::LoadKind::kPower && spec.package != nullptr &&
      spec.placement.blocks_x == 0 && spec.power_map == nullptr) {
    return submodel_power(spec);
  }
  throw std::logic_error("replay: unsupported scenario shape '" + spec.name + "'");
}

rom::BlockGrid Replayer::block_grid(int blocks_x, int blocks_y) const {
  return rom::BlockGrid(blocks_x, blocks_y, config_.local.nodes_x, config_.local.nodes_y,
                        config_.local.nodes_z, config_.geometry.pitch, config_.geometry.height);
}

Outcome Replayer::array_uniform(const sw::ScenarioSpec& spec) {
  const rom::BlockLoadField load = rom::BlockLoadField::uniform(
      std::isnan(spec.delta_t) ? config_.thermal_load : spec.delta_t);
  const rom::BlockGrid grid = block_grid(spec.blocks_x, spec.blocks_y);
  const ms::fem::DirichletBc bc = rom::clamp_top_bottom(grid);
  const std::vector<Vec> solutions =
      global_stage(grid, nullptr, {}, bc, load, {},
                   operator_key("array", spec.blocks_x, spec.blocks_y));
  Outcome outcome;
  outcome.peak_von_mises = peak_of(reconstruct_von_mises(
      grid, nullptr, {}, solutions.front(), load, rom::BlockRange::all(grid)));
  return outcome;
}

Outcome Replayer::array_fatigue(const sw::ScenarioSpec& spec) {
  const int bx = spec.blocks_x;
  const int by = spec.blocks_y;
  const ms::core::ThermalCouplingOptions& coupling = config_.coupling;
  const thermal::PowerTrace trace =
      sw::make_power_trace(spec, sw::make_power_map(spec, config_));

  thermal::TransientTemperatureResult transient;
  {
    Traced span(tracer_, "thermal::solve_power_trace", kTransient);
    const ms::mesh::HexMesh mesh = thermal::build_array_thermal_mesh(
        config_.geometry, bx, by, coupling.elems_per_block_xy, coupling.elems_z);
    const thermal::ConductivityField conductivity = thermal::array_block_conductivities(
        mesh, config_.geometry, config_.materials, bx, by, {}, coupling.conductivity_model);
    const Vec capacity = thermal::array_block_capacities(
        mesh, config_.geometry, config_.materials, bx, by, {}, coupling.conductivity_model);
    const std::string key = operator_key("stepper", bx, by);
    thermal::TransientSolveOptions options = coupling.transient;
    options.base = coupling.solve;
    options.base.factor_cache = &cache_;
    options.base.factor_key = key;
    thermal::BlockReduction reduction;
    reduction.blocks_x = bx;
    reduction.blocks_y = by;
    reduction.pitch = config_.geometry.pitch;
    reduction.reference = coupling.stress_free_temperature;
    thermal::TransientSolveStats stats;
    const LaClock before = LaClock::now();
    transient = thermal::solve_power_trace(mesh, conductivity, capacity, trace, reduction,
                                           options, &stats);
    if (charge_la(span, before, stats.factor_nnz) > 0) built_keys_.push_back(key);
  }

  const rom::BlockLoadField envelope(bx, by, Vec(transient.peak_envelope));
  const std::vector<int> steps =
      history_steps(transient.num_records(), spec.fatigue.record_stride);
  std::vector<rom::BlockLoadField> step_loads;
  std::vector<double> step_times;
  for (int step : steps) {
    step_loads.emplace_back(bx, by, Vec(transient.block_delta_t[static_cast<std::size_t>(step)]));
    step_times.push_back(transient.times[static_cast<std::size_t>(step)]);
  }

  const rom::BlockGrid grid = block_grid(bx, by);
  const rom::BlockRange range = rom::BlockRange::all(grid);
  std::vector<Vec> solutions = global_stage(grid, nullptr, {}, rom::clamp_top_bottom(grid),
                                            envelope, step_loads, operator_key("array", bx, by));
  Outcome outcome;
  outcome.peak_von_mises = peak_of(
      reconstruct_von_mises(grid, nullptr, {}, solutions.front(), envelope, range));

  const std::vector<Vec> step_solutions(std::make_move_iterator(solutions.begin() + 1),
                                        std::make_move_iterator(solutions.end()));
  ms::reliability::StressHistory history(range.width(), range.height());
  history.resize_steps(step_times);
  {
    Traced span(tracer_, "reliability::extract_channel_history", kExtract);
    ms::reliability::extract_channel_history(grid, *tsv_, nullptr, {}, step_solutions,
                                             step_loads, range, history);
  }

  const ms::core::FatigueOptions& fatigue = spec.fatigue;
  const double duration = trace.duration();
  const double cycles_per_day =
      fatigue.cycles_per_day > 0.0
          ? fatigue.cycles_per_day
          : (duration > 0.0 ? std::min(86400.0 / duration, 1e6) : 0.0);
  ms::reliability::ReliabilityReport report;
  {
    Traced span(tracer_, "reliability::assess_history", kAssess);
    const ms::reliability::FatigueModelSet models = ms::reliability::standard_model_set(
        config_.materials, fatigue.solder_shear_modulus, fatigue.solder_mean_temperature,
        cycles_per_day, fatigue.solder_shear_modulus_slope);
    ms::reliability::ReliabilityOptions assess;
    assess.range_bins = fatigue.range_bins;
    assess.mean_bins = fatigue.mean_bins;
    report = ms::reliability::assess_history(history, models, duration, assess);
  }
  outcome.min_life_log10 = std::log10(report.min_life_cycles);
  return outcome;
}

Outcome Replayer::submodel_power(const sw::ScenarioSpec& spec) {
  if (dummy_ == nullptr) throw std::logic_error("replay: sub-model queries need the dummy model");
  const int rings = spec.dummy_rings;
  const int px = spec.blocks_x + 2 * rings;
  const int py = spec.blocks_y + 2 * rings;
  const ms::chiplet::PackageModel& package = *spec.package;
  const ms::chiplet::PackageGeometry& geometry = package.geometry();
  const rom::BlockMask mask = ms::mesh::padded_tsv_mask(px, py, rings);
  const ms::chiplet::SubmodelPlacement placement = ms::chiplet::standard_locations(
      geometry, config_.geometry.pitch, px, py)[static_cast<std::size_t>(spec.location - 1)];
  const thermal::PowerMap power = sw::make_power_map(spec, config_, geometry, placement);

  ms::chiplet::PackageThermalModel model;
  {
    Traced span(tracer_, "chiplet::build_package_thermal_model", kThermalModel);
    model = ms::chiplet::build_package_thermal_model(geometry, config_.geometry, placement, mask,
                                                     config_.materials,
                                                     package_thermal_spec(config_.coupling));
  }
  std::vector<double> delta_t;
  {
    Traced span(tracer_, "thermal::solve_power_map", kSteady);
    const std::string key = "conduction_loc" + std::to_string(spec.location);
    thermal::ThermalSolveOptions options = config_.coupling.solve;
    if (cache_operators_) {
      options.factor_cache = &cache_;
      options.factor_key = key;
    }
    thermal::ThermalSolveStats stats;
    const LaClock before = LaClock::now();
    const thermal::TemperatureField temperature =
        thermal::solve_power_map(model.mesh, model.conductivity, power, options, &stats);
    if (charge_la(span, before, stats.factor_nnz) > 0) {
      if (!cache_operators_) {
        throw std::logic_error("replay: uncached conduction factors cannot be counted");
      }
      built_keys_.push_back(key);
    }
    delta_t = temperature.block_averages(px, py, config_.geometry.pitch, placement.origin,
                                         geometry.interposer_z0(), geometry.interposer_z1());
  }
  for (double& dt : delta_t) dt -= config_.coupling.stress_free_temperature;
  const rom::BlockLoadField load(px, py, std::move(delta_t));

  const rom::BlockGrid grid = block_grid(px, py);
  const ms::chiplet::DisplacementField local =
      ms::chiplet::DisplacementField(package.mesh(), package.displacement())
          .shifted(placement.origin);
  const ms::fem::DirichletBc bc =
      rom::submodel_boundary(grid, [&local](const ms::mesh::Point3& p) { return local(p); });
  const rom::BlockRange inner{rings, rings + spec.blocks_x, rings, rings + spec.blocks_y};
  const std::vector<Vec> solutions =
      global_stage(grid, dummy_.get(), mask, bc, load, {}, operator_key("submodel", px, py));
  Outcome outcome;
  outcome.peak_von_mises = peak_of(
      reconstruct_von_mises(grid, dummy_.get(), mask, solutions.front(), load, inner));
  return outcome;
}

std::vector<Vec> Replayer::global_stage(const rom::BlockGrid& grid, const rom::RomModel* dummy,
                                        const rom::BlockMask& mask,
                                        const ms::fem::DirichletBc& bc,
                                        const rom::BlockLoadField& primary,
                                        const std::vector<rom::BlockLoadField>& extras,
                                        const std::string& key) {
  la_.max_global_dofs = std::max<long long>(la_.max_global_dofs, grid.num_dofs());
  rom::GlobalSolveOptions options = config_.global;
  if (cache_operators_) {
    options.factor_cache = &cache_;
    options.factor_key = key;
  }
  // As the simulator's global stage: a resident operator needs only its
  // load vectors.
  rom::GlobalProblem problem;
  if (cache_operators_ && cache_.contains(key)) {
    Traced span(tracer_, "rom::assemble_global_rhs", kAssembleRhs);
    problem.num_dofs = grid.num_dofs();
    problem.rhs = rom::assemble_global_rhs(grid, *tsv_, dummy, mask, primary);
  } else {
    Traced span(tracer_, "rom::assemble_global", kAssemble);
    problem = rom::assemble_global(grid, *tsv_, dummy, mask, primary);
  }
  std::vector<Vec> extra_rhs;
  if (!extras.empty()) {
    Traced span(tracer_, "rom::assemble_global_rhs", kAssembleRhs);
    for (const rom::BlockLoadField& extra : extras) {
      extra_rhs.push_back(rom::assemble_global_rhs(grid, *tsv_, dummy, mask, extra));
    }
  }

  std::vector<Vec> solutions;
  long long built = 0;
  {
    Traced span(tracer_, "rom::solve_global_multi", kSolve);
    rom::GlobalSolveStats stats;
    const LaClock before = LaClock::now();
    solutions = rom::solve_global_multi(problem, std::move(extra_rhs), bc, options, &stats);
    built = charge_la(span, before, stats.factor_nnz);
  }
  if (built > 0 && cache_operators_) {
    built_keys_.push_back(key);
  } else if (built > 0) {
    // The uncached path lifts problem.stiffness in place and drops its
    // factor; keep the lifted operator so count_factors() can count it.
    uncached_.push_back(std::move(problem.stiffness));
  }
  return solutions;
}

std::vector<double> Replayer::reconstruct_von_mises(const rom::BlockGrid& grid,
                                                    const rom::RomModel* dummy,
                                                    const rom::BlockMask& mask, const Vec& u,
                                                    const rom::BlockLoadField& load,
                                                    const rom::BlockRange& range) {
  Traced span(tracer_, "rom::reconstruct_plane_stress", kReconstruct);
  return ms::fem::to_von_mises(
      rom::reconstruct_plane_stress(grid, *tsv_, dummy, mask, u, load, range));
}

long long Replayer::charge_la(const Traced& span, const LaClock& before,
                              la::offset_t factor_nnz) {
  const LaClock after = LaClock::now();
  tracer_.charge(span.id(), kOrdering, after.ordering - before.ordering);
  tracer_.charge(span.id(), kSymbolic, after.symbolic - before.symbolic);
  tracer_.charge(span.id(), kNumeric, after.numeric - before.numeric);
  tracer_.charge(span.id(), kTriangular, after.triangular - before.triangular);
  // Computed bytes: the forward and the backward sweep each stream every
  // factor value once per panel, whatever its width.
  la_.rhs += after.rhs - before.rhs;
  la_.solve_bytes += 2.0 * sizeof(double) * static_cast<double>(factor_nnz) *
                     static_cast<double>(after.panels - before.panels);
  const long long built = after.factorizations - before.factorizations;
  la_.factorizations += built;
  return built;
}

void Replayer::count_factors() {
  for (const la::CsrMatrix& lifted : uncached_) {
    count_factor(la::SparseCholesky(lifted, config_.global.factor));
  }
  uncached_.clear();
  for (const std::string& key : built_keys_) {
    const la::FactorCache::Entry entry =
        cache_.get_or_create(key, []() -> la::FactorCache::Entry {
          throw std::logic_error("replay: a built operator left the cache");
        });
    count_factor(*entry.factor);
  }
  built_keys_.clear();
}

void Replayer::count_factor(const la::SparseCholesky& factor) {
  std::vector<la::offset_t> col_ptr;
  std::vector<idx_t> rows;
  std::vector<double> values;
  factor.extract_factor(col_ptr, rows, values);
  // Column j of L with c_j entries costs c_j^2 flops (update, scale, sqrt).
  for (std::size_t j = 0; j + 1 < col_ptr.size(); ++j) {
    const auto c = static_cast<double>(col_ptr[j + 1] - col_ptr[j]);
    la_.flops += c * c;
  }
  la_.factor_nnz += static_cast<double>(factor.factor_nnz());
}

// --- the traced run ---------------------------------------------------------

namespace {

/// What the engine runs of the traced invocation report for the sweep and
/// factor-cache metrics (all zero on paper_arrays, which runs no pool).
struct PoolFigures {
  double queue_wait_p50 = 0.0;
  double busy_frac = 0.0;
  double contention = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_wait = 0.0;
};

}  // namespace

RunOutput run_traced(const RunOptions& options) {
  const Workload workload = options.workload;
  const ms::core::SimulationConfig config = workload_config(workload);
  RunOutput out;

  Tracer tracer;
  Replayer replayer(config, tracer, /*with_dummy=*/workload == Workload::kPackageLocations,
                    /*cache_operators=*/workload != Workload::kPaperArrays);
  std::shared_ptr<const ms::chiplet::PackageModel> package;
  if (workload == Workload::kPackageLocations) {
    Traced span(tracer, "chiplet::PackageModel", kPackageModel);
    package = build_package(config);
  }
  SpecSource source(workload, options.seed, package);
  const std::vector<sw::ScenarioSpec> specs = source.next_group();
  const std::size_t n = specs.size();

  // --- the full pool on the same specs: sweep and factor-cache figures ----
  PoolFigures pool;
  std::vector<double> pool_service;
  if (workload != Workload::kPaperArrays) {
    Setup pooled = make_setup(workload, config, options.workers, package);
    const ms::la::FactorCache& cache = pooled.engine->factor_cache();
    const std::uint64_t hits0 = cache.hits();
    const std::uint64_t misses0 = cache.misses();
    const ms::obs::RunReport before = ms::obs::RunReport::capture();
    ms::util::WallTimer timer;
    const std::vector<sw::ScenarioResult> rows = pooled.engine->run(specs);
    const double wall = timer.seconds();
    const ms::obs::RunReport after = ms::obs::RunReport::capture();
    std::vector<double> waits;
    double busy = 0.0;
    for (const sw::ScenarioResult& row : rows) {
      waits.push_back(row.telemetry.secs("queue_wait_seconds"));
      pool_service.push_back(row.simulate_seconds);
      busy += row.simulate_seconds;
      if (!healthy(row)) ++out.failed;
    }
    pool.queue_wait_p50 = median(waits);
    pool.busy_frac = busy / (options.workers * wall);
    pool.cache_hits = static_cast<double>(cache.hits() - hits0);
    pool.cache_misses = static_cast<double>(cache.misses() - misses0);
    pool.cache_wait = after.delta(before, "la.factor_cache.wait_seconds");
  }

  // --- untraced and traced, query by query ---------------------------------
  // Each query first runs untraced through simulate(spec) — on a plain
  // simulator for paper_arrays, on a one-worker engine (whose cache state
  // evolves exactly like the replay's) for the engine workloads — and is then
  // replayed, so slow drifts of the machine hit both sides of the ledger.
  std::unique_ptr<ms::core::MoreStressSimulator> simulator;
  Setup serial;
  if (workload == Workload::kPaperArrays) {
    simulator = std::make_unique<ms::core::MoreStressSimulator>(config);
    (void)simulator->prepare_local_stage(/*with_dummy=*/false);
  } else {
    serial = make_setup(workload, config, 1, package);
  }
  if (workload == Workload::kFatigueSweep) {
    (void)replayer.replay(fatigue_setup_spec());  // the same cache fill as the set-up
    replayer.count_factors();
  }
  const LaCounts la0 = replayer.la_counts();
  std::vector<double> untraced;
  // Reliability screening counts, from registry deltas taken around each
  // replay only.
  double evaluated = 0.0;
  double point_steps = 0.0;
  for (std::size_t q = 0; q < n; ++q) {
    sw::ScenarioResult reference;
    if (simulator != nullptr) {
      ms::util::WallTimer timer;
      reference = simulator->simulate(specs[q]);
      untraced.push_back(timer.seconds());
    } else {
      reference = serial.engine->run({specs[q]}).front();
      untraced.push_back(reference.simulate_seconds);
    }
    const ms::obs::RunReport before = ms::obs::RunReport::capture();
    tracer.set_query(static_cast<int>(q));
    Outcome outcome;
    {
      Traced root(tracer, "query", kRoot);
      outcome = replayer.replay(specs[q]);
    }
    tracer.set_query(-1);
    const ms::obs::RunReport after = ms::obs::RunReport::capture();
    replayer.count_factors();
    evaluated += after.delta(before, "reliability.screen.evaluated_point_steps");
    point_steps += after.delta(before, "reliability.screen.total_point_steps");
    if (!healthy(reference) || !same_outcome(outcome, reference)) {
      ++out.failed;
      out.report.push_back(
          format("MISMATCH %s: replay peak %.17g life %.17g vs simulate peak %.17g life %.17g",
                 specs[q].name.c_str(), outcome.peak_von_mises, outcome.min_life_log10,
                 reference.peak_von_mises, reference.min_life_log10));
    }
  }
  const LaCounts& la1 = replayer.la_counts();
  if (!pool_service.empty()) pool.contention = median(pool_service) / median(untraced);

  // --- per-layer metrics ------------------------------------------------------
  std::map<std::string, double> timed = tracer.self_seconds(/*setup=*/false);
  std::map<std::string, double> setup = tracer.self_seconds(/*setup=*/true);
  double untraced_total = 0.0;
  for (double s : untraced) untraced_total += s;
  double layered = 0.0;
  for (const auto& [metric, seconds] : timed) {
    if (metric != kRoot) layered += seconds;
  }
  const auto factorizations = static_cast<double>(la1.factorizations - la0.factorizations);
  const double flops = la1.flops - la0.flops;
  const double rhs = static_cast<double>(la1.rhs - la0.rhs);
  const double numeric = timed[kNumeric];

  out.attempted = static_cast<long long>(n);
  out.correct = out.failed == 0;
  out.metrics = {
      {"rom.local_stage_s", "s", setup[kLocalStage]},
      {"rom.assemble_s", "s", timed[kAssemble]},
      {"rom.assemble_rhs_s", "s", timed[kAssembleRhs]},
      {"rom.reconstruct_s", "s", timed[kReconstruct]},
      {"rom.solve_s", "s", timed[kSolve]},
      {"rom.global_dofs", "count", static_cast<double>(la1.max_global_dofs)},
      {"la.ordering_s", "s", timed[kOrdering]},
      {"la.symbolic_s", "s", timed[kSymbolic]},
      {"la.numeric_s", "s", numeric},
      {"la.numeric_flops", "flop", flops},
      {"la.numeric_gflop_s", "Gflop/s", numeric > 0.0 ? flops / numeric / 1e9 : 0.0},
      {"la.factor_nnz", "count", la1.factor_nnz - la0.factor_nnz},
      {"la.factorizations", "count", factorizations},
      {"la.triangular_s_per_rhs", "s", rhs > 0.0 ? timed[kTriangular] / rhs : 0.0},
      {"la.triangular_bytes_per_rhs", "B",
       rhs > 0.0 ? (la1.solve_bytes - la0.solve_bytes) / rhs : 0.0},
      {"la.factor_cache.hits", "count", pool.cache_hits},
      {"la.factor_cache.misses", "count", pool.cache_misses},
      {"la.factor_cache.wait_s", "s", pool.cache_wait},
      {"thermal.transient_s", "s", timed[kTransient]},
      {"thermal.steady_s", "s", timed[kSteady]},
      {"reliability.channel_extract_s", "s", timed[kExtract]},
      {"reliability.screen_evaluated_frac", "1", point_steps > 0.0 ? evaluated / point_steps : 0.0},
      {"reliability.assess_s", "s", timed[kAssess]},
      {"chiplet.package_model_s", "s", setup[kPackageModel]},
      {"chiplet.thermal_model_s", "s", timed[kThermalModel]},
      {"sweep.queue_wait_s_p50", "s", pool.queue_wait_p50},
      {"sweep.pool_busy_frac", "1", pool.busy_frac},
      {"sweep.contention_ratio", "1", pool.contention},
      {"core.unattributed_frac", "1", 1.0 - layered / untraced_total},
      {"trace_overhead_ratio", "1", tracer.root_seconds() / untraced_total},
  };

  // --- the ledger: layer self times against the untraced query time ---------
  out.report.push_back(format("ledger over %zu queries: untraced %.4f s, traced %.4f s", n,
                              untraced_total, tracer.root_seconds()));
  for (const auto& [metric, seconds] : timed) {
    out.report.push_back(format("  %-32s %10.4f s  %6.2f %% of untraced", metric.c_str(),
                                seconds, 100.0 * seconds / untraced_total));
  }
  out.report.push_back(format("  %-32s %10.4f s  %6.2f %% of untraced", "unattributed",
                              untraced_total - layered, 100.0 * (1.0 - layered / untraced_total)));
  for (const auto& [metric, seconds] : setup) {
    out.report.push_back(format("  set-up %-25s %10.4f s", metric.c_str(), seconds));
  }

  if (!options.out_dir.empty()) {
    const std::string stem =
        std::string(workload_name(workload)) + "-seed" + std::to_string(options.seed);
    std::filesystem::create_directories(options.out_dir);
    std::ofstream(std::filesystem::path(options.out_dir) / (stem + ".trace.json"))
        << tracer.to_json();
    std::ofstream(std::filesystem::path(options.out_dir) / (stem + ".trace-specs.txt"))
        << specs_config_text(specs);
  }
  return out;
}

}  // namespace perfbench
