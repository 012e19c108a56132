#include "thermal/thermal_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "fem/dirichlet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "thermal/conduction_assembler.hpp"
#include "util/fault_injector.hpp"
#include "util/timer.hpp"

namespace ms::thermal {
namespace {

/// The θ-stepper's record: it factors through fem::fetch_factor (which
/// assembles the stepping operator) and steps itself, so solve_linear's
/// "<stage>.*" record does not cover it.
void publish_transient_stats(const TransientSolveStats& s) {
  obs::count("thermal.transient.solves");
  obs::count("thermal.transient.steps", s.num_steps);
  obs::observe_seconds("thermal.transient.assemble_seconds", s.assemble_seconds);
  obs::observe_seconds("thermal.transient.factor_seconds", s.factor_seconds);
  obs::observe_seconds("thermal.transient.step_seconds", s.step_seconds);
  auto& reg = obs::MetricRegistry::global();
  reg.gauge("thermal.transient.num_dofs").set(static_cast<double>(s.num_dofs));
  reg.gauge("thermal.transient.factor_nnz").set(static_cast<double>(s.factor_nnz));
  reg.gauge("thermal.transient.fill_ratio").set(s.fill_ratio);
}

/// The conduction operators' fill-reducing order: the mesh's nested
/// dissection, one dof per node.
la::Permutation conduction_order(const mesh::HexMesh& mesh) {
  return la::grid_nested_dissection(mesh.nodes_x(), mesh.nodes_y(), mesh.nodes_z(), 1);
}

/// The ideal sink: the whole z-min face held at the rise over ambient θ = 0.
fem::DirichletBc ideal_sink(const mesh::HexMesh& mesh) {
  fem::DirichletBc bc;
  for (idx_t j = 0; j < mesh.nodes_y(); ++j) {
    for (idx_t i = 0; i < mesh.nodes_x(); ++i) bc.add(mesh.node_id(i, j, 0), 0.0);
  }
  return bc;
}

}  // namespace

TemperatureField solve_power_map(const mesh::HexMesh& mesh, const ConductivityField& conductivity,
                                 const PowerMap& power, const ThermalSolveOptions& options,
                                 ThermalSolveStats* stats) {
  if (options.sink_film_coefficient < 0.0) {
    throw std::invalid_argument(
        "solve_power_map: sink film coefficient must be >= 0 (0 = ideal sink)");
  }
  MS_TRACE_SCOPE("thermal.steady.solve");
  ThermalSolveStats local;
  util::WallTimer timer;
  std::vector<Vec> cases;
  const fem::DirichletSplit split(
      mesh.num_nodes(),
      options.sink_film_coefficient == 0.0 ? ideal_sink(mesh) : fem::DirichletBc{});
  const fem::FactorSource source{options.factor_cache, options.factor_key, options.cancel,
                                 "thermal.steady", conduction_order(mesh)};
  {
    MS_TRACE_SCOPE("thermal.steady.assemble");
    cases.push_back(assemble_power_load(mesh, power));
  }
  const double load_seconds = timer.seconds();

  // Solve for the rise over ambient under homogeneous sink data, then add
  // the ambient back once: a zero power map gives exactly the ambient. The
  // stage assembles the operator only when it reads it (a resident factor
  // needs the load vector and the constrained-dof set alone); the whole
  // matrix is released after the split.
  Vec t = std::move(
      fem::solve_linear(
          [&] {
            MS_TRACE_SCOPE("thermal.steady.assemble");
            return split.extract(
                assemble_conduction(mesh, conductivity, options.sink_film_coefficient));
          },
          cases, split, {options.method, "jacobi", options.rel_tol, options.max_iterations},
          source, local)
          .front());
  for (double& v : t) v += options.ambient;
  // solve_linear published the solve as "thermal.steady.*"; the assembly,
  // the operator's included, is ours to publish.
  local.assemble_seconds += load_seconds;
  obs::observe_seconds("thermal.steady.assemble_seconds", local.assemble_seconds);
  if (stats != nullptr) *stats = local;
  return TemperatureField(mesh, std::move(t));
}

namespace {

/// θ of the implicit scheme; throws on an unknown name.
double scheme_theta(const std::string& scheme) {
  if (scheme == "backward-euler") return 1.0;
  if (scheme == "crank-nicolson") return 0.5;
  throw std::invalid_argument(
      "solve_power_trace: scheme must be 'backward-euler' or 'crank-nicolson'");
}

}  // namespace

BlockAverager block_averager(const mesh::HexMesh& mesh, const BlockReduction& reduction) {
  if (!reduction.windowed) {
    return BlockAverager(mesh, reduction.blocks_x, reduction.blocks_y, reduction.pitch);
  }
  return BlockAverager(mesh, reduction.blocks_x, reduction.blocks_y, reduction.pitch,
                       reduction.origin, reduction.z0, reduction.z1);
}

TransientTemperatureResult solve_power_trace(const mesh::HexMesh& mesh,
                                             const ConductivityField& conductivity,
                                             const Vec& capacity_per_elem,
                                             const PowerTrace& trace,
                                             const BlockReduction& reduction,
                                             const TransientSolveOptions& options,
                                             TransientSolveStats* stats) {
  const double theta = scheme_theta(options.scheme);
  if (options.base.sink_film_coefficient < 0.0) {
    throw std::invalid_argument(
        "solve_power_trace: sink film coefficient must be >= 0 (0 = ideal sink)");
  }
  if (options.time_step <= 0.0) {
    throw std::invalid_argument("solve_power_trace: time step must be > 0");
  }
  if (trace.num_keyframes() == 0) {
    throw std::invalid_argument("solve_power_trace: trace has no keyframes");
  }
  const double dt = options.time_step;
  int num_steps = options.num_steps;
  if (num_steps <= 0) {
    num_steps = static_cast<int>(std::ceil(trace.duration() / dt - 1e-12));
    if (num_steps <= 0) {
      throw std::invalid_argument(
          "solve_power_trace: zero-duration trace needs an explicit num_steps");
    }
  }
  if (reduction.pitch <= 0.0) {
    throw std::invalid_argument("solve_power_trace: reduction pitch must be > 0");
  }

  MS_TRACE_SCOPE("thermal.transient.solve");
  TransientSolveStats local;
  obs::ScopedSpan assemble_span("thermal.transient.assemble");
  util::WallTimer timer;
  const idx_t n = mesh.num_nodes();

  // The march is for the rise over ambient θ = T − ambient, under the same
  // homogeneous sink data as the steady solve. Conduction operator K, film
  // terms included, so the Robin boundary is θ-weighted like the interior.
  const CsrMatrix k = assemble_conduction(mesh, conductivity, options.base.sink_film_coefficient);
  const fem::DirichletBc bc =
      options.base.sink_film_coefficient > 0.0 ? fem::DirichletBc{} : ideal_sink(mesh);

  // Capacitance M: one value per node when lumped, else on K's pattern.
  const bool lumped = options.lumped_capacitance;
  const Vec m_diag = lumped ? assemble_lumped_capacitance(mesh, capacity_per_elem) : Vec{};
  const CsrMatrix m_consistent =
      lumped ? CsrMatrix{} : assemble_capacitance(mesh, capacity_per_elem);

  const fem::DirichletSplit split(n, bc);
  // Power loads are linear in the map, so precompute one load vector per
  // keyframe and blend vectors per step instead of re-assembling; this is
  // assembly work, so it lands in assemble_seconds, not the stepping time.
  std::vector<Vec> keyframe_loads;
  keyframe_loads.reserve(trace.num_keyframes());
  for (std::size_t i = 0; i < trace.num_keyframes(); ++i) {
    keyframe_loads.push_back(assemble_power_load(mesh, trace.keyframe(i)));
  }
  local.num_dofs = n;
  local.num_steps = num_steps;
  const double own_assemble_seconds = timer.seconds();
  assemble_span.end();

  // The stepping operator's factorization is shareable across traces, with
  // the coupling every step's rhs is reduced against. A = M/Δt + θK is one
  // pass over K's values, built, split by the sink and released only by the
  // build (a resident factor never reads it).
  const fem::FactorSource source{options.base.factor_cache, options.base.factor_key,
                                 options.base.cancel, "thermal.transient", conduction_order(mesh)};
  const la::FactorCache::Entry stepper = fem::fetch_factor(
      [&] {
        MS_TRACE_SCOPE("thermal.transient.assemble");
        std::vector<double> a(k.values().size());
        for (idx_t r = 0; r < n; ++r) {
          for (la::offset_t p = k.row_ptr()[r]; p < k.row_ptr()[static_cast<std::size_t>(r) + 1];
               ++p) {
            const double m = lumped ? (k.col_idx()[p] == r ? m_diag[r] : 0.0)
                                    : m_consistent.values()[p];
            a[p] = m / dt + theta * k.values()[p];
          }
        }
        return split.extract(CsrMatrix::from_raw(n, n, k.row_ptr(), k.col_idx(), std::move(a)));
      },
      split, source, local);
  local.assemble_seconds += own_assemble_seconds;
  // The sink data is the same at every step, so one lift serves the trace.
  Vec lift(static_cast<std::size_t>(split.num_free()));
  split.lift(*stepper.coupling, split.values().data(), lift.data());

  obs::ScopedSpan step_span("thermal.transient.step");
  timer.reset();
  const auto power_load_at = [&](double time, Vec& out) {
    const PowerTrace::Sample s = trace.sample(time);
    const Vec& lo = keyframe_loads[s.lo];
    if (s.lo == s.hi || s.weight == 0.0) {
      out = lo;
      return;
    }
    const Vec& hi = keyframe_loads[s.hi];
    out.resize(lo.size());
    for (std::size_t i = 0; i < lo.size(); ++i) {
      out[i] = (1.0 - s.weight) * lo[i] + s.weight * hi[i];
    }
  };

  const double ambient = options.base.ambient;
  Vec t(static_cast<std::size_t>(n),
        std::isnan(options.initial_temperature) ? 0.0 : options.initial_temperature - ambient);
  for (idx_t d : bc.dofs) t[d] = 0.0;

  const BlockAverager averager = block_averager(mesh, reduction);
  TransientTemperatureResult result;
  result.blocks_x = reduction.blocks_x;
  result.blocks_y = reduction.blocks_y;
  result.times.reserve(static_cast<std::size_t>(num_steps) + 1);
  result.block_delta_t.reserve(static_cast<std::size_t>(num_steps) + 1);
  Vec nodal(static_cast<std::size_t>(n));
  const auto record = [&](double time, const Vec& rise) {
    for (idx_t i = 0; i < n; ++i) nodal[i] = rise[i] + ambient;
    std::vector<double> blocks = averager.reduce(nodal);
    for (double& b : blocks) b -= reduction.reference;
    result.times.push_back(time);
    result.block_delta_t.push_back(std::move(blocks));
  };
  record(0.0, t);

  Vec f_prev(static_cast<std::size_t>(n));
  Vec f_next(static_cast<std::size_t>(n));
  Vec kt(static_cast<std::size_t>(n));
  Vec mt(static_cast<std::size_t>(n));
  Vec rhs(static_cast<std::size_t>(n));
  Vec rhs_free(static_cast<std::size_t>(split.num_free()));
  Vec t_free(rhs_free.size());
  Vec solve_scratch;  // local, so a shared cached factor is thread-safe
  power_load_at(0.0, f_prev);
  for (int step = 1; step <= num_steps; ++step) {
    const double time = step * dt;
    power_load_at(time, f_next);
    k.mul(t, kt);
    if (lumped) {
      for (idx_t i = 0; i < n; ++i) mt[i] = m_diag[i] * t[i];
    } else {
      m_consistent.mul(t, mt);
    }
    for (idx_t i = 0; i < n; ++i) {
      rhs[i] = mt[i] / dt - (1.0 - theta) * kt[i] + theta * f_next[i] + (1.0 - theta) * f_prev[i];
    }
    split.reduce(rhs.data(), lift.data(), rhs_free.data());
    stepper.factor->solve_with(rhs_free, t_free, solve_scratch);
    split.expand(t_free.data(), split.values().data(), t.data());
    // Per-step cooperative cancellation/deadline check and fault probe (the
    // `nan` action poisons the state vector; `stall` sleeps in fire()).
    options.base.cancel.check("thermal.transient.step");
    if (util::FaultInjector::enabled() &&
        util::FaultInjector::global().fire("thermal.transient.step") == util::FaultAction::kNan) {
      t.front() = std::numeric_limits<double>::quiet_NaN();
    }
    record(time, t);
    f_prev.swap(f_next);
  }
  local.step_seconds = timer.seconds();
  step_span.end();
  publish_transient_stats(local);
  if (stats != nullptr) *stats = local;

  // Envelope and trapezoidal time-average over the recorded history. The
  // envelope keeps the signed ΔT of largest magnitude: thermal stress grows
  // with |ΔT|, so this is the worst state whether ΔT is measured from
  // ambient (operational heating, all positive) or from a reflow reference
  // (all negative — the signed max would pick the *mildest* state there).
  const std::size_t num_blocks = result.block_delta_t.front().size();
  result.peak_envelope = result.block_delta_t.front();
  result.time_average.assign(num_blocks, 0.0);
  for (std::size_t r = 0; r < result.block_delta_t.size(); ++r) {
    const auto& blocks = result.block_delta_t[r];
    for (std::size_t b = 0; b < num_blocks; ++b) {
      if (std::abs(blocks[b]) > std::abs(result.peak_envelope[b])) {
        result.peak_envelope[b] = blocks[b];
      }
      double w = 0.0;
      if (r > 0) w += 0.5 * (result.times[r] - result.times[r - 1]);
      if (r + 1 < result.times.size()) w += 0.5 * (result.times[r + 1] - result.times[r]);
      result.time_average[b] += w * blocks[b];
    }
  }
  const double span = result.times.back() - result.times.front();
  for (double& avg : result.time_average) avg /= span;

  // `nodal` holds the last recorded state, the ambient added back.
  result.final_field = TemperatureField(mesh, std::move(nodal));
  return result;
}

mesh::HexMesh build_array_thermal_mesh(const mesh::TsvGeometry& geometry, int blocks_x,
                                       int blocks_y, int elems_per_block_xy, int elems_z) {
  if (blocks_x < 1 || blocks_y < 1) {
    throw std::invalid_argument("build_array_thermal_mesh: need >= 1 block per axis");
  }
  if (elems_per_block_xy < 1 || elems_z < 1) {
    throw std::invalid_argument("build_array_thermal_mesh: need >= 1 element per axis");
  }
  const auto lines = [](int n, double length) {
    std::vector<double> v(static_cast<std::size_t>(n) + 1);
    for (int i = 0; i <= n; ++i) v[i] = length * i / n;
    return v;
  };
  return mesh::HexMesh(lines(blocks_x * elems_per_block_xy, blocks_x * geometry.pitch),
                       lines(blocks_y * elems_per_block_xy, blocks_y * geometry.pitch),
                       lines(elems_z, geometry.height));
}

ConductivityField array_block_conductivities(const mesh::HexMesh& mesh,
                                             const mesh::TsvGeometry& geometry,
                                             const fem::MaterialTable& materials, int blocks_x,
                                             int blocks_y,
                                             const std::vector<std::uint8_t>& tsv_mask,
                                             ConductivityModel model) {
  const BlockConductivityMap blocks(geometry, materials, blocks_x, blocks_y, tsv_mask, model);
  ConductivityField field;
  field.in_plane.resize(static_cast<std::size_t>(mesh.num_elems()));
  field.through_plane.resize(static_cast<std::size_t>(mesh.num_elems()));
  for (idx_t e = 0; e < mesh.num_elems(); ++e) {
    const mesh::Point3 c = mesh.elem_centroid(e);
    const BlockConductivity& k = blocks.at(c.x, c.y);
    field.in_plane[e] = k.in_plane;
    field.through_plane[e] = k.through_plane;
  }
  return field;
}

Vec array_block_capacities(const mesh::HexMesh& mesh, const mesh::TsvGeometry& geometry,
                           const fem::MaterialTable& materials, int blocks_x, int blocks_y,
                           const std::vector<std::uint8_t>& tsv_mask, ConductivityModel model) {
  const BlockBinning binning(blocks_x, blocks_y, geometry.pitch, tsv_mask);
  const double tsv_c = block_capacity(geometry, materials, /*is_tsv=*/true, model);
  const double dummy_c = block_capacity(geometry, materials, /*is_tsv=*/false, model);
  Vec field(static_cast<std::size_t>(mesh.num_elems()));
  for (idx_t e = 0; e < mesh.num_elems(); ++e) {
    const mesh::Point3 c = mesh.elem_centroid(e);
    field[e] = binning.is_tsv(c.x, c.y) ? tsv_c : dummy_c;
  }
  return field;
}

}  // namespace ms::thermal
