#pragma once
// Thermal solves: power map (or power trace) in, temperature field (or
// per-block ΔT history) out. The standard die stack-up is assumed: heat
// enters at the z-max face (the active layer), leaves at the z-min face into
// the heat sink / substrate — either an ideal (Dirichlet) sink at ambient or
// a convective film — and the lateral faces are adiabatic. Both solves work
// in the rise over ambient, T − ambient, under homogeneous sink data, and add
// the ambient back once, so zero power gives exactly the ambient. Steady
// state is solved through the same linear-solve stage as the mechanical
// problems (fem::solve_linear: CG or sparse Cholesky); the transient θ-scheme
// factorizes the free block of M/Δt + θK once (fem::fetch_factor) and
// re-solves per step, so a trace of hundreds of steps costs one
// factorization plus that many triangular solves.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "fem/dirichlet.hpp"
#include "fem/material.hpp"
#include "la/factor_cache.hpp"
#include "mesh/tsv_block.hpp"
#include "thermal/conduction_assembler.hpp"
#include "thermal/power_map.hpp"
#include "thermal/power_trace.hpp"
#include "thermal/temperature_field.hpp"

namespace ms::thermal {

struct ThermalSolveOptions {
  std::string method = "cg";     ///< "cg" or "direct"
  double rel_tol = 1e-10;
  idx_t max_iterations = 20000;
  double ambient = 25.0;         ///< sink / ambient temperature [C]
  /// Film coefficient of the z-min sink [W/(m^2 K)]; 0 means an ideal sink
  /// (Dirichlet T = ambient on the whole z-min face).
  double sink_film_coefficient = 0.0;
  /// Cross-call factorization memoization (direct path and θ-stepper only;
  /// cg ignores it). When `factor_cache` is set and `factor_key` non-empty,
  /// the factorization is shared under the key. The key must determine the
  /// assembled operator (mesh, conductivities, film coefficient — and for
  /// the stepper: capacities, Δt, scheme, lumping) plus the constrained-dof
  /// set; the sink *temperature* and the power input vary freely between
  /// callers sharing a key. Results are bit-identical warm or cold.
  la::FactorCache* factor_cache = nullptr;
  std::string factor_key;
  /// Cooperative cancellation/deadline token, checked at the factorization
  /// boundary and at every transient trace step (inert by default).
  core::CancelToken cancel;
};

/// Steady conduction record: the shared solve record (fem/dirichlet.hpp),
/// whose assemble_seconds also counts the load vector assembled ahead of it.
struct ThermalSolveStats : fem::SolveStats {
  [[nodiscard]] double total_seconds() const { return assemble_seconds + solve_seconds; }
};

/// Solve conduction on `mesh` with per-element in-plane (x = y) and
/// through-plane (z) conductivities and the power map applied on the z-max
/// face (an isotropic medium passes {k, k}). Returns the nodal temperature
/// field [C].
TemperatureField solve_power_map(const mesh::HexMesh& mesh, const ConductivityField& conductivity,
                                 const PowerMap& power, const ThermalSolveOptions& options = {},
                                 ThermalSolveStats* stats = nullptr);

/// Controls of the implicit transient conduction solve. The time grid is
/// uniform: t_n = n * time_step for n = 0..num_steps. Stability is
/// unconditional for both schemes (backward Euler damps, Crank–Nicolson is
/// 2nd-order accurate); pick time_step against the die's thermal time
/// constant tau ~ c L^2 / k (~3e-5 s for a 50 um silicon die) — a few steps
/// per tau resolve the envelope, steps >> tau just relax to steady state.
struct TransientSolveOptions {
  double time_step = 1e-5;  ///< Δt [s]
  /// Number of implicit steps; 0 derives ceil(trace.duration() / time_step).
  int num_steps = 0;
  std::string scheme = "backward-euler";  ///< or "crank-nicolson"
  /// Row-sum lumping of the capacitance matrix (diagonal M, the robust
  /// default); false keeps the consistent tensor-product mass.
  bool lumped_capacitance = true;
  /// Starting temperature [C]; NaN starts at base.ambient (thermal
  /// equilibrium with the sink, the usual power-on initial condition).
  double initial_temperature = std::numeric_limits<double>::quiet_NaN();
  /// Sink / ambient configuration, shared with the steady-state solver. The
  /// iterative-method fields are ignored: the transient path always
  /// factorizes directly.
  ThermalSolveOptions base;
};

/// Transient march record; la::FactorStats describes the one factor of the
/// stepping operator M/Δt + θK, and its assemble_seconds also counts K, M
/// and the keyframe loads.
struct TransientSolveStats : la::FactorStats {
  idx_t num_dofs = 0;
  int num_steps = 0;
  double step_seconds = 0.0;     ///< all per-step rhs builds + triangular solves
  [[nodiscard]] double total_seconds() const {
    return assemble_seconds + factor_seconds + step_seconds;
  }
};

/// How the transient solver reduces each recorded state to per-block ΔT:
/// block footprint of the array (pitch-sized, y-major) and the reference
/// temperature ΔT is measured from (the stress-free temperature in coupled
/// runs, so the recorded histories feed rom::BlockLoadField directly).
/// Setting `windowed` restricts the reduction to the blocks_x x blocks_y
/// window at `origin` with z in [z0, z1] — the package conduction mesh
/// reduced to its embedded sub-model window (interposer layer only);
/// elements outside the window are ignored instead of clamped in.
struct BlockReduction {
  int blocks_x = 1;
  int blocks_y = 1;
  double pitch = 0.0;
  double reference = 0.0;
  bool windowed = false;
  mesh::Point3 origin{0.0, 0.0, 0.0};
  double z0 = 0.0, z1 = 0.0;  ///< window z-slab (windowed only)
};

/// The averager `reduction` describes on `mesh` (reference not applied): the
/// steady and transient reductions both go through it, so a constant trace
/// and a steady solve reduce one field to the same per-block values.
BlockAverager block_averager(const mesh::HexMesh& mesh, const BlockReduction& reduction);

/// March the transient conduction problem M dT/dt + K T = f(t) through
/// `trace` with the implicit θ-scheme and record the per-block ΔT history
/// plus its peak envelope. Heat enters at the z-max face per the trace; the
/// sink boundary follows options.base exactly like the steady solver. The
/// factorization of M/Δt + θK is computed once and reused for every step.
TransientTemperatureResult solve_power_trace(const mesh::HexMesh& mesh,
                                             const ConductivityField& conductivity,
                                             const Vec& capacity_per_elem,
                                             const PowerTrace& trace,
                                             const BlockReduction& reduction,
                                             const TransientSolveOptions& options = {},
                                             TransientSolveStats* stats = nullptr);

/// Coarse thermal mesh of a blocks_x x blocks_y TSV array: a uniform grid
/// with `elems_per_block_xy` elements across each pitch and `elems_z`
/// through the height. All elements are Silicon; pair with
/// array_block_conductivities (or effective_block_conductivity for the
/// legacy single via-averaged value).
mesh::HexMesh build_array_thermal_mesh(const mesh::TsvGeometry& geometry, int blocks_x,
                                       int blocks_y, int elems_per_block_xy, int elems_z);

/// Per-element effective conductivities of an array thermal mesh: each
/// element takes the block_conductivity of the block its centroid falls in.
/// `tsv_mask` follows the build_array_mesh convention (y-major, 1 = TSV,
/// empty = all TSV); dummy blocks conduct like bulk Si under kTsvAware.
ConductivityField array_block_conductivities(const mesh::HexMesh& mesh,
                                             const mesh::TsvGeometry& geometry,
                                             const fem::MaterialTable& materials, int blocks_x,
                                             int blocks_y,
                                             const std::vector<std::uint8_t>& tsv_mask,
                                             ConductivityModel model);

/// Per-element effective volumetric heat capacities of an array thermal
/// mesh, the transient companion of array_block_conductivities: each element
/// takes the block_capacity of the block its centroid falls in (same mask
/// and binning conventions).
Vec array_block_capacities(const mesh::HexMesh& mesh, const mesh::TsvGeometry& geometry,
                           const fem::MaterialTable& materials, int blocks_x, int blocks_y,
                           const std::vector<std::uint8_t>& tsv_mask, ConductivityModel model);

}  // namespace ms::thermal
