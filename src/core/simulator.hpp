#pragma once
// MoreStressSimulator — the public entry point of the library.
//
//   ms::core::MoreStressSimulator sim(ms::core::SimulationConfig::paper_default());
//   ms::sweep::ScenarioSpec spec;                  // scenario 1, uniform ΔT
//   spec.blocks_x = spec.blocks_y = 20;
//   const ms::sweep::ScenarioResult result = sim.simulate(spec);
//   // result.array->von_mises is the mid-plane field; .stats has cost data.
//
// The one-shot local stage runs lazily on first use and is cached for the
// lifetime of the simulator (and optionally on disk), exactly mirroring the
// paper's "perform once, reuse for arbitrary array sizes/loads/locations".
// simulate(spec) is the only way to run a scenario: one declarative
// description covers every kind (array / submodel x steady / transient /
// fatigue), see sweep/scenario_spec.hpp.

#include <functional>
#include <memory>
#include <string>

#include "chiplet/package_model.hpp"
#include "chiplet/submodel.hpp"
#include "core/cancel.hpp"
#include "core/config.hpp"
#include "core/results.hpp"
#include "la/factor_cache.hpp"
#include "reliability/damage.hpp"
#include "reliability/stress_history.hpp"
#include "rom/block_grid.hpp"
#include "rom/global_assembler.hpp"
#include "rom/global_solver.hpp"
#include "rom/load_field.hpp"
#include "rom/model_cache.hpp"
#include "rom/reconstruct.hpp"
#include "thermal/power_map.hpp"
#include "thermal/power_trace.hpp"
#include "thermal/temperature_field.hpp"
#include "thermal/thermal_solver.hpp"

namespace ms::sweep {
struct ScenarioSpec;
struct ScenarioResult;
}  // namespace ms::sweep

namespace ms::core {

class MoreStressSimulator {
 public:
  explicit MoreStressSimulator(SimulationConfig config);

  /// Run one scenario: the kind picks the window (standalone array, or a
  /// dummy-ring padded sub-model in a package), the analysis and load pick
  /// the thermal stage (none, steady conduction, or a θ-stepper march), and
  /// the stress stage is one global assembly + factorization shared by every
  /// load case of the query. Exactly one payload slot of the result is set:
  ///   * steady + uniform ΔT (or a per-block load_field)  -> array
  ///   * steady + power map: conduction -> per-block ΔT   -> thermal
  ///   * transient trace: stress at the per-block peak ΔT envelope, plus
  ///     full fields at spec.snapshot_steps                -> transient
  ///   * fatigue trace: every recorded step (record_stride) solved in the
  ///     envelope's panel, reduced to per-block stress channels, then
  ///     rainflow-counted and Miner-summed per block       -> fatigue
  /// Sub-model fields cover the inner TSV region only. Defined in
  /// core/simulate_scenario.cpp.
  [[nodiscard]] sweep::ScenarioResult simulate(const sweep::ScenarioSpec& spec);

  /// Force the local stage now (otherwise lazy). Returns its wall time,
  /// 0 when already cached.
  double prepare_local_stage(bool with_dummy);

  /// Optional on-disk cache for the one-shot models.
  void set_cache_directory(const std::string& dir) { cache_dir_ = dir; }

  /// Cross-scenario factorization memoization (the sweep engine's cache).
  /// Non-owning; the cache must outlive the simulator. Direct-method solves
  /// (global stage, steady conduction, θ-stepper) then share factorizations
  /// with every other simulator wired to the same cache. Keys incorporate a
  /// values-fingerprint of the operator inputs (model loads, conductivity
  /// fields, constrained-dof sets), so simulators with different configs may
  /// safely share one cache. Results stay bit-identical to uncached runs.
  void set_factor_cache(la::FactorCache* cache) { factor_cache_ = cache; }

  /// Cross-simulator local-stage sharing (the sweep engine's model cache).
  /// Non-owning; must outlive the simulator. Keyed by the same fingerprint
  /// as the on-disk cache, composes with set_cache_directory (disk is
  /// checked on an in-memory miss).
  void set_model_cache(rom::ModelCache* cache) { model_cache_ = cache; }

  /// Cooperative cancellation/deadline token, checked at panel, assembly,
  /// factorization, and trace-step boundaries. Inert by default — only the
  /// sweep engine (and tests) arm it.
  void set_cancel_token(core::CancelToken token) { cancel_ = std::move(token); }

  [[nodiscard]] const SimulationConfig& config() const { return config_; }
  [[nodiscard]] const rom::RomModel& tsv_model();
  [[nodiscard]] const rom::RomModel& dummy_model();

 private:
  using Displacement = std::function<std::array<double, 3>(const mesh::Point3&)>;

  /// Where the global stage runs: the (padded) block grid, its TSV/dummy
  /// mask, the boundary data, and the block range whose fields are reported.
  /// A standalone array is all-TSV, clamped top/bottom and reported whole; a
  /// sub-model is dummy-ring padded, driven by the package displacement on
  /// its outer faces and reported over the inner TSV region only.
  struct Window {
    rom::BlockGrid grid;
    rom::BlockMask mask;
    fem::DirichletBc bc;
    rom::BlockRange report;
    bool uses_dummy = false;
  };
  [[nodiscard]] rom::BlockGrid block_grid(int blocks_x, int blocks_y) const;
  [[nodiscard]] Window array_window(int blocks_x, int blocks_y) const;
  [[nodiscard]] Window submodel_window(int tsv_blocks_x, int tsv_blocks_y, int dummy_rings,
                                       const Displacement& boundary) const;

  /// The global stage's answer for one panel: `loads[0]` fully reconstructed,
  /// and the global solutions of `loads[1..]` in order.
  struct Panel {
    ArrayResult primary;
    std::vector<Vec> others;
  };
  /// The one global stage of every analysis: split the window's dofs by its
  /// boundary once, assemble the load vectors, solve every entry of `loads`
  /// as one multi-RHS panel (one factorization on the direct path) and
  /// reconstruct `loads[0]`. The solve stage assembles the reduced
  /// operator's free block K_ff and coupling K_fc (never its constrained
  /// rows) only where it reads them: with a factor cache attached, a
  /// resident key, or one another query is building, costs neither the
  /// assembly nor the factorization. The primary's stats count the whole
  /// panel's assembly and solve; the caller accounts for what it keeps of
  /// the other solutions.
  Panel run_panel(const Window& window, const std::vector<rom::BlockLoadField>& loads);
  /// Reconstruct `result.solution` under `load` over the window's report
  /// range on the whole OpenMP team: fills the stress and von Mises fields,
  /// their shape, and stats.reconstruct_seconds.
  void reconstruct(const Window& window, const rom::BlockLoadField& load, ArrayResult& result);
  /// Where the thermal stage runs: a conduction mesh with per-element
  /// conductivities and heat capacities, the reduction of its nodal field to
  /// the window's per-block ΔT (measured from coupling.stress_free_temperature),
  /// and the plan a power map must cover. A standalone array conducts on its
  /// own coarse mesh and averages whole blocks; a sub-model conducts on the
  /// package stack and averages the padded window's interposer slab.
  struct ThermalDomain {
    mesh::HexMesh mesh;
    thermal::ConductivityField conductivity;
    Vec capacity;
    thermal::BlockReduction reduction;
    double plan_x = 0.0;
    double plan_y = 0.0;
    const char* plan_name = "";
  };
  /// The array's domain when `package` is null, else the package's around
  /// the window at `placement` (which must cover the padded window exactly).
  [[nodiscard]] ThermalDomain thermal_domain(const Window& window,
                                             const chiplet::PackageModel* package,
                                             const chiplet::SubmodelPlacement& placement) const;
  /// Steady conduction of `power` on `domain`, reduced to per-block ΔT:
  /// fills `out`'s temperature, thermal_stats and load.
  void run_steady(const ThermalDomain& domain, const thermal::PowerMap& power,
                  ThermalResult& out);
  /// θ-stepper march of `domain` through `trace` at `time_step` (a spec's
  /// override or the config's step), recording the per-block ΔT history and
  /// its peak envelope.
  thermal::TransientTemperatureResult run_transient(const ThermalDomain& domain,
                                                    const thermal::PowerTrace& trace,
                                                    double time_step,
                                                    thermal::TransientSolveStats* stats);
  /// Rainflow + Miner reduction of a recorded history under the standard
  /// model set (options parameterize bins and the Engelmaier channel).
  reliability::ReliabilityReport assess_fatigue(const reliability::StressHistory& history,
                                                double trace_duration,
                                                const FatigueOptions& options) const;
  const rom::RomModel& model_for(rom::BlockKind kind);
  /// The exact rom::local_stage_fingerprint of every local-stage input
  /// (geometry, mesh, materials, kind, all of config.local); a saved model
  /// file carries it in its header and is loaded only under it.
  [[nodiscard]] std::uint64_t model_inputs_hash(rom::BlockKind kind) const;
  /// The one-shot model's key, named after model_inputs_hash — used as the
  /// on-disk cache's file name and the ModelCache key, so no cache serves a
  /// model built for other inputs.
  [[nodiscard]] std::string model_fingerprint(rom::BlockKind kind) const;
  [[nodiscard]] std::string cache_path(rom::BlockKind kind) const;
  /// Factor-cache key of the global operator: model fingerprints and
  /// load hashes (covering materials), mask, and constrained-dof set. Forces
  /// the needed models to exist.
  std::string global_factor_key(const Window& window);

  SimulationConfig config_;
  std::shared_ptr<const rom::RomModel> tsv_model_;
  std::shared_ptr<const rom::RomModel> dummy_model_;
  std::string cache_dir_;
  la::FactorCache* factor_cache_ = nullptr;
  rom::ModelCache* model_cache_ = nullptr;
  core::CancelToken cancel_;
};

}  // namespace ms::core
