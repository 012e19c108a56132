#pragma once
// The three workloads of the benchmark of record, their seeded inputs, their
// set-up, and the untraced (end-to-end) run. Every workload is a closed loop
// from one caller thread through the public entry points:
//
//   paper_arrays       MoreStressSimulator::simulate(spec) on a fixed ladder
//                      of standalone square arrays (paper Table 1); no factor
//                      cache, so every query assembles, orders and factors a
//                      distinct operator.
//   fatigue_sweep      SweepEngine::run batches of 8x8 square-wave fatigue
//                      queries (scenario 3) with caches warmed in set-up:
//                      every factorization is a cache hit.
//   package_locations  SweepEngine::run passes over loc1-loc5 of the demo
//                      package (paper Table 2) with steady power maps; the
//                      factor cache starts empty each pass, so a location's
//                      first query factors and the rest hit.
//
// --seed drives every draw (dT, duty, peak, hotspot position, power levels);
// the cost-setting properties (array edges, locations, trace length, steps)
// are constants here, so runs of different seeds stay comparable.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chiplet/package_model.hpp"
#include "core/config.hpp"
#include "core/simulator.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"
#include "sweep/sweep_engine.hpp"

namespace perfbench {

enum class Workload { kPaperArrays, kFatigueSweep, kPackageLocations };

const char* workload_name(Workload workload);
/// Throws std::invalid_argument on an unknown name.
Workload parse_workload(const std::string& name);

// --- cost-setting constants --------------------------------------------------
inline constexpr int kPaperLadder[] = {12, 16, 20, 24};
inline constexpr int kFatigueEdge = 8;
inline constexpr int kFatigueBatch = 64;            ///< the 8x8 (duty, peak) family size
inline constexpr double kPulsePeriod = 60e-6;       ///< square-wave period [s]
inline constexpr int kStepsPerPeriod = 8;
inline constexpr int kPackageTsvEdge = 4;
inline constexpr int kPackageRings = 1;
inline constexpr int kPackageLocations = 5;
inline constexpr int kPackageLevels = 4;            ///< power levels per location and pass
inline constexpr int kCheckEdge = 4;                ///< accuracy-check array edge
inline constexpr double kMaxVmErrorPct = 5.0;       ///< accuracy-check acceptance bound
inline constexpr int kCheckedRows = 2;              ///< sampled rows re-run cold per run

/// The simulator configuration of a workload: ms::bench::default_setup(15)
/// (pitch 15, fine mesh 8x6, s = 50) with the direct solver everywhere;
/// fatigue_sweep runs at sweep scale (s = 10, dt = period / 8).
ms::core::SimulationConfig workload_config(Workload workload);

/// The demo package the sub-model workload embeds its padded window in.
std::shared_ptr<const ms::chiplet::PackageModel> build_package(
    const ms::core::SimulationConfig& config);

/// Seeded spec generator. Timed specs come in fixed-shape groups: one ladder
/// pass (paper_arrays), one engine batch (fatigue_sweep), or one pass over
/// every location and power level (package_locations). Group k is the same
/// for a seed no matter how many groups a run gets through.
class SpecSource {
 public:
  SpecSource(Workload workload, std::uint64_t seed,
             std::shared_ptr<const ms::chiplet::PackageModel> package = nullptr);

  std::vector<ms::sweep::ScenarioSpec> next_group();
  /// The 4x4 uniform-dT accuracy-check query.
  [[nodiscard]] ms::sweep::ScenarioSpec check_spec() const;
  /// Indices into group 0 of the rows re-run cold by the output check.
  [[nodiscard]] std::vector<std::size_t> checked_rows() const;

 private:
  Workload workload_;
  std::uint64_t seed_;
  Rng timed_;
  int group_ = 0;
  std::shared_ptr<const ms::chiplet::PackageModel> package_;
};

/// The fatigue_sweep cache-fill query: fixed, so it shares operators with
/// the timed draws but never a whole result.
ms::sweep::ScenarioSpec fatigue_setup_spec();

/// Canonical config text of `specs` (programmatic payloads stripped: the
/// demo package is rebuilt by the engine), re-runnable with
/// `tools/sweep --config`.
std::string specs_config_text(const std::vector<ms::sweep::ScenarioSpec>& specs);

/// Everything before the first timed query: the local stage(s), the demo
/// package (built here unless `package` is given), and (fatigue_sweep) the
/// cache-fill pass.
struct Setup {
  std::unique_ptr<ms::core::MoreStressSimulator> simulator;  ///< paper_arrays
  std::unique_ptr<ms::sweep::SweepEngine> engine;            ///< the two engine workloads
  std::shared_ptr<const ms::chiplet::PackageModel> package;  ///< package_locations
};
Setup make_setup(Workload workload, const ms::core::SimulationConfig& config, int workers,
                 std::shared_ptr<const ms::chiplet::PackageModel> package = nullptr);

/// An ok row with finite outputs (and a finite lifetime on fatigue rows).
bool healthy(const ms::sweep::ScenarioResult& result);
/// Bitwise equality of two results' fields, solutions and verdicts.
bool same_result(const ms::sweep::ScenarioResult& a, const ms::sweep::ScenarioResult& b);

/// Percent von Mises error (core::field_error) of `simulator` against the
/// fine-FEM reference on the check spec's array.
double vm_error_pct(ms::core::MoreStressSimulator& simulator,
                    const ms::sweep::ScenarioSpec& check_spec);

struct RunOptions {
  Workload workload = Workload::kPaperArrays;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int workers = 1;
  std::string out_dir;     ///< where the run's specs (and trace) are written
  std::string git_commit;
};

struct RunOutput {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;  ///< human-readable lines printed before the result
};

/// The end-to-end run: tracing off, every end-to-end metric.
RunOutput run_untraced(const RunOptions& options);

}  // namespace perfbench
