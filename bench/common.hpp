#pragma once
// Shared machinery for the paper-table benchmark harnesses: a bench-scale
// configuration (smaller fine mesh than the library default so the full
// suite runs in minutes on one core), and the three-method case runner
// (ANSYS-substitute reference / linear superposition / MORE-Stress) whose
// rows the tables print.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "baseline/superposition.hpp"
#include "core/report.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"

namespace ms::bench {

/// Configuration shared by the table benches.
struct BenchSetup {
  core::SimulationConfig config;      ///< geometry, mesh, ROM options
  fem::FemSolveOptions reference_fem; ///< the ANSYS-substitute solver
  int superposition_window = 5;      ///< K (odd) for the baseline one-shot
  bool run_reference = true;          ///< skip the costly reference if false
};

/// Bench-scale defaults: paper geometry, coarser fine mesh (elems_xy target
/// 8 -> 11 graded lines, 6 through the height), s=50 plane samples.
BenchSetup default_setup(double pitch);

/// Register the flags every table bench shares; call before parse().
void add_common_flags(util::CliParser& cli);

/// Apply parsed common flags onto a setup.
void apply_common_flags(const util::CliParser& cli, BenchSetup& setup);

/// One scenario-1 measurement row (a single array size, one pitch).
struct ArrayCaseResult {
  int array_edge = 0;
  // Reference (full fine-mesh FEM).
  double reference_seconds = 0.0;
  std::size_t reference_bytes = 0;
  la::idx_t reference_dofs = 0;
  bool reference_available = false;
  // Linear superposition.
  double superposition_seconds = 0.0;
  std::size_t superposition_bytes = 0;
  double superposition_error = 0.0;
  // MORE-Stress.
  double rom_seconds = 0.0;
  std::size_t rom_bytes = 0;
  double rom_error = 0.0;
  double local_stage_seconds = 0.0;
};

/// Run one standalone-array case (paper scenario 1) with all three methods.
/// `superposition` and `simulator` carry one-shot state across sizes.
ArrayCaseResult run_array_case(const BenchSetup& setup, core::MoreStressSimulator& simulator,
                               const baseline::SuperpositionModel& superposition, int array_edge);

/// Print one pitch's Table-1-shaped block from a list of case results.
void print_table1_block(double pitch, const std::vector<ArrayCaseResult>& results,
                        bool reference_available);

/// Parse a comma-separated list of integers ("10,15,20").
std::vector<int> parse_int_list(const std::string& text);

/// Wall time of the same work with instrumentation off and on, long enough
/// for their ratio to resolve a few percent: each sample runs the work
/// `repeats` times, sized so a sample lasts at least 0.5 s at the pace of the
/// fastest of three warm runs (`one_run_seconds`, the caller's own warm run,
/// and two more with instrumentation off). Off and on samples alternate, and
/// each side keeps its fastest of 5.
struct OverheadSamples {
  int repeats = 1;
  double disabled_seconds = 0.0;  ///< the fastest sample with instrumentation off
  double enabled_seconds = 0.0;   ///< the fastest sample with instrumentation on
  [[nodiscard]] double ratio() const;
};
/// `set_enabled` switches the instrumentation; the last `run` is an enabled
/// one, and the caller restores the state afterwards.
OverheadSamples measure_overhead(double one_run_seconds,
                                 const std::function<void(bool enabled)>& set_enabled,
                                 const std::function<void()>& run);

}  // namespace ms::bench
