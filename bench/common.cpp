#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/log.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

namespace ms::bench {

BenchSetup default_setup(double pitch) {
  BenchSetup setup;
  setup.config = core::SimulationConfig::paper_default();
  setup.config.geometry.pitch = pitch;
  setup.config.mesh_spec = {8, 6};
  setup.config.local.samples_per_block = 50;
  // Stress fields are what the tables compare; skip per-basis displacement
  // samples to keep the ROM-model memory an honest minimum.
  setup.config.local.sample_displacements = false;
  setup.reference_fem.method = "cg";
  setup.reference_fem.precond = "ssor";
  setup.reference_fem.rel_tol = 1e-7;
  return setup;
}

void add_common_flags(util::CliParser& cli) {
  cli.add_int("nodes", 4, "Lagrange interpolation nodes per axis");
  cli.add_int("mesh-xy", 8, "target fine-mesh elements across the pitch");
  cli.add_int("mesh-z", 6, "fine-mesh elements through the height");
  cli.add_int("samples", 50, "plane samples per block (paper: 100)");
  cli.add_flag("no-reference", "skip the full-FEM reference (fast smoke run)");
  cli.add_flag("paper-scale", "paper-scale mesh (12,9) and 100 samples");
  cli.add_string("log", "warn", "log level: trace..off");
  obs::add_cli_flags(cli);
}

void apply_common_flags(const util::CliParser& cli, BenchSetup& setup) {
  util::set_log_level(util::parse_log_level(cli.get_string("log")));
  obs::apply_cli_flags(cli);  // MS_LOG_LEVEL env override wins over --log
  setup.config.local.nodes_x = setup.config.local.nodes_y = setup.config.local.nodes_z =
      static_cast<int>(cli.get_int("nodes"));
  setup.config.mesh_spec.elems_xy = static_cast<int>(cli.get_int("mesh-xy"));
  setup.config.mesh_spec.elems_z = static_cast<int>(cli.get_int("mesh-z"));
  setup.config.local.samples_per_block = static_cast<int>(cli.get_int("samples"));
  if (cli.flag("paper-scale")) {
    setup.config.mesh_spec = {12, 9};
    setup.config.local.samples_per_block = 100;
  }
  setup.run_reference = !cli.flag("no-reference");
}

ArrayCaseResult run_array_case(const BenchSetup& setup, core::MoreStressSimulator& simulator,
                               const baseline::SuperpositionModel& superposition, int array_edge) {
  ArrayCaseResult result;
  result.array_edge = array_edge;

  // --- MORE-Stress (global stage only, like the paper's reported time) ----
  (void)simulator.prepare_local_stage(false);
  sweep::ScenarioSpec spec;
  spec.blocks_x = spec.blocks_y = array_edge;
  const core::ArrayResult rom = *simulator.simulate(spec).array;
  result.rom_seconds = rom.stats.global_seconds();
  result.rom_bytes = rom.stats.memory_bytes;
  result.local_stage_seconds = rom.stats.local_stage_seconds;

  // --- linear superposition -------------------------------------------------
  util::WallTimer timer;
  const auto sp_stress = superposition.estimate_array(array_edge, array_edge);
  const auto sp_vm = fem::to_von_mises(sp_stress);
  result.superposition_seconds = timer.seconds();
  result.superposition_bytes =
      superposition.memory_bytes() + sp_stress.size() * sizeof(fem::Stress6);

  // --- reference (ANSYS substitute) ----------------------------------------
  if (setup.run_reference) {
    const core::ReferenceResult ref =
        core::reference_array(simulator.config(), array_edge, array_edge, setup.reference_fem);
    result.reference_available = true;
    result.reference_seconds = ref.stats.total_seconds();
    result.reference_bytes = ref.stats.total_bytes();
    result.reference_dofs = ref.stats.num_dofs;
    result.rom_error = core::field_error(ref, rom.von_mises);
    result.superposition_error = core::field_error(ref, sp_vm);
  }
  return result;
}

void print_table1_block(double pitch, const std::vector<ArrayCaseResult>& results,
                        bool reference_available) {
  std::printf("p = %.0f um\n", pitch);
  std::vector<std::string> header{"method", "metric"};
  for (const auto& r : results) {
    header.push_back(util::strf("%dx%d", r.array_edge, r.array_edge));
  }
  util::TextTable table(header);

  auto row = [&](const std::string& method, const std::string& metric, auto cell_of) {
    std::vector<std::string> cells{method, metric};
    for (const auto& r : results) cells.push_back(cell_of(r));
    table.add_row(std::move(cells));
  };

  if (reference_available) {
    row("FEM reference", "time", [](const ArrayCaseResult& r) {
      return util::format_seconds(r.reference_seconds);
    });
    row("(ANSYS subst.)", "memory", [](const ArrayCaseResult& r) {
      return util::format_bytes(r.reference_bytes);
    });
  }
  row("Linear", "time", [](const ArrayCaseResult& r) {
    return util::format_seconds(r.superposition_seconds);
  });
  row("superposition", "memory", [](const ArrayCaseResult& r) {
    return util::format_bytes(r.superposition_bytes);
  });
  if (reference_available) {
    row("", "error", [](const ArrayCaseResult& r) {
      return util::percent_cell(r.superposition_error);
    });
  }
  row("MORE-Stress", "time", [](const ArrayCaseResult& r) {
    return util::format_seconds(r.rom_seconds);
  });
  row("(ours)", "memory", [](const ArrayCaseResult& r) {
    return util::format_bytes(r.rom_bytes);
  });
  if (reference_available) {
    row("", "error", [](const ArrayCaseResult& r) { return util::percent_cell(r.rom_error); });
    row("improvement", "time", [](const ArrayCaseResult& r) {
      return util::ratio_cell(r.reference_seconds, r.rom_seconds);
    });
    row("over reference", "memory", [](const ArrayCaseResult& r) {
      return util::ratio_cell(static_cast<double>(r.reference_bytes),
                              static_cast<double>(r.rom_bytes));
    });
    row("improvement over", "accuracy", [](const ArrayCaseResult& r) {
      return util::ratio_cell(r.superposition_error, r.rom_error);
    });
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs("\n", stdout);
}

std::vector<int> parse_int_list(const std::string& text) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token = text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) out.push_back(std::stoi(token));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("expected a comma-separated integer list");
  return out;
}

double OverheadSamples::ratio() const {
  return enabled_seconds / std::max(disabled_seconds, 1e-12);
}

OverheadSamples measure_overhead(double one_run_seconds,
                                 const std::function<void(bool enabled)>& set_enabled,
                                 const std::function<void()>& run) {
  OverheadSamples out;
  const auto sample = [&](bool enabled) {
    set_enabled(enabled);
    util::WallTimer timer;
    for (int r = 0; r < out.repeats; ++r) run();
    return timer.seconds();
  };
  // One slow warm run must not shorten every sample: size them from the
  // fastest of the caller's warm run and two more.
  double fastest = one_run_seconds;
  for (int warm = 0; warm < 2; ++warm) fastest = std::min(fastest, sample(false));
  out.repeats = std::max(1, static_cast<int>(std::ceil(0.5 / std::max(fastest, 1e-3))));
  out.disabled_seconds = out.enabled_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    out.disabled_seconds = std::min(out.disabled_seconds, sample(false));
    out.enabled_seconds = std::min(out.enabled_seconds, sample(true));
  }
  return out;
}

}  // namespace ms::bench
