// Quickstart: simulate the thermal stress of a small TSV array with
// MORE-Stress and compare against the full fine-mesh FEM reference.
//
//   ./quickstart [--blocks 6] [--nodes 4] [--pitch 15]
//
// Prints the one-shot local-stage cost, the global-stage cost, the peak von
// Mises stress, and the normalized error versus the reference solve.

#include <cstdio>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  ms::util::CliParser cli("quickstart", "MORE-Stress quickstart on a small TSV array");
  cli.add_int("blocks", 6, "array edge length in blocks");
  cli.add_int("nodes", 4, "Lagrange interpolation nodes per axis");
  cli.add_double("pitch", 15.0, "TSV pitch in micrometres");
  cli.add_int("samples", 40, "plane samples per block");
  ms::obs::add_cli_flags(cli);
  cli.parse(argc, argv);
  ms::obs::apply_cli_flags(cli);

  const int blocks = static_cast<int>(cli.get_int("blocks"));
  const int nodes = static_cast<int>(cli.get_int("nodes"));

  ms::core::SimulationConfig config = ms::core::SimulationConfig::paper_default();
  config.geometry.pitch = cli.get_double("pitch");
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = nodes;
  config.local.samples_per_block = static_cast<int>(cli.get_int("samples"));

  std::printf("MORE-Stress quickstart: %dx%d array, p=%.1f um, (%d,%d,%d) nodes\n", blocks,
              blocks, config.geometry.pitch, nodes, nodes, nodes);

  ms::core::MoreStressSimulator sim(config);
  const double local_seconds = sim.prepare_local_stage(/*with_dummy=*/false);
  std::printf("one-shot local stage:  %.2f s (%d fine dofs -> %d element dofs)\n", local_seconds,
              static_cast<int>(sim.tsv_model().fine_mesh_dofs),
              static_cast<int>(sim.tsv_model().num_element_dofs()));

  ms::sweep::ScenarioSpec spec;  // scenario 1: uniform dT = config.thermal_load
  spec.blocks_x = spec.blocks_y = blocks;
  const ms::core::ArrayResult result = *sim.simulate(spec).array;
  double peak = 0.0;
  for (double v : result.von_mises) peak = std::max(peak, v);
  std::printf("global stage:          %.2f s (%d dofs, %d iterations)\n",
              result.stats.global_seconds(), static_cast<int>(result.stats.solve.num_dofs),
              static_cast<int>(result.stats.solve.iterations));
  std::printf("estimated memory:      %s\n",
              ms::util::format_bytes(result.stats.memory_bytes).c_str());
  std::printf("peak von Mises:        %.1f MPa\n", peak);

  // Reference fine-mesh FEM on the identical model.
  ms::fem::FemSolveOptions fem_options;
  const ms::core::ReferenceResult reference =
      ms::core::reference_array(config, blocks, blocks, fem_options);
  std::printf("reference FEM:         %.2f s (%d dofs, %d iterations)\n",
              reference.stats.total_seconds(), static_cast<int>(reference.stats.num_dofs),
              static_cast<int>(reference.stats.iterations));
  std::printf("normalized error:      %s\n",
              ms::util::percent_cell(ms::core::field_error(reference, result.von_mises)).c_str());
  ms::obs::write_cli_outputs(cli);
  return 0;
}
