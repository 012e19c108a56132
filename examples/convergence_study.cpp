// Convergence study (paper Table 3 / Fig. 6 behaviour at example scale):
// sweep the Lagrange interpolation node count and watch the error against a
// fine-mesh reference fall while the reduced model grows.
//
//   ./convergence_study [--array 4] [--max-nodes 6]

#include <cstdio>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  ms::util::CliParser cli("convergence_study", "ROM error vs interpolation node count");
  cli.add_int("array", 4, "array edge length");
  cli.add_int("max-nodes", 6, "largest (n,n,n) to test");
  cli.add_int("samples", 30, "plane samples per block");
  ms::obs::add_cli_flags(cli);
  cli.parse(argc, argv);
  ms::obs::apply_cli_flags(cli);

  const int array = static_cast<int>(cli.get_int("array"));
  const int max_nodes = static_cast<int>(cli.get_int("max-nodes"));

  ms::core::SimulationConfig base = ms::core::SimulationConfig::paper_default();
  base.mesh_spec = {8, 6};
  base.local.samples_per_block = static_cast<int>(cli.get_int("samples"));

  std::printf("reference: full fine-mesh FEM of the %dx%d array...\n", array, array);
  ms::fem::FemSolveOptions fem_options;
  const ms::core::ReferenceResult reference =
      ms::core::reference_array(base, array, array, fem_options);
  std::printf("reference solved: %d dofs, %s\n\n", static_cast<int>(reference.stats.num_dofs),
              ms::util::strf("%.1f s", reference.stats.total_seconds()).c_str());

  ms::util::TextTable table({"(n,n,n)", "element DoFs", "local stage", "global stage", "error"});
  double previous_error = 1e9;
  bool monotone = true;
  for (int nodes = 2; nodes <= max_nodes; ++nodes) {
    ms::core::SimulationConfig config = base;
    config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = nodes;
    ms::core::MoreStressSimulator sim(config);
    const double local_seconds = sim.prepare_local_stage(false);
    ms::sweep::ScenarioSpec spec;
    spec.blocks_x = spec.blocks_y = array;
    const ms::core::ArrayResult result = *sim.simulate(spec).array;
    const double error = ms::core::field_error(reference, result.von_mises);
    monotone = monotone && error < previous_error;
    previous_error = error;
    table.add_row({ms::util::strf("(%d,%d,%d)", nodes, nodes, nodes),
                   ms::util::strf("%d", static_cast<int>(sim.tsv_model().num_element_dofs())),
                   ms::util::strf("%.1f s", local_seconds),
                   ms::util::strf("%.2f s", result.stats.global_seconds()),
                   ms::util::percent_cell(error)});
    std::fflush(stdout);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nerror decreases monotonically: %s (the paper's Fig. 6 behaviour)\n",
              monotone ? "yes" : "NO");
  ms::obs::write_cli_outputs(cli);
  return 0;
}
