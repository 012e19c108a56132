// Reproduces Table 3 and Fig. 6 of the paper: convergence of MORE-Stress
// with the number of Lagrange interpolation nodes (nx,ny,nz) = (2,2,2) ..
// (6,6,6) on a standalone TSV array at p = 15 um. Prints the table rows
// (element DoFs n, one-shot local-stage runtime, global-stage runtime,
// normalized error) and the Fig. 6 series (n, error%, runtime).

#include <cstdio>

#include "common.hpp"
#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  ms::util::CliParser cli("table3_convergence", "Paper Table 3 / Fig. 6: node-count convergence");
  ms::bench::add_common_flags(cli);
  cli.add_int("array", 10, "array edge length (paper: 20)");
  cli.add_int("max-nodes", 6, "largest (n,n,n) node count");
  cli.parse(argc, argv);

  const int array = static_cast<int>(cli.get_int("array"));
  const int max_nodes = static_cast<int>(cli.get_int("max-nodes"));

  ms::bench::BenchSetup setup = ms::bench::default_setup(15.0);
  ms::bench::apply_common_flags(cli, setup);

  std::printf("=== Table 3 / Fig. 6: convergence on a %dx%d array, p=15 um ===\n\n", array, array);

  // One reference solve shared by all rows.
  std::optional<ms::core::ReferenceResult> reference;
  if (setup.run_reference) {
    reference = ms::core::reference_array(setup.config, array, array, setup.reference_fem);
    std::printf("reference FEM: %s (%d dofs, %d iterations)\n\n",
                ms::util::format_seconds(reference->stats.total_seconds()).c_str(),
                static_cast<int>(reference->stats.num_dofs),
                static_cast<int>(reference->stats.iterations));
  }

  struct Row {
    int nodes;
    ms::la::idx_t n;
    double local_seconds;
    double global_seconds;
    double error;
  };
  std::vector<Row> rows;

  for (int nodes = 2; nodes <= max_nodes; ++nodes) {
    ms::bench::BenchSetup case_setup = setup;
    case_setup.config.local.nodes_x = case_setup.config.local.nodes_y =
        case_setup.config.local.nodes_z = nodes;
    ms::core::MoreStressSimulator simulator(case_setup.config);
    const double local_seconds = simulator.prepare_local_stage(false);
    ms::sweep::ScenarioSpec spec;
    spec.blocks_x = spec.blocks_y = array;
    const ms::core::ArrayResult result = *simulator.simulate(spec).array;
    Row row{nodes, simulator.tsv_model().num_element_dofs(), local_seconds,
            result.stats.global_seconds(), 0.0};
    if (reference.has_value()) row.error = ms::core::field_error(*reference, result.von_mises);
    rows.push_back(row);
    std::fflush(stdout);
  }

  std::vector<std::string> header{"(nx,ny,nz)"};
  for (const Row& r : rows) header.push_back(ms::util::strf("(%d,%d,%d)", r.nodes, r.nodes, r.nodes));
  ms::util::TextTable table(header);
  auto add_row = [&](const std::string& name, auto cell_of) {
    std::vector<std::string> cells{name};
    for (const Row& r : rows) cells.push_back(cell_of(r));
    table.add_row(std::move(cells));
  };
  add_row("n (element DoFs)", [](const Row& r) { return ms::util::strf("%d", static_cast<int>(r.n)); });
  add_row("local stage runtime", [](const Row& r) { return ms::util::format_seconds(r.local_seconds); });
  add_row("global stage runtime", [](const Row& r) { return ms::util::format_seconds(r.global_seconds); });
  if (reference.has_value()) {
    add_row("error", [](const Row& r) { return ms::util::percent_cell(r.error); });
  }
  std::fputs(table.render().c_str(), stdout);

  // Fig. 6 series: error (log axis in the paper) and runtime against n.
  std::printf("\nFig. 6 series (n, error%%, global runtime s):\n");
  for (const Row& r : rows) {
    std::printf("  n=%-4d error=%-8.3f runtime=%.3f\n", static_cast<int>(r.n), 100.0 * r.error,
                r.global_seconds);
  }

  // The paper's qualitative claim: error decreases monotonically with n.
  bool monotone = true;
  for (std::size_t i = 1; i < rows.size(); ++i) monotone = monotone && rows[i].error < rows[i - 1].error;
  if (reference.has_value()) {
    std::printf("\nerror monotonically decreasing with n: %s\n", monotone ? "yes" : "NO");
  }
  ms::obs::write_cli_outputs(cli);
  return 0;
}
