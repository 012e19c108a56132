// Scenario-1 scaling study (the workload behind paper Table 1): run the
// one-shot local stage once, then sweep array sizes and watch the global
// stage's cost grow with the number of blocks while the fine-mesh-equivalent
// DoF count explodes. Optionally compares against the linear superposition
// baseline on the largest array.
//
//   ./tsv_array_scaling [--pitch 10] [--sizes 5,10,20,30] [--superpose]

#include <cstdio>

#include "baseline/superposition.hpp"
#include "core/simulator.hpp"
#include "fem/assembler.hpp"
#include "obs/obs_cli.hpp"
#include "sweep/scenario_result.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

std::vector<int> parse_sizes(const std::string& text) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    out.push_back(std::stoi(text.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ms::util::CliParser cli("tsv_array_scaling", "sweep TSV array sizes with one ROM");
  cli.add_double("pitch", 15.0, "TSV pitch in micrometres");
  cli.add_string("sizes", "5,10,20,30", "array edges to sweep");
  cli.add_int("samples", 40, "plane samples per block");
  cli.add_flag("superpose", "also run the linear superposition baseline");
  ms::obs::add_cli_flags(cli);
  cli.parse(argc, argv);
  ms::obs::apply_cli_flags(cli);

  ms::core::SimulationConfig config = ms::core::SimulationConfig::paper_default();
  config.geometry.pitch = cli.get_double("pitch");
  config.mesh_spec = {8, 6};
  config.local.samples_per_block = static_cast<int>(cli.get_int("samples"));

  ms::core::MoreStressSimulator sim(config);
  const double local_seconds = sim.prepare_local_stage(false);
  std::printf("one-shot local stage: %.2f s (reused for every size below)\n\n", local_seconds);

  // Fine-mesh DoF count a full FEM would need for the same array.
  const ms::mesh::BlockGridLines lines =
      ms::mesh::block_grid_lines(config.geometry, config.mesh_spec);
  const long block_edge_nodes = static_cast<long>(lines.xy.size()) - 1;

  ms::util::TextTable table({"array", "global dofs", "fine-FEM dofs (equiv)", "global time",
                             "memory", "iters", "peak vM [MPa]"});
  for (int size : parse_sizes(cli.get_string("sizes"))) {
    ms::sweep::ScenarioSpec spec;
    spec.blocks_x = spec.blocks_y = size;
    const ms::core::ArrayResult result = *sim.simulate(spec).array;
    double peak = 0.0;
    for (double v : result.von_mises) peak = std::max(peak, v);
    const long fine_nodes = (block_edge_nodes * size + 1) * (block_edge_nodes * size + 1) *
                            (static_cast<long>(lines.z.size()));
    table.add_row({ms::util::strf("%dx%d", size, size),
                   ms::util::strf("%d", static_cast<int>(result.stats.solve.num_dofs)),
                   ms::util::strf("%ld", 3 * fine_nodes),
                   ms::util::format_seconds(result.stats.global_seconds()),
                   ms::util::format_bytes(result.stats.memory_bytes),
                   ms::util::strf("%d", static_cast<int>(result.stats.solve.iterations)),
                   ms::util::strf("%.0f", peak)});
    std::fflush(stdout);
  }
  std::fputs(table.render().c_str(), stdout);

  if (cli.flag("superpose")) {
    const std::vector<int> sizes = parse_sizes(cli.get_string("sizes"));
    const int largest = sizes.back();
    ms::baseline::SuperpositionModel::BuildOptions options;
    options.samples_per_block = config.local.samples_per_block;
    options.thermal_load = config.thermal_load;
    const auto sp = ms::baseline::SuperpositionModel::build(config.geometry, config.mesh_spec,
                                                            config.materials, options);
    ms::util::WallTimer timer;
    const auto field = sp.estimate_array(largest, largest);
    std::printf("\nlinear superposition on %dx%d: build %.1f s (one-shot), estimate %.2f s\n",
                largest, largest, sp.build_seconds(), timer.seconds());
  }
  ms::obs::write_cli_outputs(cli);
  return 0;
}
